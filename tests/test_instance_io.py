"""Instance file format: bit-exact round-trips and error reporting."""

import json
import sys
from fractions import Fraction

import pytest

from homhopf.catalog import cyclic_group_hopf, entry, names
from homhopf.errors import InstanceFormatError
from homhopf.instance_io import (ParsedInstance, emit_instance, load_instance,
                                 max_dim, parse_instance)
from homhopf.linalg import SCALAR_SPACE, LinearMap
from homhopf.modules import regular_induced, regular_rel_hopf
from homhopf.records import replace
from homhopf.structures import check_hom_hopf, regular_comodule_algebra

from conftest import REBASED
from emit_reference import reference_emit


@pytest.mark.parametrize("name", names())
def test_emit_parse_emit_is_a_fixed_point(name):
    text = emit_instance(entry(name))
    assert emit_instance(parse_instance(text)) == text


@pytest.mark.parametrize("name", names())
def test_emission_is_deterministic(name):
    assert emit_instance(entry(name)) == emit_instance(entry(name))


def _kcn_with_A_and_GA(n):
    CA = regular_comodule_algebra(cyclic_group_hopf(n))
    return ParsedInstance(f"kC{n}", "hopf", f"kC{n} with A and G(A)", CA,
                          {"A": regular_rel_hopf(CA),
                           "G(A)": regular_induced(CA)}, {})


# text a writer might use to mark a matrix for a later search and replace
SENTINEL = "\x00@@matrix:hopf.mult@@\x00"


def _odd_strings():
    """kC2 with labels, module names, name and expected values that JSON
    must escape, one a would-be sentinel, and a dim-0 module."""
    doc = json.loads(emit_instance(entry("kC2")))
    doc["name"], doc["description"] = SENTINEL, 'q"u\\o\tte\u2297'
    doc["hopf"]["basis"] = ['"\\⊗', SENTINEL + "⊗"]
    doc["comodule_algebra"]["basis"] = ["\x00⊗e", '⊗"@@']
    mods = doc["modules"]
    doc["modules"] = {'"': mods["A"], "\\": mods["G(A)"], "\x00": mods["A"],
                      "⊗": mods["A"], SENTINEL: mods["A"],
                      "Z0": {"dim": 0, "basis": [], "mu": [], "action": [],
                             "coaction": []}}
    doc["expected"] = {"z": [1, None, True, {"⊗": SENTINEL}], "a": {},
                       "b": []}
    return parse_instance(json.dumps(doc))


WRITER_CASES = {
    **{name: (lambda _, name=name: entry(name)) for name in names()},
    **{f"kC{n} with A and G(A)": (lambda _, n=n: _kcn_with_A_and_GA(n))
       for n in range(1, 9)},
    **{f"{f}, seed 1": (lambda folder, f=f: load_instance(str(folder / f)))
       for f in REBASED},
    "escapes, a sentinel and a dim-0 module": lambda _: _odd_strings(),
}


@pytest.mark.parametrize("case", list(WRITER_CASES))
def test_column_writer_matches_json_dumps(case, seed1_rebased):
    """emit_instance writes what json.dumps(doc, indent=2) writes for the
    document of dense string matrices."""
    inst = WRITER_CASES[case](seed1_rebased)
    assert emit_instance(inst) == reference_emit(inst)


def test_parse_preserves_exact_rationals():
    text = emit_instance(entry("matrix-datum-2"))
    inst = parse_instance(text)
    assert inst.kind == "coalgebra-datum"
    again = json.loads(emit_instance(inst))
    assert again["hopf"]["dim"] == 4


def test_truncated_file_reports_location():
    with pytest.raises(InstanceFormatError) as exc:
        parse_instance("{ not json")
    assert "line 1" in str(exc.value)


def test_missing_block_reports_key():
    doc = json.loads(emit_instance(entry("kC2")))
    del doc["hopf"]["mult"]
    with pytest.raises(InstanceFormatError, match="mult"):
        parse_instance(json.dumps(doc))


def test_bad_scalar_reports_position():
    doc = json.loads(emit_instance(entry("kC2")))
    doc["hopf"]["alpha"][0][0] = "1/0"
    with pytest.raises(InstanceFormatError, match=r"alpha\[0\]\[0\]"):
        parse_instance(json.dumps(doc))


@pytest.mark.parametrize("key, index, value, message", [
    ("mult", (1, 2), "x",
     "hopf.mult[1][2]: bad rational 'x': Invalid literal for Fraction: 'x'"),
    ("mult", (0, 3), True,
     "hopf.mult[0][3]: scalar must be a string or integer, got bool"),
    ("alpha", (1, 0), "1/0", "hopf.alpha[1][0]: bad rational '1/0': "
     "Fraction(1, 0)"),
    ("unit", (1,), 0.5,
     "hopf.unit[1]: scalar must be a string or integer, got float"),
    ("unit", (0,), None,
     "hopf.unit[0]: scalar must be a string or integer, got NoneType"),
])
def test_bad_scalar_message_names_the_first_bad_entry(key, index, value,
                                                      message):
    doc = json.loads(emit_instance(entry("kC2")))
    target = doc["hopf"][key]
    for i in index[:-1]:
        target = target[i]
    target[index[-1]] = value
    if index[-1] + 1 < len(target):
        target[index[-1] + 1] = "later"
    with pytest.raises(InstanceFormatError) as exc:
        parse_instance(json.dumps(doc))
    assert str(exc.value) == message


@pytest.mark.parametrize("text, value", [
    ("2/1", 2), ("-4/2", -2), ("1.0", 1), ("3e0", 3), (" 7 ", 7), ("+3", 3),
    (5, 5), ("-6/4", Fraction(-3, 2)), ("0.25", Fraction(1, 4))])
def test_scalar_is_an_int_exactly_when_integral(text, value):
    doc = json.loads(emit_instance(entry("kC2")))
    doc["hopf"]["unit"][1] = text
    got = parse_instance(json.dumps(doc)).hopf.algebra.unit.matrix[1][0]
    assert got == value and type(got) is type(value)


@pytest.mark.parametrize("form", ["1e{}", "1e-{}", "0e{}", "2.5e-{}"])
def test_decimal_scalar_is_bounded_as_int_bounds_digits(form):
    """A decimal string is refused when the numerator or denominator that
    Fraction builds for it would have more digits than int() takes."""
    limit = sys.get_int_max_str_digits()
    doc = json.loads(emit_instance(entry("kC2")))
    doc["hopf"]["unit"][1] = text = form.format(limit - 2)
    got = parse_instance(json.dumps(doc)).hopf.algebra.unit.matrix[1][0]
    assert got == Fraction(text)
    doc["hopf"]["unit"][1] = text = form.format(limit)
    with pytest.raises(InstanceFormatError) as exc:
        parse_instance(json.dumps(doc))
    assert str(exc.value) == (f"hopf.unit[1]: bad rational {text!r}: "
                              f"numerator or denominator over {limit} digits")


def _set(*path_and_value):
    """An edit of the emitted kC2 document: the key path set to the value,
    in place."""
    *path, key, value = path_and_value

    def edit(doc):
        target = doc
        for k in path:
            target = target[k]
        target[key] = value
        return doc
    return edit


@pytest.mark.parametrize("cap, edit, location, message", [
    ("0", _set("name", "kC2"), None, "HOMHOPF_MAX_DIM must be positive"),
    ("-3", _set("name", "kC2"), None, "HOMHOPF_MAX_DIM must be positive"),
    ("12", lambda doc: [doc], None, "top level must be an object"),
    ("12", _set("format", "homhopf"), None,
     "format must be 'homhopf-instance'"),
    ("12", _set("field", "real"), None, "field must be 'rational'"),
    ("12", _set("kind", "group"), "kind", "unknown kind 'group'"),
    ("12", _set("name", 3), None, "name and description must be strings"),
    ("12", _set("description", ["a"]), None,
     "name and description must be strings"),
    ("12", _set("comodule_algebra", []), "comodule_algebra",
     "comodule_algebra must be an object"),
    ("12", _set("modules", []), "modules", "modules must be an object"),
    ("12", _set("modules", "A", "A"), "modules.A",
     "module block must be an object"),
    ("12", _set("expected", 1), "expected", "expected must be an object"),
    ("12", _set("hopf", "unit", ["1"]), "hopf.unit",
     "expected a list of 2 scalars"),
    ("12", _set("hopf", "mult", 1, ["0"] * 3), "hopf.mult row 1",
     "expected a row of 4 scalars"),
    ("12", _set("hopf", "dim", 0), "hopf", "dimension must be positive"),
    # an algebra holds its unit 1 != 0; a module may be zero, not negative
    ("12", _set("comodule_algebra", "dim", 0), "comodule_algebra",
     "dimension must be positive"),
    ("12", _set("modules", "A", "dim", -1), "modules.A",
     "dimension must be non-negative"),
    ("12", _set("comodule_algebra", "basis", ["1", "g", "h"]),
     "comodule_algebra", "basis must list 2 label strings"),
], ids=["cap-zero", "cap-negative", "top-level", "format", "field", "kind",
        "name", "description", "comodule-algebra", "modules", "module",
        "expected", "unit-length", "row-length", "dim", "comodule-algebra-dim",
        "module-dim-negative", "basis-length"])
def test_malformed_file_is_refused_with_its_location(monkeypatch, cap, edit,
                                                     location, message):
    monkeypatch.setenv("HOMHOPF_MAX_DIM", cap)
    doc = edit(json.loads(emit_instance(entry("kC2"))))
    with pytest.raises(InstanceFormatError) as exc:
        parse_instance(json.dumps(doc))
    assert exc.value.location == location
    assert str(exc.value) == (message if location is None
                              else f"{location}: {message}")


def test_wrong_shape_is_rejected():
    doc = json.loads(emit_instance(entry("kC2")))
    doc["hopf"]["comult"] = doc["hopf"]["comult"][:-1]
    with pytest.raises(InstanceFormatError, match="comult"):
        parse_instance(json.dumps(doc))


def test_singular_automorphism_is_rejected():
    doc = json.loads(emit_instance(entry("kC2")))
    doc["hopf"]["alpha"] = [["1", "1"], ["1", "1"]]
    with pytest.raises(InstanceFormatError, match="not invertible"):
        parse_instance(json.dumps(doc))


def test_singular_antipode_is_rejected_in_a_hopf_file_only():
    doc = json.loads(emit_instance(entry("kC2")))
    doc["hopf"]["antipode"] = [["1", "1"], ["1", "1"]]
    with pytest.raises(InstanceFormatError) as exc:
        parse_instance(json.dumps(doc))
    assert str(exc.value) == "hopf.antipode: antipode is not invertible"
    doc["kind"] = "coalgebra-datum"
    assert parse_instance(json.dumps(doc)).hopf.antipode_inv is None


def test_a_file_and_the_catalog_write_the_counit_over_one_scalar_space():
    """With eps(1) = 2 on kC2, the catalog's maps and the parsed file give
    one witness text for eps(1) = 1."""
    H = entry("kC2").hopf
    rows = [list(r) for r in H.coalgebra.counit.matrix]
    rows[0][0] = 2
    catalog = replace(H, coalgebra=replace(
        H.coalgebra, counit=LinearMap.from_rows(H.space, SCALAR_SPACE, rows)))
    doc = json.loads(emit_instance(entry("kC2")))
    doc["hopf"]["counit"][0][0] = "2"
    parsed = parse_instance(json.dumps(doc)).hopf
    for hopf in (catalog, parsed):
        lines = check_hom_hopf(hopf).pretty().splitlines()
        assert lines[lines.index("  [FAIL] eps(1) = 1") + 1] == \
            "         at k: 2·k != k"


def test_dimension_cap_from_environment(monkeypatch):
    monkeypatch.setenv("HOMHOPF_MAX_DIM", "3")
    assert max_dim() == 3
    with pytest.raises(InstanceFormatError, match="exceeds the cap"):
        parse_instance(emit_instance(entry("sweedler-H4")))
    monkeypatch.setenv("HOMHOPF_MAX_DIM", "4")
    parse_instance(emit_instance(entry("sweedler-H4")))


def test_default_cap_is_twelve(monkeypatch):
    monkeypatch.delenv("HOMHOPF_MAX_DIM", raising=False)
    assert max_dim() == 12


def test_invalid_cap_is_an_input_error(monkeypatch):
    monkeypatch.setenv("HOMHOPF_MAX_DIM", "many")
    with pytest.raises(InstanceFormatError):
        max_dim()


def test_load_instance_missing_file():
    with pytest.raises(InstanceFormatError):
        load_instance("/nonexistent/instance.json")


def test_round_trip_through_disk(tmp_path):
    text = emit_instance(entry("kC3-twisted"))
    path = tmp_path / "inst.json"
    path.write_text(text)
    inst = load_instance(str(path))
    assert emit_instance(inst) == text
