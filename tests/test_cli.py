"""CLI integration: subcommands, exit codes, and report determinism."""

import hashlib
import importlib
import importlib.util
import inspect
import json
import os
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import homhopf.cli as cli
from homhopf.catalog import cyclic_group_hopf, entry, names
from homhopf.cli import main
from homhopf.instance_io import (ParsedInstance, emit_instance,
                                 parse_instance)
from homhopf.linalg import LinearMap
from homhopf.modules import regular_rel_hopf
from homhopf.structures import regular_comodule_algebra
from homhopf.verify import check_identity


SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture()
def kc2_file(tmp_path):
    path = tmp_path / "kc2.json"
    path.write_text(emit_instance(entry("kC2")))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _without_wall_time(text: str) -> str:
    return "".join(line for line in text.splitlines(keepends=True)
                   if not line.startswith("wall-time: "))


def test_catalog_list(capsys):
    code, out, _ = run(capsys, "catalog", "list")
    assert code == 0
    assert out.split() == names()


def test_catalog_emit_round_trips(capsys):
    code, out, _ = run(capsys, "catalog", "emit", "kC2")
    assert code == 0
    assert out == emit_instance(entry("kC2"))


def test_catalog_emit_unknown_name(capsys):
    code, _, err = run(capsys, "catalog", "emit", "bogus")
    assert code == 2
    assert "unknown" in err


def test_catalog_emit_without_a_name_is_exit_2(capsys):
    code, out, err = run(capsys, "catalog", "emit")
    assert (code, out) == (2, "")
    assert err == f"{cli.USAGE}homhopf: error: catalog emit needs NAME\n"


@pytest.mark.parametrize("argv", [
    [], ["frob", "{f}"], ["check"], ["theorem", "{f}"],
    ["theorem", "--id", "9.9", "{f}"], ["theorem", "{f}", "--id"],
    ["integral", "{f}", "--quantum=yes"],
    # argparse's prefix abbreviations are not accepted
    ["integral", "{f}", "--quan"], ["check", "{f}", "{f}"],
    ["catalog", "frob"], ["catalog", "list", "kC2"],
    ["theorem", "--id", "4.8", "{f}", "--id", "5.7"], ["catalog", "emit"],
    ["integral", "{f}", "--total"]],
    ids=["none", "unknown-subcommand", "missing-file", "theorem-without-id",
         "bad-id", "id-without-value", "value-on-a-switch", "abbreviation",
         "extra-positional", "unknown-catalog-action", "argument-after-list",
         "repeated-flag", "emit-without-a-name", "total-without-quantum"])
def test_malformed_command_line_is_exit_2_with_the_usage(capsys, kc2_file,
                                                         argv):
    code, out, err = run(capsys, *(a.format(f=kc2_file) for a in argv))
    assert (code, out) == (2, "")
    assert err.startswith(cli.USAGE)
    assert err[len(cli.USAGE):].startswith("homhopf: error: ")
    assert err.count("\n") == cli.USAGE.count("\n") + 1


@pytest.mark.parametrize("argv, message", [
    (["catalog", "list", "kC2"], "unexpected argument 'kC2'"),
    (["theorem", "--id", "4.8", "f.json", "--id", "5.7"],
     "repeated flag '--id'"),
    (["integral", "f.json", "--quantum", "--quantum"],
     "repeated flag '--quantum'"),
    (["theorem", "--id=4.8", "f.json", "--id", "4.8"],
     "repeated flag '--id'"),
    (["catalog", "emit"], "catalog emit needs NAME"),
    (["integral", "f.json", "--total"], "--total needs --quantum")],
    ids=["argument-after-list", "repeated-id", "repeated-switch",
         "repeated-id-after-equals", "emit-without-a-name",
         "total-without-quantum"])
def test_an_extra_argument_or_a_repeated_flag_is_named(argv, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        cli._parse(argv)


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["check", "-h"]])
def test_help_prints_the_usage_and_exits_0(capsys, argv):
    assert run(capsys, *argv) == (0, cli.USAGE, "")


def test_readme_grammar_block_is_the_usage():
    readme = (SRC.parent / "README.md").read_text()
    assert f"```\n{cli.USAGE}```\n" in readme


def test_usage_parser_and_theorem_table_agree():
    line = next(w for w in cli.USAGE.splitlines() if " theorem --id " in w)
    listed = line.split("{", 1)[1].split("}", 1)[0].split(",")
    assert listed == list(cli.THEOREMS)
    for theorem_id in cli.THEOREMS:
        assert cli._parse(["theorem", "--id", theorem_id, "f.json"]) \
            == ("theorem", ["f.json"], {"--id": theorem_id})


@pytest.mark.parametrize("argv, same", [
    (["theorem", "--id=5.7", "{f}"], ["theorem", "--id", "5.7", "{f}"]),
    (["integral", "--total", "--quantum", "{f}"],
     ["integral", "{f}", "--quantum", "--total"])])
def test_flag_spelling_and_place_do_not_change_the_report(capsys, kc2_file,
                                                          argv, same):
    outs = []
    for words in (argv, same):
        code, out, err = run(capsys, *(a.format(f=kc2_file) for a in words))
        assert (code, err) == (0, "")
        outs.append(_without_wall_time(out))
    assert outs[0] == outs[1]


def test_check_passes_on_catalog_file(capsys, kc2_file):
    code, out, _ = run(capsys, "check", kc2_file)
    assert code == 0
    assert "FAIL" not in out


def test_check_reports_corruption_with_exit_1(capsys, tmp_path):
    doc = json.loads(emit_instance(entry("kC2")))
    doc["hopf"]["antipode"][0][1] = "1"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "check", str(path))
    assert code == 1
    fails = [l for l in out.splitlines() if "FAIL" in l]
    assert len(fails) == 1
    assert any(" at " in l for l in out.splitlines())


def test_check_runs_the_comodule_algebras_own_algebra_suite(capsys, tmp_path):
    """A = span(1, x, y) with xy = 1 and yx = x^2 = y^2 = 0 passes the
    comodule, multiplicativity and unitality lines under the trivial kC2
    coaction, but (xx)y = 0 while alpha(x)(xy) = x."""
    doc = json.loads(emit_instance(entry("kC2")))
    doc["comodule_algebra"] = {
        "dim": 3, "basis": ["1", "x", "y"],
        "mult": [["1", "0", "0", "0", "0", "1", "0", "0", "0"],
                 ["0", "1", "0", "1", "0", "0", "0", "0", "0"],
                 ["0", "0", "1", "0", "0", "0", "1", "0", "0"]],
        "unit": ["1", "0", "0"],
        "beta": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
        "coaction": [["1", "0", "0"], ["0", "0", "0"], ["0", "1", "0"],
                     ["0", "0", "0"], ["0", "0", "1"], ["0", "0", "0"]]}
    doc["modules"], doc["expected"] = {}, {}
    path = tmp_path / "nonassoc.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "check", str(path))
    assert code == 1
    lines = out.splitlines()
    fails = [i for i, l in enumerate(lines) if "[FAIL]" in l]
    assert [lines[i] for i in fails] == [
        "  [FAIL] comodule algebra: algebra: Hom-associativity: "
        "alpha(a)(bc) = (ab)alpha(c)"]
    assert lines[fails[0] + 1] == "         at x, x, y: x != 0"


def test_check_truncated_file_is_exit_2(capsys, tmp_path):
    path = tmp_path / "trunc.json"
    path.write_text('{"format": "homhopf-instance"')
    code, _, err = run(capsys, "check", str(path))
    assert code == 2
    assert "error" in err


def test_check_non_utf8_file_is_exit_2_naming_file_and_offset(capsys,
                                                              tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"format": "homhopf-instance", "name": "caf\xe9"}')
    code, out, err = run(capsys, "check", str(path))
    assert code == 2 and out == ""
    assert err == f"error: {path}: not UTF-8: byte 0xe9 at offset 43\n"


def test_integral_feasible(capsys, kc2_file):
    code, out, _ = run(capsys, "integral", kc2_file, "--quantum", "--total")
    assert code == 0
    machine = json.loads(out.split("---\n", 1)[1])
    assert machine["ok"] is True
    assert machine["certificates"]["total_integral"] is True
    assert machine["certificates"]["total_integral_kernel_dim"] == 1
    assert machine["certificates"]["total_quantum_integral"] is True


def test_integral_total_without_quantum_is_exit_2(capsys, kc2_file):
    # --total constrains the quantum integral; alone it used to be ignored
    code, out, err = run(capsys, "integral", kc2_file, "--total")
    assert (code, out) == (2, "")
    assert err == f"{cli.USAGE}homhopf: error: --total needs --quantum\n"


@pytest.mark.parametrize("argv", [
    ["integral", "{}", "--quantum"], ["integral", "{}", "--quantum", "--total"],
    *(["theorem", "--id", t, "{}"] for t in ("4.8", "5.6", "5.7", "5.8"))])
def test_antipode_refusal_is_located_and_precedes_every_solve(
        capsys, tmp_path, monkeypatch, argv):
    path = tmp_path / "m.json"
    path.write_text(emit_instance(entry("matrix-datum-2")))

    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the antipode was checked")
    for name in ("find_total_integral", "find_quantum_integral",
                 "thm48_check", "thm56_check", "thm57_check", "cor58_check"):
        monkeypatch.setattr(cli, name, no_solve)
    code, out, err = run(capsys, *(a.format(path) for a in argv))
    assert (code, out) == (2, "")
    assert err.startswith("error: hopf.antipode: ")
    assert err.endswith(" needs a bijective antipode\n")


def test_integral_infeasible_with_certificate(capsys, tmp_path):
    path = tmp_path / "tkh4.json"
    path.write_text(emit_instance(entry("trivial-k-over-H4")))
    code, out, _ = run(capsys, "integral", str(path))
    assert code == 0  # infeasibility matches the expected block
    machine = json.loads(out.split("---\n", 1)[1])
    assert machine["certificates"]["total_integral"] is False
    assert machine["certificates"]["ranks"] == [3, 4]


def test_integral_expected_mismatch_is_exit_1(capsys, tmp_path):
    doc = json.loads(emit_instance(entry("kC2")))
    doc["expected"]["total_integral"] = False
    path = tmp_path / "wrong.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "integral", str(path))
    assert code == 1


@pytest.mark.parametrize("name, argv, key, declared", [
    ("kC2", ["galois"], "coinvariant_dim", True),
    ("kC2", ["integral"], "total_integral", 1),
    ("trivial-k-over-H4", ["integral"], "ranks", [3.0, 4])])
def test_expected_value_of_another_json_type_is_a_mismatch(
        capsys, tmp_path, name, argv, key, declared):
    """true is not 1 and 3.0 is not 3, in a list as at the top."""
    doc = json.loads(emit_instance(entry(name)))
    doc["expected"][key] = declared
    path = tmp_path / "typed.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, *argv, str(path))
    assert code == 1
    assert f"  [FAIL] expected {key} = {declared!r}  (recomputed " in out


def test_galois_classification(capsys, kc2_file):
    code, out, _ = run(capsys, "galois", kc2_file)
    assert code == 0
    assert "bijective, rank 4/4" in out


@pytest.mark.parametrize("theorem_id", ["4.3", "4.8", "5.6", "5.7", "5.8"])
def test_theorem_subcommand(capsys, kc2_file, theorem_id):
    code, out, _ = run(capsys, "theorem", "--id", theorem_id, kc2_file)
    assert code == 0
    assert "FAIL" not in out


def test_theorem_43_on_negative_instance(capsys, tmp_path):
    path = tmp_path / "tkh4.json"
    path.write_text(emit_instance(entry("trivial-k-over-H4")))
    code, out, _ = run(capsys, "theorem", "--id", "4.3", str(path))
    assert code == 0
    machine = json.loads(out.split("---\n", 1)[1])
    assert machine["certificates"]["exists"] is False


def test_machine_section_is_deterministic(capsys, kc2_file):
    _, out1, _ = run(capsys, "galois", kc2_file)
    _, out2, _ = run(capsys, "galois", kc2_file)
    assert out1.split("---\n", 1)[1] == out2.split("---\n", 1)[1]


@pytest.mark.parametrize("seed", [1, 2, 7])
def test_theorem43_passes_on_rebased_kc3_twisted(capsys, tmp_path, seed):
    # the benchmark's seeded change of basis of kC3-twisted, where phi
    # without its beta^{-1} failed to be a total integral
    subprocess.run([sys.executable, str(SRC.parent / "verdictbench" /
                                        "make_inputs.py"),
                    "--seed", str(seed), "--out", str(tmp_path),
                    "kC3-twisted-rebased.json"],
                   env=dict(os.environ, PYTHONPATH=str(SRC)), check=True,
                   capture_output=True, timeout=60)
    code, out, _ = run(capsys, "theorem", "--id", "4.3",
                       str(tmp_path / "kC3-twisted-rebased.json"))
    assert code == 0, out


def test_theorem_needs_bijective_antipode(capsys, tmp_path):
    path = tmp_path / "datum.json"
    path.write_text(emit_instance(entry("matrix-datum-2")))
    code, _, err = run(capsys, "theorem", "--id", "5.7", str(path))
    assert code == 2
    assert "antipode" in err


def test_theorem_58_refuses_modules_over_another_coaction(capsys, tmp_path):
    path = tmp_path / "tkc2.json"
    path.write_text(emit_instance(entry("trivial-k-over-kC2")))
    code, out, err = run(capsys, "theorem", "--id", "5.8", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: modules.A: ")
    assert "Traceback" not in err


def test_theorem_58_compares_the_units_of_h_and_a(capsys, tmp_path):
    # kC2 coacts on itself; a comodule algebra block that differs from hopf
    # in its unit alone is another comodule algebra
    doc = json.loads(emit_instance(entry("kC2")))
    assert doc["comodule_algebra"]["unit"] == doc["hopf"]["unit"] == ["1", "0"]
    doc["comodule_algebra"]["unit"] = ["0", "1"]
    path = tmp_path / "other_unit.json"
    path.write_text(json.dumps(doc))
    assert run(capsys, "theorem", "--id", "5.8", str(path)) == \
        (2, "", _NOT_REGULAR)


_ZERO_MODULE = {"dim": 0, "basis": [], "mu": [], "action": [],
                "coaction": []}
# k.m over kC2 coacting on itself, m.a = eps(a) m and rho(m) = m (x) g: not
# a relative Hopf module (rho(m.g) = m (x) g, m.g (x) g g = m (x) 1), and
# its coinvariants are 0
_Z_MODULE = {"dim": 1, "basis": ["m"], "mu": [["1"]],
             "action": [["1", "1"]], "coaction": [["0"], ["1"]]}
_EVERY_SUBCOMMAND = [["check"], ["integral", "--quantum", "--total"],
                     ["galois"], *(["theorem", "--id", theorem_id]
                                   for theorem_id in cli.THEOREMS)]


def _kc2_with_modules(tmp_path, modules: dict) -> Path:
    doc = json.loads(emit_instance(entry("kC2")))
    doc["modules"] = modules
    path = tmp_path / "modules.json"
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return path


@pytest.mark.parametrize("beside_a", [False, True], ids=["alone", "beside-A"])
@pytest.mark.parametrize("argv", _EVERY_SUBCOMMAND, ids=" ".join)
def test_a_zero_module_block_gets_a_verdict(capsys, tmp_path, argv,
                                            beside_a):
    """A module of dimension 0 is a relative Hopf module like any other; on
    its own or next to module A, every subcommand gives a passing verdict."""
    modules = {"Z0": _ZERO_MODULE}
    if beside_a:
        modules = {"A": json.loads(emit_instance(entry("kC2")))["modules"]
                   ["A"], **modules}
    path = _kc2_with_modules(tmp_path, modules)
    code, out, err = run(capsys, *argv, str(path))
    assert (code, err) == (0, "")
    if argv[-1] in ("5.7", "5.8"):
        assert (f"  [ok  ] evaluation counit is an isomorphism (module "
                f"{len(modules) - 1})  (rank 0, source dim 0, target dim 0)\n"
                in out)


def test_a_zero_module_block_round_trips(tmp_path):
    path = _kc2_with_modules(tmp_path, {"Z0": _ZERO_MODULE})
    text = path.read_text()
    assert emit_instance(parse_instance(text)) == text
    assert parse_instance(text).modules["Z0"].dim == 0


@pytest.mark.parametrize("theorem_id", ["5.7", "5.8"])
def test_zero_coinvariants_fail_the_counit_line(capsys, tmp_path,
                                                theorem_id):
    """The counit M^{coH} (x)_B A -> M of a module with no coinvariant is
    0 -> M: a failing conclusion (exit 1), not a refused input (exit 2)."""
    path = _kc2_with_modules(tmp_path, {"Z": _Z_MODULE})
    code, out, err = run(capsys, "check", str(path))
    assert (code, err) == (1, "")
    assert "  [FAIL] module Z: compatibility: rho(m.a) = m0.a0 (x) m1 a1\n" \
        in out
    code, out, err = run(capsys, "theorem", "--id", theorem_id, str(path))
    assert (code, err) == (1, "")
    assert ("  [FAIL] evaluation counit is an isomorphism (module 0)  "
            "(rank 0, source dim 0, target dim 1)\n") in out


def _check_in_a_fresh_process(path, timeout=60):
    return subprocess.run([sys.executable, "-m", "homhopf.cli", "check",
                           str(path)], capture_output=True, text=True,
                          timeout=timeout,
                          env=dict(os.environ, PYTHONPATH=str(SRC)))


@pytest.mark.parametrize("raw, where", [
    ('"0e99999999"', "error: hopf.unit[1]: bad rational '0e99999999': "),
    ('"1e999999"', "error: hopf.unit[1]: bad rational '1e999999': "),
    ("1" + "0" * 4999, "error: not valid JSON: ")],
    ids=["zero-to-a-huge-power", "huge-power", "long-json-integer"])
def test_oversized_scalar_is_exit_2_with_a_location(tmp_path, raw, where):
    # in a fresh process, so that a scalar built in full would hit the
    # timeout rather than hang the suite: Fraction("0e99999999") computes
    # 10**99999999
    doc = json.loads(emit_instance(entry("kC2")))
    doc["hopf"]["unit"][1] = "@"
    path = tmp_path / "oversized.json"
    path.write_text(json.dumps(doc).replace('"@"', raw))
    proc = _check_in_a_fresh_process(path, timeout=1)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith(where), proc.stderr


def test_malformed_file_is_exit_2_with_its_location(tmp_path):
    doc = json.loads(emit_instance(entry("kC2")))
    doc["modules"]["A"] = "A"
    path = tmp_path / "module.json"
    path.write_text(json.dumps(doc))
    proc = _check_in_a_fresh_process(path)
    assert (proc.returncode, proc.stdout, proc.stderr) == \
        (2, "", "error: modules.A: module block must be an object\n")


def test_witness_entry_past_the_digit_limit_is_written_by_its_size(tmp_path):
    # 1e4298 parses (4,299 digits), but Delta(1) = 1 (x) 1 fails with the
    # entry (10**4298)**2, whose 8,597 digits str() refuses to write
    doc = json.loads(emit_instance(entry("kC2")))
    doc["hopf"]["unit"][1] = "1e4298"
    path = tmp_path / "digits.json"
    path.write_text(json.dumps(doc))
    proc = _check_in_a_fresh_process(path)
    assert (proc.returncode, proc.stderr) == (1, "")
    lines = proc.stdout.splitlines()
    witness = lines[lines.index("  [FAIL] hopf: Delta(1) = 1 (x) 1") + 1]
    assert witness.startswith("         at k: ")
    assert json.loads(proc.stdout.split("\n---\n", 1)[1])["ok"] is False


def test_check_pins_witnesses_of_a_corrupted_kc12_mult(capsys, tmp_path):
    # g.g = g2 gains a 1 term; eps(ab) is checked into the scalars, whose
    # parsed label is "1" while the check writes witnesses over "k"
    CA = regular_comodule_algebra(cyclic_group_hopf(12))
    doc = json.loads(emit_instance(ParsedInstance(
        "kC12", "hopf", "", CA, {"A": regular_rel_hopf(CA)}, {})))
    doc["hopf"]["mult"][0][13] = "1"
    path = tmp_path / "kc12-bad.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "check", str(path))
    assert code == 1
    machine = json.loads(out.split("---\n", 1)[1])
    fails = [(r["name"], r["witness"]) for r in machine["results"]
             if r["status"] == "fail"]
    assert fails == [
        ("hopf: algebra: Hom-associativity: alpha(a)(bc) = (ab)alpha(c)",
         {"basis": ["g", "g", "g2"], "lhs": "g4", "rhs": "g2 + g4"}),
        ("hopf: Delta(ab) = a1 b1 (x) a2 b2",
         {"basis": ["g", "g"], "lhs": "1⊗1 + g2⊗g2",
          "rhs": "1⊗1 + 1⊗g2 + g2⊗1 + g2⊗g2"}),
        ("hopf: eps(ab) = eps(a)eps(b)",
         {"basis": ["g", "g"], "lhs": "2·k", "rhs": "k"}),
        ("comodule algebra: multiplicativity: rho(ab) = a0 b0 (x) a1 b1",
         {"basis": ["g", "g"], "lhs": "g2⊗g2", "rhs": "g2⊗1 + g2⊗g2"}),
        ("module A: compatibility: rho(m.a) = m0.a0 (x) m1 a1",
         {"basis": ["g", "g"], "lhs": "g2⊗g2", "rhs": "g2⊗1 + g2⊗g2"}),
    ]


def test_traced_benchmark_hooks_resolve():
    # verdictbench/traced_cli.py patches these names and reads
    # check_identity's report (position 0) and factors (position 2)
    path = Path(__file__).resolve().parents[1] / "verdictbench" / "traced_cli.py"
    spec = importlib.util.spec_from_file_location("traced_cli", path)
    traced = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced)
    for module, attr in traced.FUNCTIONS:
        assert callable(getattr(importlib.import_module(f"homhopf.{module}"),
                                attr)), f"{module}.{attr}"
    for attr, _ in traced.METHODS:
        assert callable(getattr(LinearMap, attr))
    params = list(inspect.signature(check_identity).parameters)
    assert params[0] == "report" and params[2] == "factors"


@pytest.mark.parametrize("theorem_id, span", [
    ("4.3", "integrals.theorem43_check"), ("5.7", "galois.thm57_check"),
    ("5.8", "galois.cor58_check")])
def test_traced_benchmark_sees_each_driver_through_the_table(
        tmp_path, kc2_file, theorem_id, span):
    # traced_cli.py replaces each driver where a module holds it, so the
    # table must look its drivers up in cli when a row is run
    traced = SRC.parent / "verdictbench" / "traced_cli.py"
    spans = tmp_path / "spans.json"
    proc = subprocess.run([sys.executable, str(traced), str(spans), "theorem",
                           "--id", theorem_id, kc2_file],
                          env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert span in {s[0] for s in json.loads(spans.read_text())["spans"]}


def _run_with_closed_stdout(*argv):
    """Run the CLI in a fresh process whose stdout is a pipe with no
    reader; return (exit code, stderr)."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    # without PYTHONUNBUFFERED stdout is block-buffered, so the write that
    # meets the closed pipe is a flush, in _write or at exit
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(SRC)
    try:
        proc = subprocess.run([sys.executable, "-m", "homhopf.cli", *argv],
                              stdout=write_end, stderr=subprocess.PIPE,
                              env=env, timeout=60)
    finally:
        os.close(write_end)
    return proc.returncode, proc.stderr.decode()


@pytest.mark.parametrize("mismatch", [False, True])
def test_closed_stdout_keeps_the_verdicts_exit_code(tmp_path, mismatch):
    doc = json.loads(emit_instance(entry("kC2")))
    if mismatch:
        doc["expected"]["galois"] = "neither"
    path = tmp_path / "kc2.json"
    path.write_text(json.dumps(doc))
    code, err = _run_with_closed_stdout("theorem", "--id", "5.8", str(path))
    assert err == ""
    assert code == (1 if mismatch else 0)
    code, err = _run_with_closed_stdout("catalog", "emit", "kC2")
    assert (code, err) == (0, "")


@pytest.mark.parametrize("argv, want", [
    (["check", "{kc2}"], 0), (["theorem", "--id", "5.8", "{mismatch}"], 1),
    (["theorem", "--id", "9.9", "{kc2}"], 2), (["check", "{missing}"], 2),
    (["catalog", "emit"], 2)],
    ids=["pass", "expected-mismatch", "bad-id", "missing-file",
         "emit-without-a-name"])
def test_no_byte_is_lost_at_exit(capsys, tmp_path, kc2_file, argv, want):
    # run() ends the process with os._exit; stdout and stderr go to regular
    # files and PYTHONUNBUFFERED is dropped, so stdout is block-buffered
    doc = json.loads(emit_instance(entry("kC2")))
    doc["expected"]["galois"] = "neither"
    (tmp_path / "mismatch.json").write_text(json.dumps(doc))
    argv = [a.format(kc2=kc2_file, mismatch=tmp_path / "mismatch.json",
                     missing=tmp_path / "missing.json") for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == want
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    with open(tmp_path / "out", "wb") as fout, \
            open(tmp_path / "err", "wb") as ferr:
        proc = subprocess.run([sys.executable, "-m", "homhopf.cli", *argv],
                              stdout=fout, stderr=ferr, timeout=60,
                              env=dict(env, PYTHONPATH=str(SRC)))
    assert proc.returncode == want
    assert _without_wall_time((tmp_path / "out").read_bytes().decode()) \
        == _without_wall_time(out)
    assert (tmp_path / "err").read_bytes() == err.encode()


def _run_in_bash(argv, redirect):
    """Run the CLI in a fresh process under bash with redirect applied to
    it (">&-" closes stdout); return the CompletedProcess."""
    command = " ".join(shlex.quote(a) for a in
                       [sys.executable, "-m", "homhopf.cli", *argv])
    return subprocess.run(["bash", "-c", f"{command} {redirect}"],
                          env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=60)


@pytest.mark.parametrize("argv, redirect, want", [
    (["check", "{kc2}"], ">&-", 0), (["check", "{kc2}"], "2>&-", 0),
    (["check", "{missing}"], "2>&-", 2), (["frob"], "2>&-", 2),
    (["check", "{kc2}"], "1<{kc2}", 0), (["check", "{missing}"], "2<{kc2}", 2)],
    ids=["closed-stdout", "closed-stderr", "missing-file-closed-stderr",
         "usage-closed-stderr", "read-only-stdout", "read-only-stderr"])
def test_a_closed_stream_keeps_the_exit_code(tmp_path, kc2_file, argv,
                                             redirect, want):
    # a stream closed at start is None in the process; one open read-only
    # fails its write with EBADF; either ends that output, not the run
    missing = str(tmp_path / "missing.json")
    proc = _run_in_bash([a.format(kc2=kc2_file, missing=missing)
                         for a in argv],
                        redirect.format(kc2=shlex.quote(kc2_file)))
    assert proc.returncode == want
    if redirect.startswith("2"):
        assert (proc.stdout == "") == (want == 2)
    else:
        assert proc.stderr == ""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_a_full_device_still_fails_the_run(kc2_file):
    # only a closed stream is forgiven: a write that fails otherwise ends
    # the run with exit 2, as an unreadable file does, and one line
    proc = _run_in_bash(["check", kc2_file], "> /dev/full")
    assert proc.returncode == 2
    assert proc.stderr == ("homhopf: error: cannot write stdout: "
                           "[Errno 28] No space left on device\n")


def test_console_script_is_run():
    # pyproject.toml is read as text: tomllib is not in Python 3.10
    lines = (SRC.parent / "pyproject.toml").read_text().splitlines()
    name, _, target = lines[lines.index("[project.scripts]") + 1] \
        .partition(" = ")
    module, _, attr = target.strip('"').partition(":")
    assert name == "homhopf"
    assert getattr(importlib.import_module(module), attr) is cli.run


@pytest.mark.parametrize("block", ["hopf", "comodule_algebra"])
def test_check_bool_dim_is_exit_2(capsys, tmp_path, block):
    # trivial-k-over-kC2 has a dim-2 Hopf block and a dim-1 algebra block,
    # where true == 1 used to pass
    doc = json.loads(emit_instance(entry("trivial-k-over-kC2")))
    doc[block]["dim"] = True
    path = tmp_path / "bool_dim.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "check", str(path))
    assert code == 2 and out == ""
    assert err == f"error: {block}: key 'dim' has wrong type bool\n"


@pytest.mark.parametrize("block", ["hopf", "comodule_algebra", "modules.A"])
def test_check_repeated_basis_label_is_exit_2(capsys, tmp_path, block):
    """A repeated label is refused at its block, and so are the labels e
    and e⊗e, with which A (x) A spells (e, e⊗e) and (e⊗e, e) both e⊗e⊗e."""
    doc = json.loads(emit_instance(entry("kC2")))
    target = doc["modules"]["A"] if block == "modules.A" else doc[block]
    target["basis"] = [target["basis"][0]] * len(target["basis"])
    path = tmp_path / "repeated_label.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "check", str(path))
    assert code == 2 and out == ""
    assert err == f"error: {block}: basis labels must be pairwise distinct\n"
    target["basis"] = ["e", "e⊗e"]
    path.write_text(json.dumps(doc))
    for command in ("check", "galois"):
        code, out, err = run(capsys, command, str(path))
        assert code == 2 and out == ""
        assert err == (f"error: {block}: basis labels must all contain ⊗ "
                       "the same number of times\n")


# The report of every subcommand on every emitted catalog entry: the sha256
# of stdout without its wall-time line for a cell that exits 0 with nothing
# on stderr, and the stderr of a cell refused with exit 2 and no stdout.
# A change that keeps the verdicts keeps every byte of these.
GOLDEN_SUBCOMMANDS = (
    "check", "integral", "integral --quantum", "integral --quantum --total",
    "galois", "theorem --id 4.3", "theorem --id 4.8", "theorem --id 5.6",
    "theorem --id 5.7", "theorem --id 5.8")

GOLDEN_STDOUT_SHA256 = {
    ("kC2", "check"):
        "969bc71f3e87ffd5e05f3ab262db1d0c4886ad745f513213344b9c835fdbbb1f",
    ("kC2", "integral"):
        "7591407385e7494d446744dffea84e8f148107c9e615d4f708e70e63a1d2b4fd",
    ("kC2", "integral --quantum"):
        "50501d5daa0e89f58fbcdd8a3425cf03e6a474a6e1b8fb075de8cdf46aeccf64",
    ("kC2", "integral --quantum --total"):
        "bb8b45e123468bc63cd0c7847912c358374df9ab5e286fcc8a3f97ab8d51420f",
    ("kC2", "galois"):
        "5193d79f2b81fa9cf0e2d06ac9bd5a28292e2894f43ba46e6638e803424bf8d0",
    ("kC2", "theorem --id 4.3"):
        "d02f491e7840de7c386e2f23422f69156f11776ae0433d9cbdd748d3068aca36",
    ("kC2", "theorem --id 4.8"):
        "d73ee05cc41880c86e7875b9c1be3cabd95df0dd6c526285bfb435d4437db3f4",
    ("kC2", "theorem --id 5.6"):
        "263600ba112c406919500da6ca4027ee203cdac6693a909688732112688fc788",
    ("kC2", "theorem --id 5.7"):
        "2af1719b31d3d2236122baee155ad509c58430d7d571521998f2ebef2b885ae4",
    ("kC2", "theorem --id 5.8"):
        "d75e5717d9dc2846a04c52f5a990ba75834ff6e953ce5ce9dfe9f1662402d27f",
    ("kC3", "check"):
        "fe22ca0bbbdb0e708965288778659aca8d38cbe362b370e57d163710421775cb",
    ("kC3", "integral"):
        "d2c14244798adddab8ae3dff70fca856a6e526615b6bde9e6474247281cbb578",
    ("kC3", "integral --quantum"):
        "b76c89925c33ba3db146c514a44df7981228bfed3ebdccb5c1891b986b45245d",
    ("kC3", "integral --quantum --total"):
        "7c892d769bd87da13b9f9df1da654092f0be93390c9355b8859a5bf8af392ad1",
    ("kC3", "galois"):
        "b0b600edbce5c302ab922e7275f06e8407efdd041ef043098086f4268f4739df",
    ("kC3", "theorem --id 4.3"):
        "f45f23b1ef088fa908a9ccbc48a5edecc3a6b9cb3620b4f908f27b0ebdb2ce2e",
    ("kC3", "theorem --id 4.8"):
        "d73ee05cc41880c86e7875b9c1be3cabd95df0dd6c526285bfb435d4437db3f4",
    ("kC3", "theorem --id 5.6"):
        "263600ba112c406919500da6ca4027ee203cdac6693a909688732112688fc788",
    ("kC3", "theorem --id 5.7"):
        "c074014a660bec7c3cbba35ab22d3b9e4fd8297987cd5e7db8385234ae958bbf",
    ("kC3", "theorem --id 5.8"):
        "d4d37969faa04d6a1a8b93d1c928f538b5557488afb8c56b84879677f1df8d93",
    ("kC3-twisted", "check"):
        "1ab0af919898a885e7d549242ed297ef7cf17077300490759d46f397a04c48e8",
    ("kC3-twisted", "integral"):
        "e31ba01e6a60cba85539246273b3525c2d5b98e37a0347f3c9d2254a208d969b",
    ("kC3-twisted", "integral --quantum"):
        "2ce1f73aa67124c395c30742df517084ed27687eac1e47a343c4fd2030dc1d38",
    ("kC3-twisted", "integral --quantum --total"):
        "8b6d0cbbee0926aa42fa503ffa6e4b11da21ccf62b7e2542a187fec3bdf59e00",
    ("kC3-twisted", "galois"):
        "bc1d2c6baf79315547aafa0108879efd37f0a0af42dd1bfeddadb1ec34f3b3f4",
    ("kC3-twisted", "theorem --id 4.3"):
        "f45f23b1ef088fa908a9ccbc48a5edecc3a6b9cb3620b4f908f27b0ebdb2ce2e",
    ("kC3-twisted", "theorem --id 4.8"):
        "d73ee05cc41880c86e7875b9c1be3cabd95df0dd6c526285bfb435d4437db3f4",
    ("kC3-twisted", "theorem --id 5.6"):
        "263600ba112c406919500da6ca4027ee203cdac6693a909688732112688fc788",
    ("kC3-twisted", "theorem --id 5.7"):
        "c074014a660bec7c3cbba35ab22d3b9e4fd8297987cd5e7db8385234ae958bbf",
    ("kC3-twisted", "theorem --id 5.8"):
        "d4d37969faa04d6a1a8b93d1c928f538b5557488afb8c56b84879677f1df8d93",
    ("kG-C2-datum", "check"):
        "1a28bc1a058884901f947b8f0e89680e15910d96fd1173799cf68a8b31addd40",
    ("kG-C2-datum", "integral"):
        "21bf92399c712caac0bb6090427e98aac6512a7282b36d9984e7415b9ab2f7c8",
    ("kG-C2-datum", "integral --quantum"):
        "8f57776c29890d8106ee14fd8757cec833266238c0a0c5727cd8746b4b8661a4",
    ("kG-C2-datum", "integral --quantum --total"):
        "70e9a87ccd264e23245a3499bd7df925a358290564313871f1a0d27cbfc231b4",
    ("kG-C2-datum", "galois"):
        "4c0be0b8883cf5339cbdaa8971f9a22c03526d6fec485da840f9c1a44f64f0f8",
    ("kG-C2-datum", "theorem --id 4.3"):
        "be6ca0e54cb57161b6310ad07b956c0d7cd232e863eab96deede4f946ef14998",
    ("kG-C2-datum", "theorem --id 4.8"):
        "a37c4bb413fd3af8e5527e1b54f98227e8787a8fc49d1c875e1419acc8b94834",
    ("kG-C2-datum", "theorem --id 5.6"):
        "3094dea2801f51e11381ba38389a21f973a24e16c5844222fb9e8b1f2ef3243d",
    ("kG-C2-datum", "theorem --id 5.7"):
        "07ece7ca21d550ee6d4fd76074b716c23440e88a63f48a83549d3aa6742639ba",
    ("matrix-datum-2", "check"):
        "9377fe695871d40111d7aae248a025e90a885314913a7bb34a3da3ba23491c98",
    ("matrix-datum-2", "integral"):
        "a8693f4c7f404e588bd198bdbc9f3cc59a979abee50ee492e631b20893d4fcb6",
    ("matrix-datum-2", "galois"):
        "77fcdac5407e0e7d950081eee3990dceb2df2513fafd92cf4f946606e597e7b7",
    ("matrix-datum-2", "theorem --id 4.3"):
        "35c6bc431f9f06e8769cb6412b4a6669f8e9f294da64a45de4343bd35ed83429",
    ("sweedler-H4", "check"):
        "db21aaa97afd99ddf41b543c3389190c486afbf1da1bafa4a7bff5042e900158",
    ("sweedler-H4", "integral"):
        "ac63b65688657a5a0a92c8c2bd20478695d206a13f62cac9b42e29cc83e15a77",
    ("sweedler-H4", "integral --quantum"):
        "1e531a3a2ef76c400ccc53806dac19f8230843ed2badf0296a5e91b0d8fc4650",
    ("sweedler-H4", "integral --quantum --total"):
        "c0bb4dc804b0cac2e44cb98020a205b7bd6239adce5099f63d04a283f747c91d",
    ("sweedler-H4", "galois"):
        "969322614a2ddc2d1ab3a24d4321d4faa4e0a5ca1753ea27a24731c7f214debb",
    ("sweedler-H4", "theorem --id 4.3"):
        "628fc3b19c2985329f112ca0a60c56b6075f9d11b64c86d220047b843e6035d7",
    ("sweedler-H4", "theorem --id 4.8"):
        "d73ee05cc41880c86e7875b9c1be3cabd95df0dd6c526285bfb435d4437db3f4",
    ("sweedler-H4", "theorem --id 5.6"):
        "263600ba112c406919500da6ca4027ee203cdac6693a909688732112688fc788",
    ("sweedler-H4", "theorem --id 5.7"):
        "0a924ada3840112901a49ce46529bbae4c7654ada0c9dbe085c05c1ce51a52e9",
    ("sweedler-H4", "theorem --id 5.8"):
        "e79f478809b9022f3c17a21bf028b8039f63a266c43cfe23f534337b7b0b5e7a",
    ("trivial-k-over-H4", "check"):
        "5ee3d0d57afb9aa1f3e00d2635c7bc1f522375237d34180d6ac8476ccfd88c9c",
    ("trivial-k-over-H4", "integral"):
        "2461401ae63f31304396bce88f12334d8d3d5c416f675c325e7e3bc111071054",
    ("trivial-k-over-H4", "integral --quantum"):
        "6584a0023740a8168c5e7d2becbfbb7e3c592f7440622ddd28986b3507d3a9a5",
    ("trivial-k-over-H4", "integral --quantum --total"):
        "2e756418b1f7cea2ee2153d7f8ff1f3d135aa76ae634dd3bc7cf9b35adbe478b",
    ("trivial-k-over-H4", "galois"):
        "3840d1e5449428b0f353895e6502f2418e7de08fafcb9b23200526ab0c344050",
    ("trivial-k-over-H4", "theorem --id 4.3"):
        "5a1807dbe0e8f873915787b8b69b37304e23e87802a9b5c9bd525227a61040ca",
    ("trivial-k-over-H4", "theorem --id 4.8"):
        "ca7d62b1d09c2b2423bcf09bb7bb4d767f222552d66e6b9edae3b615c7902100",
    ("trivial-k-over-H4", "theorem --id 5.6"):
        "981a5bc1d4c061b3cc133fa6bc71c1abee99c0ddcfc77745d7458bcee3dda5dd",
    ("trivial-k-over-H4", "theorem --id 5.7"):
        "8aa6b4e9275878d28fabf9c168729967288c327526152933ca3a697e6fe92628",
    ("trivial-k-over-kC2", "check"):
        "a2713219421cbb838ed27621400b1b536a215d083ae8a3b89251dfcc8c606d9c",
    ("trivial-k-over-kC2", "integral"):
        "730a9eabd19cc24b28b7b9adedd57679384f8e575c5a2daa151186f1eb12f4c8",
    ("trivial-k-over-kC2", "integral --quantum"):
        "8a11d4f9e46284d5dc8439a3519bb8acd77410f9aef1d6f19c92bc5ac3070df5",
    ("trivial-k-over-kC2", "integral --quantum --total"):
        "8293d736380f0acb19bf4d4535b09b52beb80dd6f5a842da558f6951a78b9225",
    ("trivial-k-over-kC2", "galois"):
        "23668133b0957cf993b949fbd5768be95f2aab73bdbc633c47086dc8c6ed4137",
    ("trivial-k-over-kC2", "theorem --id 4.3"):
        "be6ca0e54cb57161b6310ad07b956c0d7cd232e863eab96deede4f946ef14998",
    ("trivial-k-over-kC2", "theorem --id 4.8"):
        "d73ee05cc41880c86e7875b9c1be3cabd95df0dd6c526285bfb435d4437db3f4",
    ("trivial-k-over-kC2", "theorem --id 5.6"):
        "263600ba112c406919500da6ca4027ee203cdac6693a909688732112688fc788",
    ("trivial-k-over-kC2", "theorem --id 5.7"):
        "dc6d3063b3b092d4b85c3e34c3f918f3d66d71d8f53a12ab174f7480b24a85d7",
}

_NOT_REGULAR = ("error: modules.A: corollary 5.8 needs modules over H "
                "coacting on itself, but this module lives over the file's "
                "comodule algebra\n")

GOLDEN_REFUSALS = {
    ("kG-C2-datum", "theorem --id 5.8"): _NOT_REGULAR,
    ("trivial-k-over-H4", "theorem --id 5.8"): _NOT_REGULAR,
    ("trivial-k-over-kC2", "theorem --id 5.8"): _NOT_REGULAR,
    ("matrix-datum-2", "integral --quantum"):
        "error: hopf.antipode: integral --quantum needs a bijective antipode\n",
    ("matrix-datum-2", "integral --quantum --total"):
        "error: hopf.antipode: integral --quantum needs a bijective antipode\n",
}
GOLDEN_REFUSALS.update({
    ("matrix-datum-2", f"theorem --id {t}"):
        f"error: hopf.antipode: theorem {t} needs a bijective antipode\n"
    for t in ("4.8", "5.6", "5.7", "5.8")})


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture(scope="module")
def catalog_files(tmp_path_factory):
    folder = tmp_path_factory.mktemp("catalog")
    for name in names():
        (folder / f"{name}.json").write_text(emit_instance(entry(name)))
    return folder


def test_golden_reports_cover_every_entry_and_subcommand():
    cells = {(n, c) for n in names() for c in GOLDEN_SUBCOMMANDS}
    assert not set(GOLDEN_STDOUT_SHA256) & set(GOLDEN_REFUSALS)
    assert set(GOLDEN_STDOUT_SHA256) | set(GOLDEN_REFUSALS) == cells


@pytest.mark.parametrize("name", names())
@pytest.mark.parametrize("subcommand", GOLDEN_SUBCOMMANDS)
def test_report_is_byte_identical_to_golden(capsys, catalog_files, name,
                                            subcommand):
    command, *flags = subcommand.split()
    argv = ([command, *flags, str(catalog_files / f"{name}.json")]
            if command == "theorem" else
            [command, str(catalog_files / f"{name}.json"), *flags])
    code, out, err = run(capsys, *argv)
    if (name, subcommand) in GOLDEN_REFUSALS:
        assert (code, out, err) == (2, "", GOLDEN_REFUSALS[name, subcommand])
        return
    assert (code, err) == (0, "")
    assert _sha256(_without_wall_time(out)) == \
        GOLDEN_STDOUT_SHA256[name, subcommand]


@pytest.mark.parametrize("name", ["kC2", "sweedler-H4", "kC3-twisted"])
@pytest.mark.parametrize("subcommand", [
    "check", "integral --quantum --total", "galois", "theorem --id 4.3",
    "theorem --id 4.8", "theorem --id 5.6", "theorem --id 5.7",
    "theorem --id 5.8"])
def test_a_file_without_a_comodule_algebra_block_is_h_over_itself(
        capsys, tmp_path, catalog_files, name, subcommand):
    # each of these entries is H coacting on itself, which is how a file
    # with no comodule_algebra block is read
    doc = json.loads(emit_instance(entry(name)))
    del doc["comodule_algebra"]
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    reports = []
    for file in (catalog_files / f"{name}.json", path):
        command, *flags = subcommand.split()
        code, out, err = run(capsys, command, *flags, str(file))
        reports.append((code, _without_wall_time(out), err))
    assert reports[0][0] == 0, reports[0][2]
    assert reports[0] == reports[1]


# check on the benchmark's seed-1 change of basis, whose constants are dense
# non-integer rationals (14-15 nonzeros per column of Delta and rho), and on
# a copy of the H4 file with 1 added to comodule_algebra.coaction[0][0]:
# (exit code, sha256 of stdout without wall-time:)
GOLDEN_DENSE_CHECK = {
    "sweedler-H4-rebased.json": (
        0, "f0a4027c37fbe89b4fd818b901099c91443af21ec0402855bfada806885eedbe"),
    "kC4-rebased.json": (
        0, "9e4a0b980f835a1d2fda87972edc18098cf0cb6ac4441da98be01717510368ff"),
    "sweedler-H4-bad-coaction.json": (
        1, "0571fd2b8a7a0d762f09f16f095e2ebc405969d645c6c68cd5ad8c88ee99eae3"),
}


@pytest.fixture(scope="module")
def dense_files(tmp_path_factory):
    folder = tmp_path_factory.mktemp("dense")
    subprocess.run([sys.executable, str(SRC.parent / "verdictbench" /
                                        "make_inputs.py"),
                    "--seed", "1", "--out", str(folder),
                    "sweedler-H4-rebased.json", "kC4-rebased.json"],
                   env=dict(os.environ, PYTHONPATH=str(SRC)), check=True,
                   capture_output=True, timeout=60)
    doc = json.loads((folder / "sweedler-H4-rebased.json").read_text())
    coaction = doc["comodule_algebra"]["coaction"]
    coaction[0][0] = str(Fraction(coaction[0][0]) + 1)
    (folder / "sweedler-H4-bad-coaction.json").write_text(json.dumps(doc))
    return folder


@pytest.mark.parametrize("name", list(GOLDEN_DENSE_CHECK))
def test_check_on_dense_constants_is_byte_identical_to_golden(
        capsys, dense_files, name):
    code, out, err = run(capsys, "check", str(dense_files / name))
    assert err == ""
    assert (code, _sha256(_without_wall_time(out))) == GOLDEN_DENSE_CHECK[name]


def test_dense_coaction_fault_fails_multiplicativity_with_a_witness(
        capsys, dense_files):
    code, out, _ = run(capsys, "check",
                       str(dense_files / "sweedler-H4-bad-coaction.json"))
    lines = out.splitlines()
    i = lines.index("  [FAIL] comodule algebra: multiplicativity: "
                    "rho(ab) = a0 b0 (x) a1 b1")
    assert code == 1
    assert lines[i + 1].startswith("         at 1, 1: ")
