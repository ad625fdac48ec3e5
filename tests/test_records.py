"""The record helper keeps the semantics the package relied on from
dataclasses: construction, defaults, __post_init__, class-strict ==,
frozen hashing and assignment, mutable reports, repr and replace."""

import pytest

from homhopf.catalog import entry
from homhopf.instance_io import ParsedInstance
from homhopf.linalg import LinearMap, space
from homhopf.records import field, record, replace
from homhopf.report import CheckResult, Report, Witness


def test_module_and_comodule_with_identical_fields_are_unequal():
    @record(frozen=True)
    class Module:
        space: object
        mu: object

    @record(frozen=True)
    class Comodule:
        space: object
        mu: object

    M = entry("kC2").modules["A"]
    fields = (M.space, M.mu)
    assert Module(*fields) == Module(*fields)
    assert Module(*fields) != Comodule(*fields)
    assert Module(*fields) != fields


def test_equal_frozen_records_hash_equally():
    sp = space("1", "g")
    a, b = LinearMap.identity(sp), LinearMap.identity(space("1", "g"))
    assert a is not b and a == b and hash(a) == hash(b)
    w = Witness(("g",), 1, 2)
    assert {w, Witness(basis=("g",), lhs=1, rhs=2)} == {w}
    assert Witness(("g",), 1, 2) != Witness(("g",), 1, 3)


def test_frozen_records_refuse_assignment_and_deletion():
    r = CheckResult("x", "pass")
    with pytest.raises(AttributeError):
        r.status = "fail"
    with pytest.raises(AttributeError):
        del r.name
    assert r.status == "pass"


def test_default_factories_give_each_record_its_own_container():
    a, b = Report("x"), Report("x")
    a.results.append(CheckResult("c", "pass"))
    a.certificates["k"] = 1
    assert b.results == [] and b.certificates == {}
    CA = entry("kC2").comodule_algebra
    p, q = ParsedInstance("n", "hopf", "d", CA), ParsedInstance("n", "hopf",
                                                                "d", CA)
    assert p.modules is not q.modules and p.expected is not q.expected


def test_reports_are_mutable_and_unhashable():
    rep = Report("x")
    rep.title = "y"
    assert rep == Report("y") and rep != Report("x")
    with pytest.raises(TypeError):
        hash(rep)


def test_linear_map_checks_its_column_count_when_built_and_replaced():
    sp = space("1", "g")
    with pytest.raises(ValueError):
        LinearMap(sp, sp, ((),))
    ident = LinearMap.identity(sp)
    with pytest.raises(ValueError):
        replace(ident, cols=((),))
    other = replace(ident, domain=space("a", "b"))
    assert other.cols == ident.cols and other.domain != ident.domain


def test_construction_by_position_and_keyword():
    r = CheckResult("c", "skipped", detail="why")
    assert (r.name, r.status, r.witness, r.detail) == ("c", "skipped", None,
                                                       "why")
    assert CheckResult(detail="why", status="skipped", name="c") == r
    for bad in (lambda: CheckResult("c"),
                lambda: CheckResult("c", "pass", None, None, "extra"),
                lambda: CheckResult("c", "pass", name="again"),
                lambda: CheckResult("c", "pass", colour="red"),
                lambda: replace(r, colour="red")):
        with pytest.raises(TypeError):
            bad()


def test_repr_names_the_fields_and_keeps_a_class_repr():
    assert repr(Witness(("g",), 1, 2)) == \
        "Witness(basis=('g',), lhs=1, rhs=2)"
    assert repr(LinearMap.identity(space("1", "g"))) == "LinearMap(2->2)"


def test_record_reads_only_the_class_own_annotations():
    @record
    class Pair:
        left: int
        right: list = field(default_factory=list)
        total = 0                      # not annotated: a class attribute

    p = Pair(1)
    assert p.right == [] and Pair.total == 0 and Pair._fields == ("left",
                                                                 "right")
    assert not hasattr(Pair, "right")
