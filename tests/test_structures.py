"""Axiom checks for Hom-algebras, Hom-coalgebras, Hom-Hopf algebras,
and Hom-comodule algebras on the built-in instances."""

from fractions import Fraction

import pytest

from homhopf import modules, structures
from homhopf.catalog import (cyclic_group_hopf, entry, matrix_datum, names,
                             sweedler_hopf, twisted_cyclic3)
from homhopf.cli import main
from homhopf.errors import NotAutomorphism
from homhopf.instance_io import ParsedInstance, emit_instance, load_instance
from homhopf.linalg import LinearMap, span, tensor_after
from homhopf.modules import regular_rel_hopf
from homhopf.records import replace
from homhopf.report import Report
from homhopf.structures import (algebra_generators, check_comodule_algebra,
                                check_hom_algebra, check_hom_coalgebra,
                                check_hom_hopf, regular_comodule_algebra,
                                twist)
from homhopf.verify import check_identity, check_maps

from conftest import _seam
from test_modules import _seed1


@pytest.mark.parametrize("name", names())
def test_catalog_entry_passes_all_structural_checks(name):
    rep = entry(name).validate()
    assert rep.ok, rep.pretty()


def test_sweedler_is_noncommutative_and_noncocommutative():
    m = sweedler_hopf().algebra.mult
    g, x = 1, 2
    # the columns of g (x) x and x (x) g, i.e. gx and xg = -gx
    assert m.cols[g * 4 + x] != m.cols[x * 4 + g]


def test_twisted_cyclic3_has_nontrivial_alpha():
    H = twisted_cyclic3()
    assert not H.algebra.alpha.is_identity()
    assert check_hom_hopf(H).ok


@pytest.mark.parametrize("lam", [2, -1, 3])
def test_twist_of_h4_by_a_scaling_of_x_is_a_hom_hopf_algebra(lam):
    """x -> lam x is a Hopf automorphism of H4; for lam = 2 or 3 the twist's
    alpha has infinite order, so (gamma^{-1} x Delta)Delta = (Delta x
    gamma^{-1})Delta and the variant with gamma on the right differ."""
    H = sweedler_hopf()
    aut = LinearMap.from_rows(H.space, H.space, [
        [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, lam, 0], [0, 0, 0, lam]])
    T = twist(H, aut)
    rep = check_hom_hopf(T)
    assert rep.ok, rep.pretty()
    assert check_comodule_algebra(regular_comodule_algebra(T)).ok


def test_twist_rejects_non_automorphism():
    H = cyclic_group_hopf(2)
    bad = LinearMap.from_rows(H.space, H.space, [[1, 1], [0, 1]])
    with pytest.raises(NotAutomorphism):
        twist(H, bad)


def test_corrupted_antipode_fails_exactly_one_check():
    from homhopf.records import replace
    H = cyclic_group_hopf(2)
    rows = [list(r) for r in H.antipode.matrix]
    rows[0][1] += 1
    bad = replace(H, antipode=LinearMap.from_rows(H.space, H.space, rows))
    rep = check_hom_hopf(bad)
    assert len(rep.failures) == 1
    assert rep.failures[0].witness is not None


def test_matrix_coalgebra_axioms():
    assert check_hom_coalgebra(matrix_datum(2).hopf).ok


def test_regular_comodule_algebra_checks():
    for hopf in (cyclic_group_hopf(3), sweedler_hopf(), twisted_cyclic3()):
        CA = regular_comodule_algebra(hopf)
        assert check_comodule_algebra(CA).ok


def test_broken_coaction_is_reported_with_witness():
    H = cyclic_group_hopf(2)
    CA = regular_comodule_algebra(H)
    from homhopf.records import replace
    rows = [list(r) for r in CA.coaction.matrix]
    rows[0][1] += 1
    bad = replace(CA, coaction=LinearMap.from_rows(CA.space,
                                                   CA.coaction.codomain, rows))
    rep = check_comodule_algebra(bad)
    assert not rep.ok
    assert any(f.witness is not None for f in rep.failures)


def test_hom_algebra_checker_sees_broken_associativity():
    H = twisted_cyclic3()
    from homhopf.records import replace
    rows = [list(r) for r in H.algebra.mult.matrix]
    rows[0][4] += 1
    bad = replace(H.algebra, mult=LinearMap.from_rows(H.algebra.mult.domain,
                                                      H.space, rows))
    assert not check_hom_algebra(bad).ok


def test_kc12_axiom_checks_build_no_wide_tensor(monkeypatch):
    # the composites avoid materialising maps like m (x) m on H^4
    widest = []
    original = LinearMap.tensor

    def recording(self, other):
        out = original(self, other)
        widest.append(out.domain.dim)
        return out

    monkeypatch.setattr(LinearMap, "tensor", recording)
    CA = regular_comodule_algebra(cyclic_group_hopf(12))
    assert check_hom_hopf(CA.hopf).ok
    assert check_comodule_algebra(CA).ok
    assert widest and max(widest) <= 12 ** 3


HOM_ASSOCIATIVITY = "Hom-associativity: alpha(a)(bc) = (ab)alpha(c)"


@pytest.mark.parametrize("argv, decided", [
    (["check", "{}"], 1), (["theorem", "--id", "4.8", "{}"], 1)])
def test_an_algebra_object_decides_its_axioms_once(monkeypatch, tmp_path,
                                                   capsys, argv, decided):
    """On the emitted sweedler-H4, whose comodule algebra block spells H's
    algebra, the parser shares that one algebra object, so check decides
    Hom-associativity once (twice when H and A were two objects);
    check_hom_module's gate for G(A) reads the kept report.  theorem 4.8
    decides it for A once, for both of its probes (3 and 2 before the
    report was kept on the algebra object)."""
    path = tmp_path / "sweedler-H4.json"
    path.write_text(emit_instance(entry("sweedler-H4")))
    names_ = []

    def recording(report, name, *rest, **reduced):
        names_.append(name)
        return check_maps(report, name, *rest, **reduced)

    monkeypatch.setattr(structures, "check_maps", recording)
    assert main([word.format(path) for word in argv]) == 0
    capsys.readouterr()
    assert names_.count(HOM_ASSOCIATIVITY) == decided


def test_algebra_generators_are_found_once_per_algebra_object(monkeypatch):
    spans = []
    monkeypatch.setattr(structures, "span",
                        lambda *a: spans.append(1) or span(*a))
    A, B = sweedler_hopf().algebra, sweedler_hopf().algebra
    assert algebra_generators(A) == algebra_generators(A) == (1, 2)
    once = len(spans)
    assert once and algebra_generators(B) == (1, 2)
    assert len(spans) == 2 * once


def test_algebra_generators_stop_once_their_span_is_A(monkeypatch):
    """On kC12 the closure of g is all of A: no span call follows it."""
    dims = []

    def recording(*args):
        sub = span(*args)
        dims.append(sub.dim)
        return sub

    monkeypatch.setattr(structures, "span", recording)
    assert algebra_generators(cyclic_group_hopf(12).algebra) == (1,)
    assert dims[-1] == 12 and 12 not in dims[:-1]


# (Hopf algebra's, comodule algebra's) generators, as found before the loop
# stopped early: catalog entries, then the seed-1 rebased files
GENERATORS = {
    "kC2": ((1,), (1,)), "kC3": ((1,), (1,)), "kC3-twisted": ((1,), (1,)),
    "kG-C2-datum": ((1,), ()), "matrix-datum-2": ((0, 1, 2), ()),
    "sweedler-H4": ((1, 2), (1, 2)), "trivial-k-over-H4": ((1, 2), ()),
    "trivial-k-over-kC2": ((1,), ()),
    "kC3-rebased.json": ((0,), (0,)), "kC4-rebased.json": ((0,), (0,)),
    "sweedler-H4-rebased.json": ((0, 1, 2), (0, 1, 2)),
    "kC3-twisted-rebased.json": ((0,), (0,)),
    "trivial-k-over-H4-rebased.json": ((0, 1, 2), ()),
}


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_algebra_generators_are_unchanged(name, seed1_rebased):
    inst = (load_instance(str(seed1_rebased / name)) if name.endswith(".json")
            else entry(name))
    # fresh copies, which keep no generators from an earlier call
    H, A = (replace(inst.hopf.algebra),
            replace(inst.comodule_algebra.algebra))
    assert (algebra_generators(H), algebra_generators(A)) == GENERATORS[name]


# ---------------------------------------------------------------------------
# Hom-associativity decided on algebra generators
# ---------------------------------------------------------------------------

def _full_hom_algebra(A) -> Report:
    """check_hom_algebra as it reads with no reduction: Hom-associativity
    as one identity on the whole of A (x) A (x) A."""
    rep = Report(f"Hom-algebra axioms on {A.space.labels}")
    sp, m, al = A.space, A.mult, A.alpha
    ida = LinearMap.identity(sp)
    check_maps(rep, "alpha invertible", [(al @ A.alpha_inv, ida)])
    check_identity(rep, "alpha multiplicative: alpha(ab) = alpha(a)alpha(b)",
                   [sp, sp], sp, al @ m, m @ al.tensor(al))
    check_maps(rep, "alpha(1) = 1", [(al @ A.unit, A.unit)])
    check_identity(rep, HOM_ASSOCIATIVITY, [sp, sp, sp], sp,
                   m @ al.tensor(m), m @ m.tensor(al))
    check_identity(rep, "unit law: a·1 = alpha(a)", [sp], sp,
                   m @ tensor_after(ida, A.unit, ida), al)
    check_identity(rep, "unit law: 1·a = alpha(a)", [sp], sp,
                   m @ tensor_after(A.unit, ida, ida), al)
    return rep


def _assert_algebra_same_as_full(A) -> Report:
    rep = check_hom_algebra(A)
    assert rep.to_dict() == _full_hom_algebra(A).to_dict()
    return rep


def _lam_twist(lam):
    """T(lam): H4 twisted by x -> lam x, whose alpha has infinite order
    for lam = 2, 3 and 1/2."""
    H = sweedler_hopf()
    return twist(H, LinearMap.from_rows(H.space, H.space, [
        [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, lam, 0], [0, 0, 0, lam]]))


@pytest.mark.parametrize("name", names())
def test_reduced_hom_associativity_matches_full_on_catalog(name):
    inst = entry(name)
    for A in {id(a): a for a in (inst.hopf.algebra,
                                 inst.comodule_algebra.algebra)}.values():
        _assert_algebra_same_as_full(replace(A))


@pytest.mark.parametrize("n", range(1, 13))
def test_reduced_hom_associativity_matches_full_on_kcn(n):
    assert _assert_algebra_same_as_full(cyclic_group_hopf(n).algebra).ok


@pytest.mark.parametrize("lam", [2, 3, -1, Fraction(1, 2)])
def test_reduced_hom_associativity_matches_full_on_twisted_h4(lam):
    assert _assert_algebra_same_as_full(_lam_twist(lam).algebra).ok


@pytest.mark.parametrize("hopf", [cyclic_group_hopf(4), cyclic_group_hopf(12),
                                  sweedler_hopf()], ids=["kC4", "kC12", "H4"])
def test_corrupted_mult_gives_the_full_report(hopf):
    """1 added to every seventh constant of the mult, in row-major order;
    for kC12 some keep the other five axioms, so the reduced identity
    fails and the blocks give the witness."""
    A = hopf.algebra
    cols, failed = A.mult.cols, 0
    for k in range(0, A.dim * len(cols), 7):
        i, j = divmod(k, len(cols))
        col = dict(cols[j])
        col[i] = col.get(i, 0) + 1
        bad = cols[:j] + (tuple(sorted((r, c) for r, c in col.items() if c)),) \
            + cols[j + 1:]
        rep = _assert_algebra_same_as_full(replace(A, mult=LinearMap(
            A.mult.domain, A.space, bad)))
        failed += rep.results[3].status == "fail"
    assert failed


def test_kc12_check_and_thm48_build_no_cube(monkeypatch, tmp_path, capsys):
    """kC12 with its regular module, as the benchmark's kC12.json: neither
    check nor theorem 4.8 checks an identity on 12 x 12 x 12 columns."""
    CA = regular_comodule_algebra(cyclic_group_hopf(12))
    path = tmp_path / "kC12.json"
    path.write_text(emit_instance(ParsedInstance(
        "kC12", "hopf", "", CA, {"A": regular_rel_hopf(CA)}, {})))
    calls = _seam(monkeypatch, structures, modules)
    for argv in (["check"], ["theorem", "--id", "4.8"]):
        assert main(argv + [str(path)]) == 0
    capsys.readouterr()
    dims = [c[:2] for c in calls]
    assert (HOM_ASSOCIATIVITY, (12, 12, 1)) in dims
    assert not [c for c in dims if c[1] == (12, 12, 12)]


def test_a_corrupted_kc12_stops_at_its_second_block(monkeypatch):
    """The benchmark's kC12-bad-mult.json (seed 1): the unit laws hold, the
    identity on A (x) A (x) span(g) fails, and the whole identity stops at
    block g, the second, with the whole map's witness."""
    A = _seed1("kC12-bad-mult.json").hopf.algebra
    calls = _seam(monkeypatch, structures, modules)
    rep = _assert_algebra_same_as_full(A)
    assert [c[1:3] for c in calls if c[0] == HOM_ASSOCIATIVITY] == [
        ((12, 12, 1), False), ((1, 12, 12), True), ((1, 12, 12), False)]
    assert rep.results[3].witness.basis[0] == "g"
