"""Axiom checks for Hom-algebras, Hom-coalgebras, Hom-Hopf algebras,
and Hom-comodule algebras on the built-in instances."""

import pytest

from homhopf import structures
from homhopf.catalog import (cyclic_group_hopf, entry, matrix_coalgebra,
                             names, sweedler_hopf, twisted_cyclic3)
from homhopf.cli import main
from homhopf.errors import NotAutomorphism
from homhopf.instance_io import emit_instance
from homhopf.linalg import LinearMap, span
from homhopf.structures import (algebra_generators, check_comodule_algebra,
                                check_hom_algebra, check_hom_coalgebra,
                                check_hom_hopf, regular_comodule_algebra,
                                twist)
from homhopf.verify import check_identity


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
    C = matrix_coalgebra(2)
    assert check_hom_coalgebra(C).ok


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
    (["check", "{}"], 2), (["theorem", "--id", "4.8", "{}"], 1)])
def test_an_algebra_object_decides_its_axioms_once(monkeypatch, tmp_path,
                                                   capsys, argv, decided):
    """On the emitted sweedler-H4, check decides Hom-associativity for H's
    algebra and for A; check_hom_module's gate for G(A) reads A's kept
    report.  theorem 4.8 decides it for A once, for both of its probes
    (3 and 2 before the report was kept on the algebra object)."""
    path = tmp_path / "sweedler-H4.json"
    path.write_text(emit_instance(entry("sweedler-H4")))
    names_ = []

    def recording(report, name, *rest):
        names_.append(name)
        return check_identity(report, name, *rest)

    monkeypatch.setattr(structures, "check_identity", recording)
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
