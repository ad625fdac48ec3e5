"""Coinvariants, balanced tensors, the canonical Galois map, and the
affineness criterion."""

import pytest

import homhopf.integrals as integrals
import homhopf.linalg as linalg
from homhopf.catalog import cyclic_group_hopf, entry, names, sweedler_hopf
from homhopf.errors import StructureDoesNotDescend
from homhopf.galois import (balanced_tensor_AA, beta_evaluation,
                            canonical_psi, coinvariant_module, coinvariants,
                            cor58_check, descend_linear, descend_module,
                            free_module, galois_xi, induction, prop51_check,
                            quantum_trace_left, regular_induced,
                            thm56_adjunction, thm56_check, thm57_check,
                            xi_source_module)
from homhopf.integrals import QuantumIntegral, find_quantum_integral
from homhopf.linalg import (LinearMap, kernel_basis, rank, span, swap_map,
                            tensor_after, tensor_space)
from homhopf.modules import (HomModule, RelHopfModule, check_rel_hopf,
                             is_morphism, regular_rel_hopf)
from homhopf.records import replace
from homhopf.structures import ComoduleAlgebra

from test_integral_systems import _rebased

HOPF_ENTRIES = [n for n in names()
                if entry(n).kind == "hopf"
                and entry(n).hopf.antipode_inv is not None]


@pytest.mark.parametrize("name", names())
def test_coinvariant_dimension_matches_expected(name):
    e = entry(name)
    if "coinvariant_dim" not in e.expected:
        pytest.skip("no expectation recorded")
    B = coinvariants(e.comodule_algebra)
    assert B.dim == e.expected["coinvariant_dim"]
    # B contains the unit and is closed under multiplication
    assert B.subspace.coordinates(e.comodule_algebra.algebra.unit,
                                  B.algebra.space) is not None


@pytest.mark.parametrize("name", names())
def test_galois_classification_matches_expected(name):
    e = entry(name)
    if "galois" not in e.expected:
        pytest.skip("no expectation recorded")
    CA = e.comodule_algebra
    B = coinvariants(CA)
    bt, aa_mod = balanced_tensor_AA(CA, B)
    assert check_rel_hopf(aa_mod).ok
    gal = canonical_psi(CA, bt)
    assert gal.classification == e.expected["galois"]
    # rank-nullity from the kernel, which eliminates the rows of psi where
    # rank eliminates its columns
    assert gal.psi.domain.dim - len(kernel_basis(gal.psi)) == gal.rank


def test_galois_ranks_on_the_classical_instances():
    for name, want in (("kC2", 4), ("sweedler-H4", 16)):
        CA = entry(name).comodule_algebra
        B = coinvariants(CA)
        bt, _ = balanced_tensor_AA(CA, B)
        gal = canonical_psi(CA, bt)
        assert gal.classification == "bijective" and gal.rank == want


def test_trivial_coaction_is_not_surjective():
    CA = entry("trivial-k-over-kC2").comodule_algebra
    B = coinvariants(CA)
    bt, _ = balanced_tensor_AA(CA, B)
    assert bt.dim == 1
    gal = canonical_psi(CA, bt)
    assert not gal.surjective


@pytest.mark.parametrize("name", HOPF_ENTRIES)
def test_balanced_square_dimension_over_scalar_coinvariants(name):
    CA = entry(name).comodule_algebra
    B = coinvariants(CA)
    bt, _ = balanced_tensor_AA(CA, B)
    if B.dim == 1:
        assert bt.dim == CA.algebra.dim ** 2


@pytest.mark.parametrize("name", HOPF_ENTRIES)
def test_xi_is_a_relative_morphism(name):
    CA = entry(name).comodule_algebra
    assert is_morphism(galois_xi(CA), xi_source_module(CA),
                       regular_induced(CA))


@pytest.mark.parametrize("name", HOPF_ENTRIES)
def test_induction_of_the_free_module_recovers_A(name):
    CA = entry(name).comodule_algebra
    B = coinvariants(CA)
    bt, ind = induction(free_module(B, 1), B)
    assert check_rel_hopf(ind).ok
    assert ind.dim == CA.algebra.dim * B.dim
    bt2, ind2 = induction(free_module(B, 2), B)
    assert ind2.dim == 2 * ind.dim


@pytest.mark.parametrize("name", HOPF_ENTRIES)
def test_thm56_adjunction_unit(name):
    rep = thm56_check(entry(name).comodule_algebra)
    assert rep.ok, rep.pretty()


@pytest.mark.parametrize("name", HOPF_ENTRIES)
def test_prop51_retractions_and_traces(name):
    CA = entry(name).comodule_algebra
    gamma = find_quantum_integral(CA, require_total=True)
    if not isinstance(gamma, QuantumIntegral):
        pytest.skip("no total quantum integral")
    rep = prop51_check(CA, gamma)
    assert rep.ok, rep.pretty()


@pytest.mark.parametrize("name", HOPF_ENTRIES)
def test_thm57_affineness(name):
    e = entry(name)
    rep = thm57_check(e.comodule_algebra)
    assert rep.ok, rep.pretty()
    if e.expected.get("total_quantum_integral") and \
            e.expected.get("galois") == "bijective":
        assert rep.certificates["equivalence"] is True
    if e.expected.get("galois") == "neither":
        assert rep.certificates["equivalence"] is None


def test_thm57_beta_evaluation_on_induced_module():
    CA = entry("kC2").comodule_algebra
    B = coinvariants(CA)
    M = regular_induced(CA)
    bt, beta_m = beta_evaluation(M, B)
    assert rank(beta_m) == M.dim == bt.dim


def test_a_module_without_coinvariants_has_the_zero_coinvariant_module():
    """k.m over A = k coacted on trivially by kC2, with rho(m) = m (x) g and
    m.1 = m, is a relative Hopf module whose coinvariants are 0: the zero
    B-module, and beta_M the map 0 -> M."""
    CA = entry("trivial-k-over-kC2").comodule_algebra
    sp = linalg.space("m")
    one = LinearMap.identity(sp)
    act = LinearMap(tensor_space(sp, CA.space), sp, (((0, 1),),))
    rho = LinearMap(sp, tensor_space(sp, CA.hopf.space), (((1, 1),),))
    assert CA.hopf.space.labels[1] == "g"
    M = RelHopfModule(sp, one, one, act, rho, CA)
    assert check_rel_hopf(M).ok
    B = coinvariants(CA)
    N, sub = coinvariant_module(M, B)
    assert N.dim == sub.dim == 0 and N.over is B.algebra
    bt, beta_m = beta_evaluation(M, B)
    assert bt.dim == 0 and beta_m.domain == bt.space
    assert beta_m.codomain.dim == M.dim == 1 and rank(beta_m) == 0


@pytest.mark.parametrize("name", ["kC2", "kC3-twisted", "sweedler-H4"])
def test_cor58_regular_coaction(name):
    rep = cor58_check(entry(name).hopf)
    assert rep.ok, rep.pretty()


def test_quantum_trace_fixes_the_unit():
    CA = entry("kC3").comodule_algebra
    gamma = find_quantum_integral(CA, require_total=True)
    tl = quantum_trace_left(CA, gamma)
    assert (tl @ CA.algebra.unit).same_matrix(CA.algebra.unit)


@pytest.mark.parametrize("rebased", [False, True], ids=["catalog", "rebased"])
def test_left_quantum_trace_projects_onto_B_for_every_total_integral(rebased):
    """t^l lands in B, fixes B and is idempotent for the solver's gamma and
    for gamma +- each kernel vector, in the catalog basis of kC3-twisted and
    after a change of basis with non-integer constants."""
    CA = entry("kC3-twisted").comodule_algebra
    if rebased:
        CA = _rebased(CA)
    gamma = find_quantum_integral(CA, require_total=True)
    B = coinvariants(CA)
    gammas = [gamma.gamma_hat]
    for k in gamma.solution_family:
        gammas += [gamma.gamma_hat + k, gamma.gamma_hat - k]
    assert len(gammas) > 1
    for gh in gammas:
        tl = quantum_trace_left(CA, QuantumIntegral(gh, True, ()))
        assert B.subspace.coordinates(tl, B.algebra.space) is not None
        assert (tl @ B.embed).same_matrix(B.embed)
        assert (tl @ tl).same_matrix(tl)


# ---------------------------------------------------------------------------
# Nonzero balancing relations: H coacting trivially on itself, so B = A
# ---------------------------------------------------------------------------

TRIVIAL = {"kC2": lambda: cyclic_group_hopf(2),
           "kC3": lambda: cyclic_group_hopf(3),
           "sweedler-H4": sweedler_hopf}


def _trivial_coaction(name: str) -> ComoduleAlgebra:
    """a -> a (x) 1_H, a Hom-comodule algebra since alpha = id."""
    H = TRIVIAL[name]()
    ida = LinearMap.identity(H.space)
    return ComoduleAlgebra(H.algebra, H,
                           tensor_after(ida, H.algebra.unit, ida))


@pytest.mark.parametrize("name", HOPF_ENTRIES
                         + [f"{n}-over-itself" for n in TRIVIAL])
def test_xi_is_psi_after_flip_and_kills_relations(name):
    """On the catalog, where B = k and every relation is zero, and on H
    coacting trivially on itself, where B = A and the relations are not."""
    over_itself = name.endswith("-over-itself")
    CA = (_trivial_coaction(name.removesuffix("-over-itself")) if over_itself
          else entry(name).comodule_algebra)
    from homhopf.galois import galois_psi_ambient
    A = CA.algebra
    xi = galois_xi(CA)
    psi_t = galois_psi_ambient(CA)
    tau = swap_map(A.space, A.space)
    assert xi.same_matrix(psi_t @ tau)
    B = coinvariants(CA)
    bt, _ = balanced_tensor_AA(CA, B)
    if over_itself:
        assert bt.relations.basis, "B = A should have nonzero relations"
    assert (psi_t @ bt.rel).same_matrix(
        LinearMap.zero(bt.rel.domain, psi_t.codomain))


def _kron(x, y):
    return tuple(a * b for a in x for b in y)


def _basis(n, i):
    return tuple(int(k == i) for k in range(n))


def _apply(f, v):
    """f applied to the dense vector v, through f's dense rows."""
    return tuple(sum(a * x for a, x in zip(row, v)) for row in f.matrix)


def _reference_relations(N, B):
    """The relations (n.b) (x) a - nu(n) (x) b beta^{-1}(a) of N (x)_B A
    as sparse columns, one per basis triple (n, b, a) with n outermost, b
    running over B's basis (inside A on the right), zeros dropped."""
    A = B.of.algebra
    out = []
    for i in range(N.dim):
        n = _basis(N.dim, i)
        for bj in range(B.dim):
            nb = _apply(N.action, _kron(n, _basis(B.dim, bj)))
            b = _apply(B.embed, _basis(B.dim, bj))
            for j in range(A.dim):
                a = _basis(A.dim, j)
                ba = _apply(A.mult, _kron(b, _apply(A.alpha_inv, a)))
                rel = tuple(x - y for x, y in zip(
                    _kron(nb, a), _kron(_apply(N.mu, n), ba)))
                if any(rel):
                    out.append(tuple((k, linalg.frac(x))
                                     for k, x in enumerate(rel) if x))
    return out


def _assert_relations(bt, ref):
    assert [col for col in bt.rel.cols if col] == ref
    assert ref, "the relations should not all be zero"
    ambient = bt.rel.codomain
    assert bt.relations.basis == span(ambient, ref).basis
    assert bt.dim == ambient.dim - len(bt.relations.basis)


@pytest.mark.parametrize("name", TRIVIAL)
def test_balanced_square_over_B_equal_to_A_matches_the_reference(name):
    CA = _trivial_coaction(name)
    A = CA.algebra
    B = coinvariants(CA)
    assert B.dim == A.dim
    bt, module = balanced_tensor_AA(CA, B)
    # A as a right B-module: a.b = ab, with b read inside A
    A_over_B = HomModule(A.space, A.alpha, A.alpha_inv,
                         A.mult @ LinearMap.identity(A.space).tensor(B.embed),
                         B.algebra)
    _assert_relations(bt, _reference_relations(A_over_B, B))
    # A (x)_A A = A
    assert bt.dim == A.dim
    assert check_rel_hopf(module).ok


@pytest.mark.parametrize("name", TRIVIAL)
def test_induction_over_B_equal_to_A_matches_the_reference(name):
    """N (x)_B A for N = B^2, with N's right B-action on the left factor."""
    CA = _trivial_coaction(name)
    B = coinvariants(CA)
    N = free_module(B, 2)
    bt, _ = induction(N, B)
    _assert_relations(bt, _reference_relations(N, B))


@pytest.mark.parametrize("name", TRIVIAL)
@pytest.mark.parametrize("copies", [1, 2])
def test_induction_over_B_equal_to_A_has_dim_A_times_copies(name, copies):
    """B^n (x)_B A = A^n: dim 4n for H4, where reading B^n's right
    B-action as a left one gave half that."""
    CA = _trivial_coaction(name)
    B = coinvariants(CA)
    _, ind = induction(free_module(B, copies), B)
    assert ind.dim == copies * CA.algebra.dim
    assert check_rel_hopf(ind).ok


@pytest.mark.parametrize("name", TRIVIAL)
def test_beta_evaluation_over_B_equal_to_A_matches_the_reference(name):
    CA = _trivial_coaction(name)
    B = coinvariants(CA)
    M = regular_rel_hopf(CA)
    bt, beta_m = beta_evaluation(M, B)
    # every m is coinvariant, so M^{coH} = M in its own basis and its
    # B-action is M's action
    standard = tuple(((i, 1),) for i in range(M.dim))
    assert coinvariant_module(M, B)[1].basis == standard
    _assert_relations(bt, _reference_relations(HomModule(
        M.space, M.mu, M.mu_inv,
        M.action @ LinearMap.identity(M.space).tensor(B.embed), B.algebra), B))
    # M^{coH} (x)_B A = A (x)_A A = A, and beta_M is onto
    assert rank(beta_m) == M.dim == bt.dim


@pytest.mark.parametrize("name", ["kC2", "kC3"])
def test_adjunction_and_trace_projections_over_B_equal_to_A(name):
    CA = _trivial_coaction(name)
    gamma = find_quantum_integral(CA, require_total=True)
    assert isinstance(gamma, QuantumIntegral)
    rep = prop51_check(CA, gamma)
    assert rep.ok, rep.pretty()
    rep = thm56_check(CA)
    assert rep.ok, rep.pretty()


def _square_ambient(CA):
    """A (x) A with the structures balanced_tensor_AA descends:
    (a (x) b).a' = beta(a) (x) b beta^{-1}(a'),
    rho(a (x) b) = (beta^{-1}(a) (x) b0) (x) alpha(b1), mu = beta (x) beta."""
    A = CA.algebra
    ida = LinearMap.identity(A.space)
    return RelHopfModule(
        tensor_space(A.space, A.space), A.alpha.tensor(A.alpha),
        A.alpha_inv.tensor(A.alpha_inv),
        A.alpha.tensor(A.mult @ ida.tensor(A.alpha_inv)),
        A.alpha_inv.tensor(tensor_after(ida, CA.hopf.algebra.alpha,
                                        CA.coaction)), CA)


def _flipped_from(CA, amb, field):
    """amb with the structure map named field, and every one checked after
    it, precomposed with x (x) y -> y x (the action as in the original
    refusal test, flip (x) eps)."""
    flip = swap_map(CA.space, CA.space)
    bad = {"action": flip.tensor(CA.hopf.coalgebra.counit),
           "coaction": amb.coaction @ flip, "mu": amb.mu @ flip}
    order = ("action", "coaction", "mu")
    return replace(amb, **{f: bad[f] for f in order[order.index(field):]})


def test_descent_refuses_a_map_that_does_not_kill_the_relations():
    """On H4 over B = A the relations (ab) (x) c - a (x) (bc) are nonzero;
    x (x) y -> xy kills them, x (x) y -> yx does not."""
    CA = _trivial_coaction("sweedler-H4")
    A = CA.algebra
    bt, square = balanced_tensor_AA(CA, coinvariants(CA))
    flip = swap_map(A.space, A.space)
    assert descend_linear(A.mult, bt, "mult").domain == bt.space
    with pytest.raises(StructureDoesNotDescend, match="flipped mult"):
        descend_linear(A.mult @ flip, bt, "flipped mult")
    amb = _square_ambient(CA)
    assert descend_module(amb, bt, "the square") == square
    with pytest.raises(StructureDoesNotDescend,
                       match="^the A-action on the flipped square does not"):
        descend_module(_flipped_from(CA, amb, "action"), bt,
                       "the flipped square")


@pytest.mark.parametrize("field, message", [
    ("coaction", "the coaction on the flipped square"),
    ("mu", "the automorphism of the flipped square")])
def test_descent_refuses_each_structure_map_in_turn(field, message):
    """The action is checked first, then the coaction, then the
    automorphism; each refusal names the first structure map that fails."""
    CA = _trivial_coaction("sweedler-H4")
    bt, _ = balanced_tensor_AA(CA, coinvariants(CA))
    amb = _flipped_from(CA, _square_ambient(CA), field)
    with pytest.raises(StructureDoesNotDescend,
                       match=f"^{message} does not vanish"):
        descend_module(amb, bt, "the flipped square")


def test_thm57_runs_a_bounded_number_of_affine_solves(monkeypatch):
    """Coordinates in B and in the coinvariants of a module are read off
    pivots, not solved for vector by vector (which took 26 solves here)."""
    calls = []
    original = linalg.solve_affine

    def counted(*args):
        calls.append(1)
        return original(*args)

    for module in (linalg, integrals):
        monkeypatch.setattr(module, "solve_affine", counted)
    assert thm57_check(entry("sweedler-H4").comodule_algebra).ok
    assert len(calls) <= 6
