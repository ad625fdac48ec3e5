"""Relative Hom-Hopf modules: induced structures, the adjunction, and the
comparison isomorphism between the two module structures on A (x) H."""

from fractions import Fraction

import pytest

from homhopf.catalog import cyclic_group_hopf, entry, names
from homhopf.galois import xi_source_module
from homhopf.integrals import thm48_module
from homhopf.linalg import (LinearMap, permute_factors, tensor_after,
                            tensor_space)
from homhopf.modules import (RelHopfModule, adjunction_unit,
                             check_rel_hopf, induce_G, induce_Gtilde,
                             is_morphism, morphism_identities, prop31_check,
                             prop31_u, prop31_v, regular_induced,
                             regular_rel_hopf, tensor_module)
from homhopf.report import Report
from homhopf.structures import regular_comodule_algebra
from homhopf.verify import check_maps

from test_integrals import _scaled_h4

HOPF_ENTRIES = [n for n in names() if entry(n).kind == "hopf"]


@pytest.mark.parametrize("name", HOPF_ENTRIES)
def test_regular_module_is_relative_hopf(name):
    rep = check_rel_hopf(regular_rel_hopf(entry(name).comodule_algebra))
    assert rep.ok, rep.pretty()


@pytest.mark.parametrize("name", HOPF_ENTRIES)
def test_induced_G_passes_axioms(name):
    CA = entry(name).comodule_algebra
    GA = induce_G(regular_rel_hopf(CA).as_module(), CA)
    assert check_rel_hopf(GA).ok


@pytest.mark.parametrize("name", HOPF_ENTRIES)
def test_induced_Gtilde_passes_axioms(name):
    CA = entry(name).comodule_algebra
    GtH = induce_Gtilde(CA)
    assert check_rel_hopf(GtH).ok


def test_wrong_action_breaks_compatibility():
    """(a (x) h).b = ab (x) h fails the compatibility axiom on kC2."""
    CA = regular_comodule_algebra(cyclic_group_hopf(2))
    A, H = CA.algebra, CA.hopf
    GA = induce_G(regular_rel_hopf(CA).as_module(), CA)
    sp = GA.space

    # a (x) h (x) b -> a (x) b (x) h -> ab (x) h
    bad_action = tensor_after(A.mult, LinearMap.identity(H.space),
                              permute_factors(
                                  LinearMap.identity(tensor_space(sp, A.space)),
                                  (A.space, H.space, A.space), (0, 2, 1)))
    from homhopf.records import replace
    bad = replace(GA, action=bad_action)
    rep = check_rel_hopf(bad)
    assert not rep.ok
    assert any("compatibility" in f.name for f in rep.failures)


@pytest.mark.parametrize("name", HOPF_ENTRIES)
def test_prop31_mutual_inverse_and_morphism(name):
    rep = prop31_check(entry(name).comodule_algebra)
    assert rep.ok, rep.pretty()


@pytest.mark.parametrize("name", HOPF_ENTRIES)
def test_adjunction_unit_is_a_morphism(name):
    CA = entry(name).comodule_algebra
    M = regular_rel_hopf(CA)
    GFM = induce_G(M.as_module(), CA)
    eta = adjunction_unit(M)
    assert is_morphism(eta, M, GFM)


def test_identity_is_a_morphism():
    CA = regular_comodule_algebra(cyclic_group_hopf(3))
    M = regular_rel_hopf(CA)
    ident = LinearMap.identity(M.space)
    assert is_morphism(ident, M, M)


def test_coaction_is_colinear_but_counit_collapse_is_not():
    from homhopf.catalog import sweedler_hopf
    CA = regular_comodule_algebra(sweedler_hopf())
    M = regular_rel_hopf(CA)
    GA = induce_G(M.as_module(), CA)
    assert check_maps(Report(""), "rho is colinear",
                      morphism_identities(M.coaction, M, GA, "H"))
    # eps: H -> k with the trivial coaction on k is not colinear
    from homhopf.catalog import trivial_comodule_algebra
    triv = trivial_comodule_algebra(CA.hopf)
    K = regular_rel_hopf(triv)
    # view eps as a map from the regular comodule on H
    eps_map = LinearMap(M.space, K.space, CA.hopf.coalgebra.counit.cols)
    from homhopf.records import replace
    HM = replace(M, over=CA)
    assert not check_maps(Report(""), "eps is colinear", morphism_identities(
        eps_map, HM, replace(K, over=CA), "H"))


@pytest.mark.parametrize("name", HOPF_ENTRIES)
def test_prop31_u_v_formulas_are_inverse_pointwise(name):
    CA = entry(name).comodule_algebra
    u = prop31_u(CA)
    v = prop31_v(CA)
    assert (u @ v).is_identity()
    assert (v @ u).is_identity()


# tensor_module against the three hand-written constructions it replaced

def _ref_thm48_module(CA, M):
    """A (x) H (x) M with (a (x) h (x) m).b =
    a beta^{-1}(b0) (x) h alpha^{-1}(b1) (x) mu(m) and
    rho = beta^{-1}(a) (x) h1 (x) mu^{-1}(m) (x) alpha^2(h2)."""
    A, H = CA.algebra, CA.hopf
    sp = tensor_space(A.space, H.space, M.space)
    rho_inv = tensor_after(A.alpha_inv, H.algebra.alpha_inv, CA.coaction)
    action = tensor_after(A.mult, H.algebra.mult.tensor(M.mu), permute_factors(
        LinearMap.identity(sp).tensor(rho_inv),
        (A.space, H.space, M.space, A.space, H.space), (0, 3, 1, 4, 2)))
    alpha2 = H.algebra.alpha @ H.algebra.alpha
    delta2 = tensor_after(LinearMap.identity(H.space), alpha2,
                          H.coalgebra.comult)
    coaction = permute_factors(
        A.alpha_inv.tensor(delta2).tensor(M.mu_inv),
        (A.space, H.space, H.space, M.space), (0, 1, 3, 2))
    mu = A.alpha.tensor(H.algebra.alpha).tensor(M.mu)
    mu_inv = A.alpha_inv.tensor(H.algebra.alpha_inv).tensor(M.mu_inv)
    return RelHopfModule(sp, mu, mu_inv, action, coaction, CA)


def _ref_gtilde_action(A, nu):
    """(a (x) n).b = a beta^{-1}(b) (x) nu(n) on A (x) N."""
    N = nu.domain
    return tensor_after(A.mult, nu, permute_factors(
        LinearMap.identity(tensor_space(A.space, N)).tensor(A.alpha_inv),
        (A.space, N, A.space), (0, 2, 1)))


def _ref_gtilde_coaction(CA, N, coaction):
    """rho(a (x) n) = (a0 (x) n0) (x) n1 a1 on A (x) N for a right
    H-comodule (N, coaction)."""
    H = CA.hopf
    return tensor_after(LinearMap.identity(tensor_space(CA.space, N)),
                        H.algebra.mult, permute_factors(
                            CA.coaction.tensor(coaction),
                            (CA.space, H.space, N, H.space), (0, 2, 3, 1)))


def _ref_xi_source_module(CA):
    """A (x) A with action (a (x) b).a' = a beta^{-1}(a') (x) beta(b) and
    coaction (a0 (x) beta^{-1}(b)) (x) alpha(a1)."""
    A, H = CA.algebra, CA.hopf
    twisted = tensor_after(LinearMap.identity(A.space), H.algebra.alpha,
                           CA.coaction)
    coaction = permute_factors(twisted.tensor(A.alpha_inv),
                               (A.space, H.space, A.space), (0, 2, 1))
    mu = A.alpha.tensor(A.alpha)
    return RelHopfModule(tensor_space(A.space, A.space), mu, mu.inverse(),
                         _ref_gtilde_action(A, A.alpha), coaction, CA)


def _with_A_and_GA(CA):
    return CA, [regular_rel_hopf(CA), regular_induced(CA)]


TENSOR_MODULE_CASES = {
    **{n: (lambda n=n: (entry(n).comodule_algebra,
                        [entry(n).modules[k]
                         for k in sorted(entry(n).modules)]))
       for n in HOPF_ENTRIES},
    **{f"H4 twisted by x -> {lam} x":
       (lambda lam=lam: _with_A_and_GA(_scaled_h4(lam)))
       for lam in (2, 3, -1, Fraction(1, 2))},
    **{f"kC{n} on itself": (lambda n=n: _with_A_and_GA(
        regular_comodule_algebra(cyclic_group_hopf(n)))) for n in range(1, 9)},
}


@pytest.mark.parametrize("case", TENSOR_MODULE_CASES)
def test_tensor_module_reproduces_the_constructions_it_replaced(case):
    """thm48_module, xi_source_module, the A (x) N action of induction and
    Gtilde(H) agree map for map with their hand-written formulas."""
    CA, modules = TENSOR_MODULE_CASES[case]()
    A, H = CA.algebra, CA.hopf
    assert modules
    for M in modules:
        assert thm48_module(CA, M) == _ref_thm48_module(CA, M)
        AM = tensor_module(regular_rel_hopf(CA), M.mu, M.mu_inv)
        assert AM.action == _ref_gtilde_action(A, M.mu)
    assert xi_source_module(CA) == _ref_xi_source_module(CA)
    GtH = induce_Gtilde(CA)
    assert GtH.action == _ref_gtilde_action(A, H.coalgebra.gamma)
    assert GtH.mu == A.alpha.tensor(H.coalgebra.gamma)
    assert GtH.coaction == _ref_gtilde_coaction(CA, H.space,
                                                H.coalgebra.comult)
