"""Relative Hom-Hopf modules: induced structures, the adjunction, and the
comparison isomorphism between the two module structures on A (x) H."""

import pytest

from homhopf.catalog import cyclic_group_hopf, entry, names
from homhopf.linalg import (LinearMap, permute_factors, tensor_after,
                            tensor_space)
from homhopf.modules import (adjunction_counit, adjunction_unit,
                             check_rel_hopf, induce_G, induce_Gtilde,
                             is_alinear, is_colinear, is_morphism,
                             prop31_check, prop31_u, prop31_v,
                             regular_comodule, regular_rel_hopf,
                             triangle_identities_hold)
from homhopf.structures import regular_comodule_algebra

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
    GtH = induce_Gtilde(regular_comodule(CA.hopf), CA)
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
def test_triangle_identities(name):
    CA = entry(name).comodule_algebra
    M = regular_rel_hopf(CA)
    assert triangle_identities_hold(M, M.as_module(), CA)


@pytest.mark.parametrize("name", HOPF_ENTRIES)
def test_adjunction_unit_is_a_morphism(name):
    CA = entry(name).comodule_algebra
    M = regular_rel_hopf(CA)
    GFM = induce_G(M.as_module(), CA)
    eta = adjunction_unit(M)
    assert is_morphism(eta, M, GFM)


def test_counit_kills_the_unit_trivially():
    CA = regular_comodule_algebra(cyclic_group_hopf(2))
    H = CA.hopf
    M = regular_rel_hopf(CA).as_module()
    delta = adjunction_counit(M, H)
    idm = LinearMap.identity(M.space)
    # m -> m (x) 1_H -> eps(1_H) mu(m)
    assert (delta @ tensor_after(idm, H.algebra.unit_map, idm)).same_matrix(
        M.mu)


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
    assert is_colinear(M.coaction, M, GA)
    # eps: H -> k with the trivial coaction on k is not colinear
    from homhopf.catalog import trivial_comodule_algebra
    triv = trivial_comodule_algebra(CA.hopf)
    K = regular_rel_hopf(triv)
    # view eps as a map from the regular comodule on H
    eps_map = LinearMap(M.space, K.space, CA.hopf.coalgebra.counit.cols)
    from homhopf.records import replace
    HM = replace(M, over=CA)
    assert not is_colinear(eps_map, HM, replace(K, over=CA))


@pytest.mark.parametrize("name", HOPF_ENTRIES)
def test_prop31_u_v_formulas_are_inverse_pointwise(name):
    CA = entry(name).comodule_algebra
    u = prop31_u(CA)
    v = prop31_v(CA)
    assert (u @ v).is_identity()
    assert (v @ u).is_identity()
