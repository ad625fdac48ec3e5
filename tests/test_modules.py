"""Relative Hom-Hopf modules: induced structures, the adjunction, and the
comparison isomorphism between the two module structures on A (x) H."""

import contextlib
import os
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest

from homhopf import catalog, integrals, modules, structures
from homhopf.catalog import cyclic_group_hopf, entry, names, sweedler_hopf
from homhopf.errors import HomHopfError
from homhopf.galois import prop51_maps, quantum_trace_right, xi_source_module
from homhopf.instance_io import load_instance
from homhopf.integrals import (QuantumIntegral, generator_epi,
                               gamma_from_central_phi,
                               quantum_integral_identities, thm48_module)
from homhopf.linalg import LinearMap, Space, tensor_after, tensor_space
from homhopf.modules import (HomModule, RelHopfModule, adjunction_unit,
                             check_hom_module, check_rel_hopf, induce_G,
                             induce_Gtilde, is_morphism, morphism_identities,
                             prop31_check, prop31_u, prop31_v,
                             regular_induced, regular_rel_hopf,
                             tensor_module)
from homhopf.records import replace
from homhopf.report import Report
from homhopf.structures import (algebra_generators, check_comodule_algebra,
                                check_hom_algebra, check_hom_hopf,
                                regular_comodule_algebra)
from homhopf.verify import check_identity, check_maps

from conftest import _seam
from leg_reference import permute_legs
from test_integrals import _scaled_h4

ROOT = Path(__file__).resolve().parents[1]
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
                              permute_legs(
                                  LinearMap.identity(tensor_space(sp, A.space)),
                                  (A.space, H.space, A.space), (0, 2, 1)))
    from homhopf.records import replace
    bad = replace(GA, action=bad_action)
    rep = check_rel_hopf(bad)
    assert not rep.ok
    assert any("compatibility" in f.name for f in rep.failures)


def test_each_module_suite_runs_once_per_module_object(monkeypatch):
    """catalog.entry("sweedler-H4") decides A, G(A) and Gtilde(H), G(A)
    once for validate and prop31_check together; a module made by
    replace() is checked afresh."""
    bodies = []
    real = modules.check_hom_module
    monkeypatch.setattr(modules, "check_hom_module",
                        lambda M: bodies.append(M) or real(M))
    monkeypatch.setattr(catalog, "_CACHE", {})
    inst = catalog.entry("sweedler-H4")
    assert len(bodies) == 3
    GA = inst.modules["G(A)"]
    rep = check_rel_hopf(GA)
    assert rep.ok and check_rel_hopf(GA) is rep and len(bodies) == 3
    bad = replace(GA, action=GA.action + GA.action)
    assert not check_rel_hopf(bad).ok and len(bodies) == 4


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
    eps_map = LinearMap(M.space, K.space, CA.hopf.counit.cols)
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
    action = tensor_after(A.mult, H.algebra.mult.tensor(M.mu), permute_legs(
        LinearMap.identity(sp).tensor(rho_inv),
        (A.space, H.space, M.space, A.space, H.space), (0, 3, 1, 4, 2)))
    alpha2 = H.algebra.alpha @ H.algebra.alpha
    delta2 = tensor_after(LinearMap.identity(H.space), alpha2,
                          H.comult)
    coaction = permute_legs(
        A.alpha_inv.tensor(delta2).tensor(M.mu_inv),
        (A.space, H.space, H.space, M.space), (0, 1, 3, 2))
    mu = A.alpha.tensor(H.algebra.alpha).tensor(M.mu)
    mu_inv = A.alpha_inv.tensor(H.algebra.alpha_inv).tensor(M.mu_inv)
    return RelHopfModule(sp, mu, mu_inv, action, coaction, CA)


def _ref_gtilde_action(A, nu):
    """(a (x) n).b = a beta^{-1}(b) (x) nu(n) on A (x) N."""
    N = nu.domain
    return tensor_after(A.mult, nu, permute_legs(
        LinearMap.identity(tensor_space(A.space, N)).tensor(A.alpha_inv),
        (A.space, N, A.space), (0, 2, 1)))


def _ref_gtilde_coaction(CA, N, coaction):
    """rho(a (x) n) = (a0 (x) n0) (x) n1 a1 on A (x) N for a right
    H-comodule (N, coaction)."""
    H = CA.hopf
    return tensor_after(LinearMap.identity(tensor_space(CA.space, N)),
                        H.algebra.mult, permute_legs(
                            CA.coaction.tensor(coaction),
                            (CA.space, H.space, N, H.space), (0, 2, 3, 1)))


def _ref_xi_source_module(CA):
    """A (x) A with action (a (x) b).a' = a beta^{-1}(a') (x) beta(b) and
    coaction (a0 (x) beta^{-1}(b)) (x) alpha(a1)."""
    A, H = CA.algebra, CA.hopf
    twisted = tensor_after(LinearMap.identity(A.space), H.algebra.alpha,
                           CA.coaction)
    coaction = permute_legs(twisted.tensor(A.alpha_inv),
                            (A.space, H.space, A.space), (0, 2, 1))
    mu = A.alpha.tensor(A.alpha)
    return RelHopfModule(tensor_space(A.space, A.space), mu, mu.inverse(),
                         _ref_gtilde_action(A, A.alpha), coaction, CA)


def _with_A_and_GA(CA):
    return CA, [regular_rel_hopf(CA), regular_induced(CA)]


def _seed1(name):
    """The benchmark's input file name for seed 1, made by make_inputs.py."""
    with tempfile.TemporaryDirectory() as out:
        subprocess.run([sys.executable, str(ROOT / "verdictbench" /
                                            "make_inputs.py"),
                        "--seed", "1", "--out", out, name],
                       env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                       check=True, capture_output=True, timeout=60)
        return load_instance(os.path.join(out, name))


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
    "kC3-twisted-rebased, seed 1": lambda: _with_A_and_GA(
        _seed1("kC3-twisted-rebased.json").comodule_algebra),
}


def _arbitrary(dom, cod, seed):
    """A dense map dom -> cod over the denominators 1, 2 and 3."""
    return LinearMap.from_rows(dom, cod, [
        [Fraction((3 * i + 5 * j + seed) % 7 - 3, 1 + (i + 2 * j) % 3)
         for j in range(dom.dim)] for i in range(cod.dim)])


def _leg_routes(CA, modules, monkeypatch):
    """(site, map, its form before product_after and swap_map) for each leg
    route of modules, integrals and galois; the old form permuted the legs
    of a tensor product, written here with permute_legs.  gamma and phi are
    arbitrary dense maps, so no integral has to exist."""
    A, H = CA.algebra, CA.hopf
    ida, idh = LinearMap.identity(A.space), LinearMap.identity(H.space)
    al, al_inv, mult, rho = (H.algebra.alpha, H.algebra.alpha_inv,
                             H.algebra.mult, CA.coaction)
    X, hh = regular_induced(CA), tensor_space(H.space, H.space)
    for M in modules:
        T = thm48_module(CA, M.mu, M.mu_inv)
        yield "tensor_module action", T.action, tensor_after(
            X.action, M.mu, permute_legs(
                LinearMap.identity(T.space).tensor(A.alpha_inv),
                (X.space, M.space, A.space), (0, 2, 1)))
        yield "tensor_module coaction", T.coaction, permute_legs(
            tensor_after(LinearMap.identity(X.space), al,
                         X.coaction).tensor(M.mu_inv),
            (X.space, H.space, M.space), (0, 2, 1))
    yield "Gtilde(H) coaction", induce_Gtilde(CA).coaction, \
        _ref_gtilde_coaction(CA, H.space, H.comult)
    for t, uv in ((idh, prop31_u(CA)), (H.antipode_inv, prop31_v(CA))):
        yield "_prop31_map", uv, tensor_after(
            A.alpha, mult @ al.tensor(t), permute_legs(
                rho.tensor(idh), (A.space, H.space, H.space), (0, 2, 1)))
    gh = _arbitrary(hh, A.space, 1)
    w = tensor_after(idh, gh, H.comult.tensor(al_inv))
    yield "Eq. 4.1 identity", quantum_integral_identities(
        CA, gh, False)[1][1], tensor_after(A.alpha, mult, permute_legs(
            tensor_after(idh, rho, w), (H.space, A.space, H.space),
            (1, 0, 2)))
    terms = []
    with monkeypatch.context() as mp:
        mp.setattr(integrals._MapSystem, "condition",
                   lambda system, lhs, rhs: terms.append(rhs))
        integrals._quantum_integral_system(CA, False)
    yield "Eq. 4.1 system", terms[1][0], tensor_after(
        A.alpha, mult, permute_legs(idh.tensor(rho),
                                    (H.space, A.space, H.space), (1, 0, 2)))
    gamma = QuantumIntegral(gh, True, ())
    arg = mult @ (al_inv @ al_inv).tensor(H.antipode_inv @ al_inv)
    for M in modules:
        f, g = generator_epi(CA, M, gamma)
        idm = LinearMap.identity(M.space)
        legs = permute_legs(rho.tensor(idh).tensor(M.coaction),
                            (A.space, H.space, H.space, M.space, H.space),
                            (0, 3, 4, 2, 1))
        terms = permute_legs(tensor_after(A.alpha.tensor(M.mu),
                                          gh @ al_inv.tensor(arg), legs),
                             (A.space, M.space, A.space), (1, 2, 0))
        yield "generator_epi f", f, \
            M.action @ tensor_after(idm, A.mult, terms)
        yield "generator_epi g", g, tensor_after(A.unit, permute_legs(
            tensor_after(idm, al_inv, M.coaction), (M.space, H.space),
            (1, 0)), idm)
    lam, big = prop51_maps(CA, gamma)
    inner = lam @ tensor_after(A.unit, mult @ al_inv.tensor(
        H.antipode_inv), LinearMap.identity(hh))
    yield "prop51_maps Lam", big, A.mult @ tensor_after(
        inner, A.alpha, permute_legs(rho.tensor(idh),
                                     (A.space, H.space, H.space), (2, 1, 0)))
    from_unit = gh @ tensor_after(H.algebra.unit,
                                  H.antipode_inv @ al @ al, idh)
    yield "quantum_trace_right", quantum_trace_right(CA, gamma), \
        A.mult @ tensor_after(from_unit, A.alpha, permute_legs(
            rho, (A.space, H.space), (1, 0)))
    phi, checked = _arbitrary(H.space, A.space, 2), []

    def recording(rep, name, identities, *rest):
        checked.append(list(identities))
        return check_maps(rep, name, checked[-1], *rest)

    with monkeypatch.context() as mp:  # phi skips its colinearity gate
        mp.setattr(integrals, "total_integral_identities", lambda *a: [])
        mp.setattr(integrals, "check_maps", recording)
        with contextlib.suppress(HomHopfError):  # central or not
            gamma_from_central_phi(CA, phi)
    legs = (rho @ phi).tensor(idh)
    for side, perm in zip(checked[1][0], ((2, 1, 0), (1, 2, 0))):
        yield "centrality", side, tensor_after(mult, ida, permute_legs(
            legs, (A.space, H.space, H.space), perm))


@pytest.mark.parametrize("case", TENSOR_MODULE_CASES)
def test_tensor_module_reproduces_the_constructions_it_replaced(
        case, monkeypatch):
    """thm48_module, xi_source_module, the A (x) N action and Gtilde(H)
    agree map for map with their hand-written formulas, and each leg route
    with the permuted form it replaced (same matrix, same domain labels)."""
    CA, modules = TENSOR_MODULE_CASES[case]()
    A, H = CA.algebra, CA.hopf
    assert modules
    for M in modules:
        assert thm48_module(CA, M.mu, M.mu_inv) == _ref_thm48_module(CA, M)
        AM = tensor_module(regular_rel_hopf(CA), M.mu, M.mu_inv)
        assert AM.action == _ref_gtilde_action(A, M.mu)
    assert xi_source_module(CA) == _ref_xi_source_module(CA)
    GtH = induce_Gtilde(CA)
    assert GtH.action == _ref_gtilde_action(A, H.algebra.alpha)
    assert GtH.mu == A.alpha.tensor(H.algebra.alpha)
    assert GtH.coaction == _ref_gtilde_coaction(CA, H.space,
                                                H.comult)
    sites = []
    for site, got, want in _leg_routes(CA, modules, monkeypatch):
        assert got.same_matrix(want), site
        assert got.domain.labels == want.domain.labels, site
        sites.append(site)
    assert len(set(sites)) == 11


# ---------------------------------------------------------------------------
# Hom-associativity decided on algebra generators
# ---------------------------------------------------------------------------

def _full_hom_module(M: HomModule) -> Report:
    """check_hom_module as it reads with no reduction: every identity on
    its whole domain, Hom-associativity on M (x) A (x) A."""
    rep = Report(f"Hom-module axioms on dim {M.dim}")
    A, sp, act, mu = M.over, M.space, M.action, M.mu
    asp, idm = A.space, LinearMap.identity(M.space)
    check_maps(rep, "mu invertible", [(mu @ M.mu_inv, idm)])
    check_identity(rep, "Hom-associativity: (m.a).alpha(b) = mu(m).(ab)",
                   [sp, asp, asp], sp,
                   act @ act.tensor(A.alpha), act @ mu.tensor(A.mult))
    check_identity(rep, "unit law: m.1 = mu(m)", [sp], sp,
                   act @ tensor_after(idm, A.unit, idm), mu)
    check_identity(rep, "action intertwines: mu(m.a) = mu(m).alpha(a)",
                   [sp, asp], sp, mu @ act, act @ mu.tensor(A.alpha))
    return rep


def _assert_same_as_full(M: HomModule) -> None:
    assert check_hom_module(M).to_dict() == _full_hom_module(M).to_dict()


def _kcn_ca(n: int):
    return regular_comodule_algebra(cyclic_group_hopf(n))


def _generator_labels(A) -> tuple[str, ...]:
    return tuple(A.space.labels[i] for i in algebra_generators(A))


@pytest.mark.parametrize("n", range(2, 13))
def test_generators_of_kcn(n):
    assert _generator_labels(cyclic_group_hopf(n).algebra) == ("g",)


def test_generators_of_h4_and_of_the_base_field():
    assert _generator_labels(sweedler_hopf().algebra) == ("g", "x")
    assert _generator_labels(
        entry("trivial-k-over-H4").comodule_algebra.algebra) == ()


@pytest.mark.parametrize("name", names())
def test_reduced_check_matches_full_on_catalog_modules(name):
    inst = entry(name)
    for M in inst.modules.values():
        _assert_same_as_full(M.as_module())
    if inst.kind == "hopf":
        CA = inst.comodule_algebra
        _assert_same_as_full(thm48_module(
            CA, CA.algebra.alpha, CA.algebra.alpha_inv).as_module())


@pytest.mark.parametrize("n", range(2, 9))
def test_reduced_check_matches_full_on_kcn_thm48_module(n):
    CA = _kcn_ca(n)
    _assert_same_as_full(thm48_module(
        CA, CA.algebra.alpha, CA.algebra.alpha_inv).as_module())


def test_reduced_path_sees_generators_only(monkeypatch):
    """On G(A) of H4 (dim 16 > dim A = 4), Hom-associativity is one
    identity on M (x) A (x) span(g, x), which check_maps reads as reduced;
    M = A (x) H is 4 x 4 where lhs's domain factors give the dims."""
    calls = _seam(monkeypatch, modules)
    rep = check_hom_module(regular_induced(
        regular_comodule_algebra(sweedler_hopf())).as_module())
    assert rep.ok
    assert [c[1:3] for c in calls] == [
        ((4, 4), True), ((16,), True), ((16, 4), True), ((4, 4, 4, 2), True)]


def test_module_over_itself_is_decided_on_generators(monkeypatch):
    """dim M = dim A: Hom-associativity is one identity on M (x) A (x)
    span(g), as for every module whose other laws and A's suite hold."""
    calls = _seam(monkeypatch, modules)
    assert check_hom_module(regular_rel_hopf(_kcn_ca(5)).as_module()).ok
    assert [c[1:3] for c in calls] == [
        ((5,), True), ((5,), True), ((5, 5), True), ((5, 5, 1), True)]


def _non_associative_kc3_module() -> HomModule:
    """kC3 acting on two copies of itself through phi, phi(1) = 1,
    phi(g) = g, phi(g2) = g: mu invertible, the unit law and the
    intertwining law hold, (m.g).g = m g2 but m.(g g) = m g."""
    A = cyclic_group_hopf(3).algebra
    V = Space(("u", "v"))
    phi = LinearMap.from_rows(A.space, A.space,
                              [[1, 0, 0], [0, 1, 1], [0, 0, 0]])
    ida = LinearMap.identity(A.space)
    sp = tensor_space(A.space, V)
    act = (A.mult @ ida.tensor(phi)).tensor(LinearMap.identity(V)) \
        @ permute_legs(LinearMap.identity(tensor_space(sp, A.space)),
                       (A.space, V, A.space), (0, 2, 1))
    idm = LinearMap.identity(sp)
    return HomModule(sp, idm, idm, act, A)


def test_non_associative_action_fails_through_the_reduced_path(monkeypatch):
    """_non_associative_kc3_module: the reduced identity fails; the
    fallback stops at its first block, 1 (x) u, of M (x) A (x) A, and the
    report is the full check's, witness included."""
    M = _non_associative_kc3_module()
    calls = _seam(monkeypatch, modules)
    rep = check_hom_module(M)
    assert [c[1:3] for c in calls] == [
        ((3, 2), True), ((6,), True), ((6, 3), True), ((3, 2, 3, 1), False),
        ((1, 3, 3), False)]
    assert [r.name for r in rep.failures] == [
        "Hom-associativity: (m.a).alpha(b) = mu(m).(ab)"]
    assert rep.to_dict() == _full_hom_module(M).to_dict()


MODULE_ASSOCIATIVITY = "Hom-associativity: (m.a).alpha(b) = mu(m).(ab)"


@pytest.mark.parametrize("make, reduced", [
    (lambda: _seed1("sweedler-H4-bad-GA.json").modules["G(A)"].as_module(), 0),
    (_non_associative_kc3_module, 1)], ids=["H4-bad-GA", "kC3-non-assoc"])
def test_module_fallback_compares_blocks_of_dim_a_squared(monkeypatch, make,
                                                          reduced):
    """Hom-associativity's fallback compares one block of dim A x dim A
    columns at a time, to the first that fails, never M (x) A (x) A whole;
    the report is still the full check's.  The benchmark's G(A) with a
    corrupted action (seed 1) fails its unit law, so it has no reduced
    identity; the kC3 module's reduced identity comes first and fails."""
    M = make()
    calls = _seam(monkeypatch, modules)
    rep = check_hom_module(M)
    assert rep.to_dict() == _full_hom_module(M).to_dict()
    blocks = [c for c in calls if c[0] == MODULE_ASSOCIATIVITY][reduced:]
    assert M.dim > 1 and blocks
    assert {c[3].domain.dim for c in blocks} == {M.over.dim ** 2}
    assert [c[2] for c in blocks] == [True] * (len(blocks) - 1) + [False]


def test_zero_module_and_k_pass_hom_associativity_through_reduced(
        monkeypatch):
    """The zero module over kC2, G(A) = k (x) kC2 over A = k (S = ()) and
    k's own algebra check each pass Hom-associativity on their reduced
    identity, of 0 columns, the one identity compared for it."""
    A2, Z = cyclic_group_hopf(2).algebra, Space(())
    idz = LinearMap.identity(Z)
    zero = HomModule(Z, idz, idz, LinearMap.zero(tensor_space(Z, A2.space), Z),
                     A2)
    inst = entry("trivial-k-over-kC2")
    k = replace(inst.comodule_algebra.algebra)  # no kept report
    calls = _seam(monkeypatch, structures, modules)
    for check, X, name in (
            (check_hom_module, zero, MODULE_ASSOCIATIVITY),
            (check_hom_module, inst.modules["G(A)"].as_module(),
             MODULE_ASSOCIATIVITY),
            (check_hom_algebra, k,
             "Hom-associativity: alpha(a)(bc) = (ab)alpha(c)")):
        del calls[:]
        rep = check(X)
        assert rep.ok and [r.status for r in rep.results
                           if r.name == name] == ["pass"]
        assert [(c[2], c[3].domain.dim) for c in calls
                if c[0] == name] == [(True, 0)]


@pytest.mark.parametrize("hopf", [cyclic_group_hopf(2), sweedler_hopf()],
                         ids=["kC2", "H4"])
def test_single_corruptions_of_the_action_give_the_full_report(hopf):
    """A single-constant corruption of G(A)'s action gives the report of
    the full check: at every position for kC2, and at every fourth one
    ((i + j) % 4 == 0, so four in each column) for H4's 16 x 64."""
    GA = regular_induced(regular_comodule_algebra(hopf)).as_module()
    rows = [list(r) for r in GA.action.matrix]
    step = 1 if len(rows) < 16 else 4
    for i, row in enumerate(rows):
        for j in range(-i % step, len(row), step):
            row[j] += 1
            bad = replace(GA, action=LinearMap.from_rows(
                GA.action.domain, GA.space, rows))
            row[j] -= 1
            _assert_same_as_full(bad)


def test_leg_products_build_no_tensor_of_two_coactions(monkeypatch):
    """Delta(ab), rho(ab), rho(m.a) and G(M)'s action contract one leg at a
    time (linalg.product_after): on the benchmark's seed-1 change of basis
    of H4, whose Delta and rho have 14-15 nonzeros per column, none of
    check_hom_hopf, check_comodule_algebra, check_rel_hopf and induce_G
    builds Delta (x) Delta, rho_A (x) rho_A, rho_M (x) rho_A or
    id_{M (x) H} (x) rho_A."""
    inst = _seed1("sweedler-H4-rebased.json")
    CA = inst.comodule_algebra
    H, rho = CA.hopf, CA.coaction
    calls = []
    tensor = LinearMap.tensor

    def recording(f, g):
        calls.append((f, g))
        return tensor(f, g)

    monkeypatch.setattr(LinearMap, "tensor", recording)
    assert check_hom_hopf(H).ok
    assert check_comodule_algebra(CA).ok
    modules_ = list(inst.modules.values())
    GA = induce_G(modules_[0].as_module(), CA)
    for M in modules_ + [GA]:
        assert check_rel_hopf(M).ok
    d = H.comult
    forbidden = [(d, d), (LinearMap.identity(GA.space), rho)] + [
        (M.coaction, rho) for M in [CA] + modules_ + [GA]]
    assert calls
    assert not [(f, g) for f, g in calls for a, b in forbidden
                if f.same_matrix(a) and g.same_matrix(b)]
