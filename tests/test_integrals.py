"""Total integrals, quantum integrals, the splitting maps, and the
generator epimorphism."""

import time
from fractions import Fraction

import pytest

import homhopf.integrals as integrals
from homhopf.catalog import (cyclic_group_hopf, entry, names, sweedler_hopf,
                             trivial_comodule_algebra)
from homhopf.errors import CentralityViolated
from homhopf.integrals import (QuantumIntegral, TotalIntegral,
                               _colinear_retraction_system,
                               find_quantum_integral, find_total_integral,
                               gamma_from_central_phi, lambda_M,
                               phi_from_gamma, theorem43_check, thm48_check,
                               verify_total_integral)
from homhopf.linalg import AffineSolution, Infeasible, LinearMap, frac
from homhopf.modules import (induce_G, morphism_identities, regular_induced,
                             regular_rel_hopf)
from homhopf.report import Report
from homhopf.structures import regular_comodule_algebra, twist
from homhopf.verify import check_maps
from test_integral_systems import _rebased

HOPF_ENTRIES = [n for n in names()
                if entry(n).kind == "hopf"
                and entry(n).hopf.antipode_inv is not None]


@pytest.mark.parametrize("name", names())
def test_total_integral_matches_expected(name):
    e = entry(name)
    if "total_integral" not in e.expected:
        pytest.skip("no expectation recorded")
    res = find_total_integral(e.comodule_algebra)
    assert isinstance(res, TotalIntegral) == e.expected["total_integral"]
    if isinstance(res, TotalIntegral):
        assert verify_total_integral(e.comodule_algebra, res.phi)
        want = e.expected.get("total_integral_kernel_dim")
        if want is not None:
            assert len(res.solution_family) == want
    else:
        assert res.augmented_rank == res.system_rank + 1
        assert res.reverify()


def test_identity_is_a_total_integral_for_the_regular_coaction():
    CA = entry("kC2").comodule_algebra
    assert verify_total_integral(CA, LinearMap.identity(CA.hopf.space))


def test_trivial_over_h4_infeasibility_certificate():
    res = find_total_integral(entry("trivial-k-over-H4").comodule_algebra)
    assert isinstance(res, Infeasible)
    assert res.reverify()


@pytest.mark.parametrize("name", names())
def test_quantum_integral_matches_expected(name):
    e = entry(name)
    if "total_quantum_integral" not in e.expected:
        pytest.skip("no expectation recorded")
    res = find_quantum_integral(e.comodule_algebra, require_total=True)
    assert isinstance(res, QuantumIntegral) == e.expected["total_quantum_integral"]


def test_quantum_integral_on_kc2_matches_group_inverse_formula():
    """gamma(x)(y) = y x^{-1} solves the system for the regular kC2 coaction;
    the solver's answer must satisfy the same defining equations."""
    CA = entry("kC2").comodule_algebra
    H = CA.hopf
    from homhopf.integrals import verify_quantum_integral
    import homhopf.linalg as la
    idh = LinearMap.identity(H.space)
    # g (x) h -> h (x) g -> h (x) S(g) -> h S(g)
    gh = (H.algebra.mult @ idh.tensor(H.antipode)
          @ la.swap_map(H.space, H.space))
    assert verify_quantum_integral(CA, gh, total=True)


@pytest.mark.parametrize("name", HOPF_ENTRIES)
def test_theorem43_equivalence(name):
    e = entry(name)
    rep = theorem43_check(e.comodule_algebra, list(e.modules.values()))
    assert rep.ok, rep.pretty()
    assert rep.certificates["exists"] == e.expected.get(
        "total_integral", rep.certificates["exists"])


@pytest.mark.parametrize("lam", [2, 3, -1, Fraction(1, 2)], ids=str)
def test_theorem43_on_twisted_h4(lam):
    """H4 twisted by x -> lam x has alpha != id; phi(h) = lambda_A(1 (x) h)
    without its beta^{-1} is not a total integral there."""
    CA = _scaled_h4(lam)
    rep = theorem43_check(CA, [regular_rel_hopf(CA), regular_induced(CA)])
    assert rep.ok, rep.pretty()


def test_theorem43_phi_holds_for_every_retraction_of_kc3_twisted(
        monkeypatch):
    """The retraction solve is made to return the particular solution plus
    (or minus twice) each kernel vector in turn; phi built from each one is
    a total integral."""
    CA = entry("kC3-twisted").comodule_algebra
    real = integrals.solve_affine
    coeff, rhs = _colinear_retraction_system(
        CA, regular_induced(CA).coaction).equations()
    sol = real(coeff, rhs)
    assert sol.kernel
    unknowns = coeff.domain.dim
    shifts, served = [], []
    for k in sol.kernel:
        for c in (1, -2):
            acc = dict(sol.particular)
            for i, x in k:
                acc[i] = acc.get(i, 0) + c * x
            shifted = AffineSolution(tuple(
                (i, frac(x)) for i, x in sorted(acc.items()) if x), ())
            shifts.append(shifted)

            def solve(coeff, rhs, shifted=shifted):
                if coeff.domain.dim != unknowns:
                    return real(coeff, rhs)
                served.append(shifted)
                return shifted

            monkeypatch.setattr(integrals, "solve_affine", solve)
            rep = theorem43_check(CA)
            assert rep.ok, rep.pretty()
    # the patched solver served each shifted solution exactly once
    assert served == shifts


@pytest.mark.parametrize("name", HOPF_ENTRIES)
def test_lambda_M_splits_the_coaction(name):
    e = entry(name)
    CA = e.comodule_algebra
    res = find_total_integral(CA)
    if not isinstance(res, TotalIntegral):
        pytest.skip("no total integral")
    for M in e.modules.values():
        lm = lambda_M(M, res)
        assert (lm @ M.coaction).is_identity()
        assert check_maps(Report(""), "lambda_M is colinear",
                          morphism_identities(lm, induce_G(M.as_module(), CA),
                                              M, "H"))


def test_phi_from_gamma_is_colinear_and_unital():
    CA = entry("kC2").comodule_algebra
    gamma = find_quantum_integral(CA, require_total=True)
    assert isinstance(gamma, QuantumIntegral)
    phi = phi_from_gamma(CA, gamma)
    assert phi.apply(CA.hopf.unit) == CA.algebra.unit


def _scaled_h4(lam):
    """H4 twisted by the Hopf automorphism x -> lam x; alpha has infinite
    order unless lam = +-1."""
    H = sweedler_hopf()
    aut = LinearMap.from_rows(H.space, H.space, [
        [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, lam, 0], [0, 0, 0, lam]])
    return regular_comodule_algebra(twist(H, aut))


PHI_CASES = {
    **{n: (lambda n=n: entry(n).comodule_algebra) for n in HOPF_ENTRIES
       if entry(n).expected.get("total_quantum_integral", True)},
    "rebased kC3-twisted": lambda: _rebased(
        entry("kC3-twisted").comodule_algebra),
    **{f"H4 twisted by x -> {lam} x": (lambda lam=lam: _scaled_h4(lam))
       for lam in (2, 3, Fraction(1, 2), -1)},
}


@pytest.mark.parametrize("name", PHI_CASES)
def test_phi_from_gamma_is_a_total_integral(name):
    """For the solver's total quantum integral gamma, and gamma plus (or
    minus twice) each kernel vector, phi_from_gamma is a total integral."""
    CA = PHI_CASES[name]()
    gamma = find_quantum_integral(CA, require_total=True)
    assert isinstance(gamma, QuantumIntegral)
    gh = gamma.gamma_hat
    candidates = [gh] + [gh + k for k in gamma.solution_family] + [
        gh - k - k for k in gamma.solution_family]
    for cand in candidates:
        phi = phi_from_gamma(CA, QuantumIntegral(cand, True, ()))
        assert verify_total_integral(CA, phi)


def test_gamma_from_central_phi_on_commutative_hopf():
    CA = entry("kC2").comodule_algebra
    gamma = gamma_from_central_phi(CA, LinearMap.identity(CA.hopf.space))
    assert gamma.total


def test_gamma_from_central_phi_rejects_noncommutative():
    CA = entry("sweedler-H4").comodule_algebra
    with pytest.raises(CentralityViolated):
        gamma_from_central_phi(CA, LinearMap.identity(CA.hopf.space))


def test_centrality_witness_is_the_first_failing_pair():
    # pairs are visited h outer, g inner; the witness reads (g, h)
    CA = entry("sweedler-H4").comodule_algebra
    phi = find_total_integral(CA).phi
    for f, witness in ((LinearMap.identity(CA.hopf.space), ("x", "g")),
                       (phi, ("g", "gx"))):
        with pytest.raises(CentralityViolated) as exc:
            gamma_from_central_phi(CA, f)
        assert exc.value.witness == witness


def test_gamma_from_central_phi_rejects_non_colinear_phi():
    # over the trivial coaction the counit collapse phi = unit . eps is
    # not colinear (eps(h1) h2 = eps(h) 1 fails for nontrivial Delta)
    from homhopf.errors import NotIntertwining
    CA = trivial_comodule_algebra(sweedler_hopf())
    H = CA.hopf
    phi = LinearMap(H.space, CA.algebra.space, H.coalgebra.counit.cols)
    with pytest.raises(NotIntertwining):
        gamma_from_central_phi(CA, phi)


@pytest.mark.parametrize("name", HOPF_ENTRIES)
def test_thm48_generator_epimorphism(name):
    e = entry(name)
    rep = thm48_check(e.comodule_algebra, [e.modules["A"]])
    assert rep.ok, rep.pretty()


def test_thm48_on_the_induced_module_of_sweedler_h4():
    # A (x) H (x) G(A) has dimension 256: the widest module sweep in the
    # catalog, which needs the sparse kernel to finish in seconds
    e = entry("sweedler-H4")
    rep = thm48_check(e.comodule_algebra, [e.modules["G(A)"]])
    assert rep.ok, rep.pretty()


def test_kc12_quantum_integral_and_theorem43_finish_in_seconds():
    """At the dimension cap the quantum-integral system is 22,608 x 1,728
    with 5,184 nonzeros.  A dense elimination took over a minute on each of
    these; the sparse one takes well under 2 s.  The bound is loose so that
    only a return to dense work fails it."""
    CA = regular_comodule_algebra(cyclic_group_hopf(12))
    start = time.perf_counter()
    res = find_quantum_integral(CA, require_total=True)
    assert isinstance(res, QuantumIntegral) and res.total
    assert theorem43_check(CA).ok
    assert time.perf_counter() - start < 30
