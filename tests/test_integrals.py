"""Total integrals, quantum integrals, the splitting maps, and the
generator epimorphism."""

import json
import time
from fractions import Fraction

import pytest

import homhopf.integrals as integrals
import homhopf.modules as modules
import homhopf.structures as structures
from homhopf.catalog import (cyclic_group_hopf, entry, names, sweedler_hopf,
                             trivial_comodule_algebra)
from homhopf.errors import CentralityViolated
from homhopf.instance_io import emit_instance, parse_instance
from homhopf.integrals import (QuantumIntegral, TotalIntegral, _MapSystem,
                               _colinear_retraction_system,
                               find_quantum_integral, find_total_integral,
                               gamma_from_central_phi, generator_epi,
                               lambda_M, phi_from_gamma, theorem43_check,
                               thm48_check, total_quantum_hypothesis,
                               verify_total_integral)
from homhopf.linalg import (SCALAR_SPACE, AffineSolution, Infeasible,
                            LinearMap, basis_inclusion, frac, solve_affine)
from homhopf.modules import (check_rel_hopf, induce_G, morphism_identities,
                             regular_induced, regular_rel_hopf,
                             tensor_module, tensor_module_on)
from homhopf.records import replace
from homhopf.report import Report
from homhopf.structures import (algebra_generators,
                                regular_comodule_algebra, twist)
from homhopf.verify import check_maps, record_suite
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
    assert (phi @ CA.hopf.algebra.unit).same_matrix(CA.algebra.unit)


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



# ---------------------------------------------------------------------------
# Theorem 4.8's A (x) H (x) M decided once, on (k, 2) and (k, 3)
# ---------------------------------------------------------------------------

def _full_thm48_check(CA, test_modules=()):
    """thm48_check as it reads with no reduction: one check_rel_hopf on
    A (x) H (x) M per test module."""
    rep = Report("generator epimorphism")
    gamma = total_quantum_hypothesis(
        rep, CA, "conclusion: split epimorphism onto each test module")
    if gamma is None:
        return rep
    for idx, M in enumerate(test_modules or [regular_rel_hopf(CA)]):
        AHM = integrals.thm48_module(CA, M.mu, M.mu_inv)
        record_suite(rep, f"A (x) H (x) M is a relative Hopf module "
                     f"(module {idx})", check_rel_hopf(AHM))
        f, g = generator_epi(CA, M, gamma)
        check_maps(rep, f"f is a relative-category morphism (module {idx})",
                   morphism_identities(f, AHM, M))
        check_maps(rep, f"the section g is colinear (module {idx})",
                   morphism_identities(g, M, AHM, "H mu"))
        check_maps(rep, f"f . g = id (module {idx})",
                   [(f @ g, LinearMap.identity(M.space))])
    return rep


def _assert_thm48_same_as_full(CA, test_modules) -> Report:
    rep = thm48_check(CA, test_modules)
    assert rep.to_dict() == _full_thm48_check(CA, test_modules).to_dict()
    return rep


def _reduced_thm48_ok(CA) -> bool:
    """check_rel_hopf on A (x) H (x) (k, c), c = 2 and 3."""
    return all(check_rel_hopf(integrals.thm48_module(
        CA, nu, nu.inverse())).ok for nu in (
            LinearMap(SCALAR_SPACE, SCALAR_SPACE, (((0, c),),))
            for c in (2, 3)))


def _modules_of(inst):
    return [inst.modules[k] for k in sorted(inst.modules)]


@pytest.mark.parametrize("name", [n for n in names()
                                  if entry(n).kind == "hopf"])
def test_thm48_matches_full_check_on_catalog_entries(name):
    inst = entry(name)
    assert len(inst.modules) == 2
    _assert_thm48_same_as_full(inst.comodule_algebra, _modules_of(inst))


@pytest.mark.parametrize("n", range(1, 9))
def test_thm48_matches_full_check_on_kcn(n):
    CA = regular_comodule_algebra(cyclic_group_hopf(n))
    _assert_thm48_same_as_full(CA, [regular_rel_hopf(CA),
                                    regular_induced(CA)])


def _corrupted(name, keys, step=1):
    """Each instance parsed from name's emitted file with one constant of
    comodule_algebra.<key> raised by 1, every step-th in row-major order."""
    doc = json.loads(emit_instance(entry(name)))
    for key in keys:
        rows = doc["comodule_algebra"][key]
        for k in range(0, len(rows) * len(rows[0]), step):
            row, j = rows[k // len(rows[0])], k % len(rows[0])
            old = row[j]
            row[j] = str(frac(old) + 1)
            yield parse_instance(json.dumps(doc))
            row[j] = old


def _ahm_lines(rep):
    return [r for r in rep.results
            if r.name.startswith("A (x) H (x) M is a relative Hopf module")]


def test_thm48_matches_full_check_on_corrupted_kc2():
    """Every single-constant corruption of kC2's coaction and product; the
    A (x) H (x) M lines that fail come from the full check's fallback."""
    failed = 0
    for inst in _corrupted("kC2", ["coaction", "mult"]):
        CA = inst.comodule_algebra
        lines = _ahm_lines(_assert_thm48_same_as_full(CA, _modules_of(inst)))
        failed += sum(r.status == "fail" for r in lines)
        assert not lines or _reduced_thm48_ok(CA) == all(
            r.ok for r in lines)
    assert failed >= 19


def test_thm48_matches_full_check_on_corrupted_h4():
    """Every seventh constant of H4's coaction and product."""
    failed = 0
    for inst in _corrupted("sweedler-H4", ["coaction", "mult"], step=7):
        rep = _assert_thm48_same_as_full(inst.comodule_algebra,
                                         _modules_of(inst))
        failed += sum(r.status == "fail" for r in _ahm_lines(rep))
    assert failed > 0


def _mutant(*fields):
    """tensor_module with fields taken from the X (x) N built with nu =
    id_N: the nu, the nu^{-1} or both dropped from those maps."""
    def mutant(X, nu, nu_inv):
        plain = tensor_module(X, *[LinearMap.identity(nu.domain)] * 2)
        return replace(tensor_module(X, nu, nu_inv),
                       **{f: getattr(plain, f) for f in fields})
    return mutant


@pytest.mark.parametrize("fields", [("action",), ("coaction",),
                                    ("mu", "mu_inv")],
                         ids=["no nu in the action",
                              "no nu^-1 in the coaction",
                              "mu_X (x) id_N for mu_X (x) nu"])
def test_thm48_mutants_of_tensor_module_take_the_full_check(monkeypatch,
                                                            fields):
    """kC3-twisted's alpha is not the identity, so each mutant's
    A (x) H (x) M fails for M = A and G(A).  The reduced check fails too,
    and each line carries the full check's witness."""
    # thm48_module reaches tensor_module through integrals' namespace
    monkeypatch.setattr(integrals, "tensor_module", _mutant(*fields))
    inst = entry("kC3-twisted")
    CA, ms = inst.comodule_algebra, _modules_of(inst)
    assert not _reduced_thm48_ok(CA)
    rep = thm48_check(CA, ms)
    lines = _ahm_lines(rep)
    assert len(lines) == 2
    assert all(r.status == "fail" and r.witness is not None for r in lines)
    assert rep.to_dict() == _full_thm48_check(CA, ms).to_dict()


def test_thm48_builds_the_action_of_a_h_m_on_generators_only(monkeypatch):
    """On sweedler-H4 with A and G(A), thm48_module runs for the two probes
    alone, and A (x) H (x) M's action is built on A (x) H (x) M (x)
    span(g, x): 128 and 512 columns, not 256 and 1,024."""
    built, parts = [], []
    real, real_on = integrals.thm48_module, integrals.tensor_module_on

    def whole(CA, mu, mu_inv):
        built.append(mu.domain.dim)
        return real(CA, mu, mu_inv)

    def on_generators(*args):
        part = real_on(*args)
        parts.append(part.action.domain.dim)
        return part
    monkeypatch.setattr(integrals, "thm48_module", whole)
    monkeypatch.setattr(integrals, "tensor_module_on", on_generators)
    inst = entry("sweedler-H4")
    assert _assert_thm48_same_as_full(inst.comodule_algebra,
                                      _modules_of(inst)).ok
    # thm48_check's two probes, then the reference's two full modules
    assert built == [1, 1, 4, 16] and parts == [128, 512]


def test_thm48_module_whose_unit_law_fails_takes_the_full_f_check():
    """G(A) of H4 with 1 added to one entry of its m (x) 1 column: the
    probes pass, but M's unit law fails, so f's identities are decided on
    the whole of A (x) H (x) M, and the failing line has its witness."""
    inst = entry("sweedler-H4")
    CA, GA = inst.comodule_algebra, inst.modules["G(A)"]
    rows = [list(r) for r in GA.action.matrix]
    rows[3][5 * 4] += 1
    bad = replace(GA, action=LinearMap.from_rows(GA.action.domain, GA.space,
                                                 rows))
    assert not check_rel_hopf(bad).ok and _reduced_thm48_ok(CA)
    rep = _assert_thm48_same_as_full(CA, [bad])
    line = next(r for r in rep.results if r.name.startswith("f is"))
    assert line.status == "fail" and line.witness is not None


def test_thm48_f_wrong_only_off_the_generators_is_caught(monkeypatch):
    """f + delta, delta from the maps with delta(m.g) = delta(m).g on
    kC3-twisted's A (x) H (x) A, is A-linear on S = (g) but not on A.  It
    does not intertwine mu, as the argument in morphism_identities says it
    must not, and the reduced check falls back to the full one."""
    CA = entry("kC3-twisted").comodule_algebra
    A, M = CA.algebra, regular_rel_hopf(CA)
    f, g = generator_epi(CA, M, find_quantum_integral(CA, True))
    AHM = integrals.thm48_module(CA, M.mu, M.mu_inv)
    on = basis_inclusion(A.space, algebra_generators(A))
    ida = LinearMap.identity(AHM.space)
    system = _MapSystem(AHM.space, M.space)
    system.condition((LinearMap.identity(M.space), AHM.action @ ida.tensor(on),
                      1), (M.action, ida.tensor(on), A.dim))
    sol = solve_affine(*system.equations())
    mutant = next(m for m in (f + system.as_map(d) for d in sol.kernel)
                  if not check_maps(Report(""), "",
                                    morphism_identities(m, AHM, M, "A")))
    assert check_maps(Report(""), "", morphism_identities(
        mutant, tensor_module_on(regular_induced(CA), M.mu, M.mu_inv, on),
        M, "A", on=on))
    monkeypatch.setattr(integrals, "generator_epi", lambda *a: (mutant, g))
    line = next(r for r in thm48_check(CA).results if r.name.startswith("f"))
    want = Report("")
    check_maps(want, line.name, morphism_identities(mutant, AHM, M))
    assert line == want.results[0]
    assert line.status == "fail" and line.detail == "intertwines mu"


def test_thm48_module_whose_mu_inv_is_no_inverse_takes_the_full_check():
    """The reduction holds for objects (N, nu) with nu^{-1} nu's inverse;
    a test module with a doubled mu_inv gets the full check's witness."""
    inst = entry("kC3-twisted")
    CA = inst.comodule_algebra
    ms = [replace(M, mu_inv=M.mu_inv + M.mu_inv) for M in _modules_of(inst)]
    assert _reduced_thm48_ok(CA)
    lines = _ahm_lines(_assert_thm48_same_as_full(CA, ms))
    assert [r.detail for r in lines] == ["module: mu invertible"] * 2

def test_thm48_checks_no_identity_on_the_whole_of_a_h_g_a(monkeypatch):
    """On sweedler-H4 with G(A), A (x) H (x) G(A) has dim 256; no identity
    of the module suites is checked over a factor wider than
    A (x) H (x) (k, c), of dim 16."""
    dims = []
    for module in (modules, structures):
        real = module.check_identity

        def recording(report, name, factors, out_space, lhs, rhs,
                      real=real):
            dims.extend(sp.dim for sp in factors)
            return real(report, name, factors, out_space, lhs, rhs)
        monkeypatch.setattr(module, "check_identity", recording)
    inst = entry("sweedler-H4")
    rep = thm48_check(inst.comodule_algebra, [inst.modules["G(A)"]])
    assert rep.ok, rep.pretty()
    assert dims and max(dims) == 16


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
