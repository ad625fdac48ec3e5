"""Acceptance gate: ten exact, fully decidable criteria over the built-in
catalog.  Each test emits one pass/fail line, replayed after the run by the
terminal-summary hook in conftest so it survives output capture."""

import json

import conftest

from homhopf.catalog import (GROUP_FAMILY_CHOICES, MATRIX_FAMILY_CHOICES,
                             cyclic_group_hopf, entry, example_group_family,
                             example_matrix_family, names)
from homhopf.galois import (balanced_tensor_AA, beta_evaluation,
                            canonical_psi, coinvariants, galois_psi_ambient,
                            galois_xi, prop51_check, thm56_check, thm57_check)
from homhopf.integrals import (QuantumIntegral, TotalIntegral,
                               find_quantum_integral, find_total_integral,
                               lambda_M, theorem43_check, thm48_check,
                               verify_total_integral)
from homhopf.instance_io import emit_instance, parse_instance
from homhopf.linalg import Infeasible, LinearMap, kernel_basis, swap_map
from homhopf.modules import (adjunction_unit, induce_G, morphism_identities,
                             prop31_check, regular_rel_hopf)
from homhopf.report import Report
from homhopf.structures import check_hom_hopf
from homhopf.verify import check_maps

HOPF_ENTRIES = [n for n in names()
                if entry(n).kind == "hopf"
                and entry(n).hopf.antipode_inv is not None]


def _verdict(num: int, label: str, passed: bool) -> None:
    mark = "PASS" if passed else "FAIL"
    line = f"ACCEPTANCE {num:2d} [{mark}] {label}"
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)
    assert passed, f"acceptance criterion {num} failed: {label}"


def test_criterion_01_structure_suite():
    ok = all(entry(n).validate().ok for n in names())
    # corrupting any single antipode constant of the order-2 group algebra
    # must produce exactly one failed check carrying a witness
    from homhopf.records import replace
    H = cyclic_group_hopf(2)
    for i in range(2):
        for j in range(2):
            rows = [list(r) for r in H.antipode.matrix]
            rows[i][j] += 1
            bad = replace(H, antipode=LinearMap.from_rows(
                H.space, H.space, rows))
            rep = check_hom_hopf(bad)
            ok = ok and len(rep.failures) == 1
            ok = ok and rep.failures[0].witness is not None
    _verdict(1, "all catalog axioms pass; single corruption -> single "
             "witnessed failure", ok)


def test_criterion_02_comparison_isomorphism():
    ok = all(prop31_check(entry(n).comodule_algebra).ok for n in HOPF_ENTRIES)
    _verdict(2, "u, v mutually inverse and morphisms between the two "
             "A (x) H structures", ok)


def test_criterion_03_integral_existence_equivalence():
    ok = True
    for n in HOPF_ENTRIES:
        rep = theorem43_check(entry(n).comodule_algebra)
        ok = ok and rep.ok
    res = find_total_integral(entry("kC2").comodule_algebra)
    ok = ok and isinstance(res, TotalIntegral) and len(res.solution_family) == 1
    neg = find_total_integral(entry("trivial-k-over-H4").comodule_algebra)
    ok = ok and isinstance(neg, Infeasible)
    ok = ok and neg.augmented_rank == neg.system_rank + 1 and neg.reverify()
    _verdict(3, "existence equivalence with kC2 kernel dim 1 and "
             "trivial-over-H4 rank certificate", ok)


def test_criterion_04_splitting_maps():
    ok = True
    for n in HOPF_ENTRIES:
        e = entry(n)
        CA = e.comodule_algebra
        phi = find_total_integral(CA)
        if not isinstance(phi, TotalIntegral):
            continue
        for M in e.modules.values():
            lm = lambda_M(M, phi)
            GM = induce_G(M.as_module(), CA)
            ok = ok and (lm @ M.coaction).is_identity()
            ok = ok and check_maps(Report(""), "lambda_M is colinear",
                                   morphism_identities(lm, GM, M, "H"))
        # naturality square along the unit eta_M: M -> G(F(M))
        M = regular_rel_hopf(CA)
        GM = induce_G(M.as_module(), CA)
        GGM = induce_G(GM.as_module(), CA)
        eta = adjunction_unit(M)
        idh = LinearMap.identity(CA.hopf.space)
        lhs = lambda_M(GM, phi) @ eta.tensor(idh)
        rhs = eta @ lambda_M(M, phi)
        ok = ok and lhs.same_matrix(rhs)
    _verdict(4, "lambda_M splits every catalog module colinearly and is "
             "natural along the adjunction unit", ok)


def test_criterion_05_integral_family_fidelity():
    ok = len(GROUP_FAMILY_CHOICES) >= 4 and len(MATRIX_FAMILY_CHOICES) >= 4
    for mu in GROUP_FAMILY_CHOICES:
        ok = ok and example_group_family(mu).ok
    for mu in MATRIX_FAMILY_CHOICES:
        ok = ok and example_matrix_family(mu).ok
    _verdict(5, "matrix family total iff trace 1; group family total iff "
             "all mu_x = 1, across the parameter choices", ok)


def test_criterion_06_generator_epimorphism():
    ok = True
    for n in HOPF_ENTRIES:
        e = entry(n)
        gamma = find_quantum_integral(e.comodule_algebra, require_total=True)
        rep = thm48_check(e.comodule_algebra, [e.modules["A"]])
        ok = ok and rep.ok
        if isinstance(gamma, QuantumIntegral):
            ok = ok and rep.certificates["total_quantum_integral"]
    _verdict(6, "split generator epimorphism with colinear section wherever "
             "a total quantum integral exists", ok)


def test_criterion_07_retractions_and_traces():
    ok = True
    for n in HOPF_ENTRIES:
        CA = entry(n).comodule_algebra
        gamma = find_quantum_integral(CA, require_total=True)
        if not isinstance(gamma, QuantumIntegral):
            continue
        ok = ok and prop51_check(CA, gamma).ok
    _verdict(7, "lam/Lam retract the coaction; quantum traces are "
             "idempotent B-linear projections onto B", ok)


def test_criterion_08_galois_classification():
    expected = {"kC2": ("bijective", 4), "sweedler-H4": ("bijective", 16),
                "trivial-k-over-kC2": ("neither", 1)}
    ok = True
    for n, (cls, rk) in expected.items():
        CA = entry(n).comodule_algebra
        B = coinvariants(CA)
        bt, _ = balanced_tensor_AA(CA, B)
        gal = canonical_psi(CA, bt)
        ok = ok and gal.classification == cls and gal.rank == rk
        ok = ok and gal.psi.domain.dim - len(kernel_basis(gal.psi)) == rk
    _verdict(8, "canonical map: kC2 bijective 4/4, H4 bijective 16/16, "
             "trivial-over-kC2 not surjective", ok)


def test_criterion_09_affineness():
    ok = True
    for n in HOPF_ENTRIES:
        CA = entry(n).comodule_algebra
        rep = thm57_check(CA)
        ok = ok and rep.ok
        ok = ok and thm56_check(CA).ok
        # xi is the flipped ambient psi and kills the balancing relations
        A = CA.algebra
        psi_t = galois_psi_ambient(CA)
        ok = ok and galois_xi(CA).same_matrix(
            psi_t @ swap_map(A.space, A.space))
        B = coinvariants(CA)
        bt, _ = balanced_tensor_AA(CA, B)
        ok = ok and (psi_t @ bt.rel).same_matrix(
            LinearMap.zero(bt.rel.domain, psi_t.codomain))
        if rep.certificates["equivalence"]:
            M = regular_rel_hopf(CA)
            btm, beta_m = beta_evaluation(M, B)
            from homhopf.linalg import rank
            ok = ok and rank(beta_m) == M.dim == btm.dim
    _verdict(9, "adjunction units/counits are isomorphisms under both "
             "hypotheses; xi = flipped psi kills all relations", ok)


def test_criterion_10_infrastructure():
    ok = True
    for n in names():
        text = emit_instance(entry(n))
        ok = ok and emit_instance(parse_instance(text)) == text
        ok = ok and emit_instance(entry(n)) == text
    # certificates re-verify through independent code paths
    res = find_total_integral(entry("kC3-twisted").comodule_algebra)
    ok = ok and isinstance(res, TotalIntegral)
    ok = ok and verify_total_integral(
        entry("kC3-twisted").comodule_algebra, res.phi)
    neg = find_total_integral(entry("trivial-k-over-H4").comodule_algebra)
    ok = ok and neg.reverify()
    # machine-readable reports are byte-deterministic
    r1 = json.dumps(theorem43_check(entry("kC2").comodule_algebra).to_dict())
    r2 = json.dumps(theorem43_check(entry("kC2").comodule_algebra).to_dict())
    ok = ok and r1 == r2
    _verdict(10, "round-trip fixed points, deterministic reports, "
             "independently re-verified certificates", ok)
