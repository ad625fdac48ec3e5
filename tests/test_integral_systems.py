"""The integral solvers' linear systems, assembled from map terms, against a
reference that linearizes each condition by evaluating its hand-written
identities on every elementary matrix."""

import os
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest

import homhopf.integrals as integrals
from homhopf.catalog import cyclic_group_hopf, entry, names
from homhopf.instance_io import load_instance
from homhopf.integrals import (_colinear_retraction_system,
                               _quantum_integral_system,
                               _total_integral_system,
                               colinear_retraction_identities,
                               find_quantum_integral, find_total_integral,
                               quantum_integral_identities, theorem43_check,
                               total_integral_identities)
from homhopf.linalg import (Infeasible, LinearMap, Space, solve_affine,
                            tensor_space)
from homhopf.modules import induce_G, regular_rel_hopf
from homhopf.structures import (ComoduleAlgebra, HomAlgebra, HomCoalgebra,
                                HomHopfAlgebra, check_comodule_algebra,
                                check_hom_hopf, regular_comodule_algebra)

ROOT = Path(__file__).resolve().parents[1]


def _hilbert(n: int, shift: int) -> list[list[Fraction]]:
    """An invertible matrix with non-integer entries: a Hilbert matrix plus
    shift times the identity (positive definite for shift >= 0)."""
    return [[Fraction(1, i + j + 1) + (shift if i == j else 0)
             for j in range(n)] for i in range(n)]


def _rebased(CA: ComoduleAlgebra) -> ComoduleAlgebra:
    """CA written in another basis of H and of A: with old coordinates
    v = P v', a map F: X -> Y becomes P_Y^{-1} F P_X."""
    A, H = CA.algebra, CA.hopf
    ph = LinearMap.from_rows(H.space, H.space, _hilbert(H.dim, 0))
    pa = LinearMap.from_rows(A.space, A.space, _hilbert(A.dim, 1))
    ph_inv, pa_inv = ph.inverse(), pa.inverse()

    def conj(f, out_inv, into):
        return out_inv @ f @ into

    hop = HomAlgebra(H.space, conj(H.algebra.mult, ph_inv, ph.tensor(ph)),
                     ph_inv @ H.algebra.unit, conj(H.algebra.alpha, ph_inv, ph),
                     conj(H.algebra.alpha_inv, ph_inv, ph))
    coalg = HomCoalgebra(
        H.space, conj(H.coalgebra.comult, ph_inv.tensor(ph_inv), ph),
        H.coalgebra.counit @ ph, conj(H.coalgebra.gamma, ph_inv, ph),
        conj(H.coalgebra.gamma_inv, ph_inv, ph))
    hopf = HomHopfAlgebra.build(hop, coalg, conj(H.antipode, ph_inv, ph))
    alg = HomAlgebra(A.space, conj(A.mult, pa_inv, pa.tensor(pa)),
                     pa_inv @ A.unit, conj(A.alpha, pa_inv, pa),
                     conj(A.alpha_inv, pa_inv, pa))
    return ComoduleAlgebra(alg, hopf,
                           conj(CA.coaction, pa_inv.tensor(ph_inv), pa))


_EXTRA = {
    "kC4": lambda: regular_comodule_algebra(cyclic_group_hopf(4)),
    "kC5": lambda: regular_comodule_algebra(cyclic_group_hopf(5)),
    "rebased kC3-twisted": lambda: _rebased(entry("kC3-twisted").comodule_algebra),
    "rebased trivial-k-over-H4":
        lambda: _rebased(entry("trivial-k-over-H4").comodule_algebra),
}
# k has no total integral over H4: every one of the three systems is
# infeasible, the rebased one on non-integer constants
_NO_INTEGRAL = ("trivial-k-over-H4", "rebased trivial-k-over-H4")
CASES = names() + list(_EXTRA)
HOPF_CASES = [n for n in CASES if n not in names()
              or entry(n).hopf.antipode_inv is not None]


@lru_cache(maxsize=None)
def _case(name: str) -> ComoduleAlgebra:
    return _EXTRA[name]() if name in _EXTRA else entry(name).comodule_algebra


def _residual(identities) -> tuple:
    """The entries of lhs - rhs for each identity in turn, in the solver's
    row order: entry (f, e) of a map E -> F is at e * dim F + f, one block
    of F per basis vector of E."""
    out: list = []
    for lhs, rhs, _ in identities:
        nf = lhs.codomain.dim
        flat = [0] * (lhs.domain.dim * nf)
        for e, col in enumerate((lhs - rhs).cols):
            for f, c in col:
                flat[e * nf + f] = c
        out.extend(flat)
    return tuple(out)


def _probe(dom: Space, cod: Space, identities):
    """Reference: coefficient column k is residual(E_k) - residual(0), where
    E_k is the elementary map with entry 1 at (k // dom.dim, k % dom.dim)
    and residual(X) flattens identities(X)."""
    offset = _residual(identities(LinearMap.zero(dom, cod)))
    cols = []
    for k in range(dom.dim * cod.dim):
        i, j = divmod(k, dom.dim)
        unit_cols = [()] * dom.dim
        unit_cols[j] = ((i, Fraction(1)),)
        value = _residual(identities(LinearMap(dom, cod, tuple(unit_cols))))
        cols.append(tuple(a - b for a, b in zip(value, offset)))
    coeff = LinearMap.from_rows(
        Space(tuple(f"u{k}" for k in range(len(cols)))),
        Space(tuple(f"eq{r}" for r in range(len(offset)))), zip(*cols))
    return coeff, tuple(-x for x in offset)


def _assert_matches_probing(system, dom: Space, cod: Space, identities):
    coeff, rhs = system.equations()
    sol = solve_affine(coeff, rhs)
    ref_coeff, ref_rhs = _probe(dom, cod, identities)
    assert coeff.codomain.dim == ref_coeff.codomain.dim
    assert coeff.cols == ref_coeff.cols
    assert rhs == ref_rhs
    assert sol == solve_affine(ref_coeff, ref_rhs)
    if isinstance(sol, Infeasible):
        assert sol.reverify()
    return sol


def test_rebased_instance_is_valid_with_non_integer_constants():
    CA = _case("rebased kC3-twisted")
    assert check_hom_hopf(CA.hopf).ok and check_comodule_algebra(CA).ok
    assert any(c.denominator != 1 for col in CA.coaction.cols for _, c in col)
    assert not CA.hopf.algebra.alpha.is_identity()


@pytest.mark.parametrize("name", CASES)
def test_total_integral_system_matches_probing(name):
    CA = _case(name)
    sol = _assert_matches_probing(
        _total_integral_system(CA), CA.hopf.space, CA.algebra.space,
        lambda f: total_integral_identities(CA, f))
    # the comatrix datum's "algebra" is k, so phi(1_H) = 1_A has no solution
    assert isinstance(sol, Infeasible) == (
        name in _NO_INTEGRAL + ("matrix-datum-2",))


@pytest.mark.parametrize("require_total", [True, False])
@pytest.mark.parametrize("name", HOPF_CASES)
def test_quantum_integral_system_matches_probing(name, require_total):
    CA = _case(name)
    H = CA.hopf
    sol = _assert_matches_probing(
        _quantum_integral_system(CA, require_total),
        tensor_space(H.space, H.space), CA.algebra.space,
        lambda gh: quantum_integral_identities(CA, gh, require_total))
    assert isinstance(sol, Infeasible) == (
        require_total and name in _NO_INTEGRAL)


def _retraction(CA: ComoduleAlgebra) -> tuple:
    ga = induce_G(regular_rel_hopf(CA).as_module(), CA).coaction
    return (_colinear_retraction_system(CA, ga),
            tensor_space(CA.algebra.space, CA.hopf.space),
            lambda f: colinear_retraction_identities(CA, ga, f))


# (system, its unknowns' domain, its identities) for the three systems a
# comodule algebra with no total integral leaves without a solution
_SYSTEMS = {
    "total": lambda CA: (_total_integral_system(CA), CA.hopf.space,
                         lambda f: total_integral_identities(CA, f)),
    "quantum": lambda CA: (
        _quantum_integral_system(CA, require_total=True),
        tensor_space(CA.hopf.space, CA.hopf.space),
        lambda gh: quantum_integral_identities(CA, gh, True)),
    "retraction": _retraction,
}


@pytest.mark.parametrize("name", HOPF_CASES)
def test_colinear_retraction_system_matches_probing(name):
    CA = _case(name)
    built, dom, identities = _retraction(CA)
    sol = _assert_matches_probing(built, dom, CA.algebra.space, identities)
    assert isinstance(sol, Infeasible) == (name in _NO_INTEGRAL)


@pytest.mark.parametrize("system", list(_SYSTEMS))
@pytest.mark.parametrize(
    "name", ["kC4", "rebased kC3-twisted", "rebased trivial-k-over-H4"])
def test_system_reaches_the_solver_without_fraction_columns(name, system):
    # coeff stays in its scaled int form through the solve and the
    # certificate check: its Fraction columns are never built
    coeff, rhs = _SYSTEMS[system](_case(name))[0].equations()
    sol = solve_affine(coeff, rhs)
    if isinstance(sol, Infeasible):
        assert sol.reverify()
    assert "cols" not in vars(coeff)


@pytest.fixture(scope="module")
def seeded_no_integral(tmp_path_factory) -> ComoduleAlgebra:
    """The benchmark's trivial-k-over-H4-rebased.json for seed 1."""
    out = tmp_path_factory.mktemp("seeded")
    subprocess.run([sys.executable, str(ROOT / "verdictbench" /
                                        "make_inputs.py"),
                    "--seed", "1", "--out", str(out),
                    "trivial-k-over-H4-rebased.json"],
                   env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                   check=True, capture_output=True, timeout=60)
    return load_instance(str(out / "trivial-k-over-H4-rebased.json")) \
        .comodule_algebra


@pytest.mark.parametrize("system", list(_SYSTEMS))
def test_infeasible_system_over_a_scale_above_1(seeded_no_integral, system):
    # "rebased trivial-k-over-H4" keeps scale 1 (only its rhs is rational);
    # the seeded file's coefficients are not integers
    CA = seeded_no_integral
    built, dom, identities = _SYSTEMS[system](CA)
    tier1 = _SYSTEMS[system](_case("rebased trivial-k-over-H4"))[0]
    assert (built.scale, tier1.scale) == (32, 1)
    sol = _assert_matches_probing(built, dom, CA.algebra.space, identities)
    assert isinstance(sol, Infeasible)
    assert sol.reverify()


def _count_calls(monkeypatch, name: str) -> list:
    calls = []
    original = getattr(integrals, name)

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(integrals, name, counted)
    return calls


def test_quantum_solver_evaluates_eq41_a_bounded_number_of_times(monkeypatch):
    # the identities (Eq. 4.1 among them) only re-verify the solution: a
    # constant number of builds, not one per unknown (kC5 has 125)
    calls = _count_calls(monkeypatch, "quantum_integral_identities")
    find_quantum_integral(_case("kC5"), require_total=True)
    assert 1 <= len(calls) <= 2


def test_total_solver_evaluates_its_residual_a_bounded_number_of_times(
        monkeypatch):
    calls = _count_calls(monkeypatch, "total_integral_identities")
    find_total_integral(regular_comodule_algebra(cyclic_group_hopf(8)))
    assert 1 <= len(calls) <= 2


def test_theorem43_evaluates_the_retraction_residual_once(monkeypatch):
    calls = _count_calls(monkeypatch, "colinear_retraction_identities")
    assert theorem43_check(_case("kC4")).ok
    assert len(calls) == 1
