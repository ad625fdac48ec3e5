"""A failing theorem conclusion or structure axiom carries a witness.

For each driver one construction is broken, so that one conclusion fails.
The failing result must name a basis tuple with one label per tensor factor
of the failing identity's domain, each label from its own factor, and the
failing identity's label as its detail.  A sub-suite conclusion carries the
sub-suite's first failure instead.
"""

from fractions import Fraction

import pytest

import homhopf.galois as galois
import homhopf.integrals as integrals
import homhopf.modules as modules
from homhopf.catalog import entry
from homhopf.galois import (coinvariants, free_module, galois_psi_ambient,
                            prop51_check, thm56_check, thm57_check)
from homhopf.integrals import (find_quantum_integral, theorem43_check,
                               thm48_check)
from homhopf.linalg import (SCALAR_SPACE, LinearMap, space, tensor_space,
                            unrank)
from homhopf.modules import prop31_check, regular_induced
from homhopf.records import replace
from homhopf.report import Report, Witness
from homhopf.structures import (check_comodule_algebra, check_hom_algebra,
                                check_hom_coalgebra, check_hom_hopf)
from homhopf.verify import check_maps, format_vector


def _doubled(fn):
    """fn with its map doubled."""
    def doubled(*args):
        f = fn(*args)
        return f + f
    return doubled


def _assert_witnessed(rep, name, domain, detail=None):
    result = next(r for r in rep.results if r.name == name)
    assert result.status == "fail", rep.pretty()
    assert result.witness is not None, rep.pretty()
    factors = domain.factors
    assert len(result.witness.basis) == len(factors)
    assert all(label in sp.labels
               for label, sp in zip(result.witness.basis, factors))
    assert result.detail == detail


@pytest.fixture(params=["kC2", "sweedler-H4"])
def CA(request):
    return entry(request.param).comodule_algebra


def test_prop31_witness(monkeypatch, CA):
    monkeypatch.setattr(modules, "prop31_u", _doubled(modules.prop31_u))
    _assert_witnessed(prop31_check(CA), "u . v = id",
                      regular_induced(CA).space)


def test_theorem43_witness(monkeypatch, CA):
    monkeypatch.setattr(integrals, "lambda_M", _doubled(integrals.lambda_M))
    GA = regular_induced(CA)
    _assert_witnessed(theorem43_check(CA, [GA]),
                      f"lambda_M splits test module 0 (dim {GA.dim})",
                      GA.space, "lambda_M . rho_M = id")


def test_theorem48_witness(monkeypatch, CA):
    real = integrals.generator_epi

    def doubled_f(*args):
        f, g = real(*args)
        return f + f, g
    monkeypatch.setattr(integrals, "generator_epi", doubled_f)
    GA = regular_induced(CA)
    _assert_witnessed(thm48_check(CA, [GA]), "f . g = id (module 0)",
                      GA.space)


def test_theorem48_sub_suite_carries_its_first_failure(monkeypatch, CA):
    real = integrals.thm48_module

    def doubled_action(*args):
        AHM = real(*args)
        return replace(AHM, action=AHM.action + AHM.action)
    monkeypatch.setattr(integrals, "thm48_module", doubled_action)
    rep = thm48_check(CA)
    result = next(r for r in rep.results if r.name ==
                  "A (x) H (x) M is a relative Hopf module (module 0)")
    assert result.status == "fail" and result.witness is not None
    assert result.detail == \
        "module: Hom-associativity: (m.a).alpha(b) = mu(m).(ab)"


def test_theorem56_witness(monkeypatch, CA):
    monkeypatch.setattr(galois, "quantum_trace_left",
                        _doubled(galois.quantum_trace_left))
    _assert_witnessed(
        thm56_check(CA), "theta . eta = id and eta . theta = id (module 0)",
        free_module(coinvariants(CA), 1).space, "theta . eta")


def test_theorem57_witness(monkeypatch, CA):
    # the Galois map before its factors are flipped is no morphism from
    # xi's source module; the A-linearity identity lives on (A (x) A) (x) A
    monkeypatch.setattr(galois, "galois_xi", galois_psi_ambient)
    _assert_witnessed(thm57_check(CA), "xi respects the action and coaction",
                      tensor_space(CA.space, CA.space, CA.space), "A-linear")


def test_prop51_witness(monkeypatch, CA):
    gamma = find_quantum_integral(CA, require_total=True)
    monkeypatch.setattr(galois, "quantum_trace_left",
                        _doubled(galois.quantum_trace_left))
    _assert_witnessed(prop51_check(CA, gamma),
                      "t^l restricts to the identity on B",
                      coinvariants(CA).algebra.space)


def _twice(f):
    return f + f


def _double_coalgebra_map(H, key):
    C = H.coalgebra
    return replace(H, coalgebra=replace(C, **{key: _twice(getattr(C, key))}))


# (check, name, mutant of CA, domain of the failing identity)
_STRUCTURE_MUTANTS = [
    (check_hom_algebra, "alpha(1) = 1",
     lambda CA: replace(CA.algebra, alpha=_twice(CA.algebra.alpha)),
     lambda CA: SCALAR_SPACE),
    (check_hom_algebra, "alpha invertible",
     lambda CA: replace(CA.algebra, alpha_inv=_twice(CA.algebra.alpha_inv)),
     lambda CA: CA.space),
    (check_hom_coalgebra, "gamma invertible",
     lambda CA: replace(CA.hopf.coalgebra,
                        gamma_inv=_twice(CA.hopf.coalgebra.gamma_inv)),
     lambda CA: CA.hopf.space),
    (check_hom_hopf, "Delta(1) = 1 (x) 1",
     lambda CA: _double_coalgebra_map(CA.hopf, "comult"),
     lambda CA: SCALAR_SPACE),
    (check_hom_hopf, "eps(1) = 1",
     lambda CA: _double_coalgebra_map(CA.hopf, "counit"),
     lambda CA: SCALAR_SPACE),
    (check_comodule_algebra, "unitality: rho(1) = 1 (x) 1",
     lambda CA: replace(CA, coaction=_twice(CA.coaction)),
     lambda CA: SCALAR_SPACE),
]


@pytest.mark.parametrize("check, name, mutant, domain", _STRUCTURE_MUTANTS,
                         ids=[m[1] for m in _STRUCTURE_MUTANTS])
def test_structure_axiom_witness(CA, check, name, mutant, domain):
    _assert_witnessed(check(mutant(CA)), name, domain(CA))


# f: A (x) B -> C over the denominators 3 and 7, least common denominator 21
_A, _B, _C = space("a0", "a1"), space("b0", "b1"), space("c0", "c1", "c2")
_F = [[Fraction(1, 3), 0, Fraction(-4, 3), 0],
      [0, 5, 1, 0],
      [2, 0, 0, Fraction(1, 7)]]


def _cols_loop_witness(lhs, rhs):
    """The witness of the first difference, found by comparing the
    materialized Fraction columns one by one."""
    fs = lhs.domain.factors
    dims = [sp.dim for sp in fs]
    for j, (left, right) in enumerate(zip(lhs.cols, rhs.cols)):
        if left != right:
            return Witness(tuple(sp.labels[i]
                                 for sp, i in zip(fs, unrank(dims, j))),
                           format_vector(lhs.codomain, left),
                           format_vector(rhs.codomain, right))
    return None


@pytest.mark.parametrize("row, col, value, basis, d", [
    # a new denominator in column 2: d 21 -> 231; columns 0 and 1 are equal
    # maps although their scaled ints differ
    (1, 2, Fraction(1, 11), ("a1", "b0"), 231),
    # the only 7 leaves column 3: d 21 -> 3
    (2, 3, 2, ("a1", "b1"), 3),
    # the same scaled int 3 over d 21 and d 231
    (2, 3, Fraction(1, 77), ("a1", "b1"), 231),
    # an entry where f has none
    (1, 0, Fraction(2, 5), ("a0", "b0"), 105),
])
def test_rational_witness_matches_the_cols_loop(row, col, value, basis, d):
    """Two maps that differ in one entry and have different least
    denominators: check_maps names the first differing basis tuple and
    both sides exactly as a comparison of the Fraction columns does."""
    dom = tensor_space(_A, _B)
    f = LinearMap.from_rows(dom, _C, _F)
    rows = [list(r) for r in _F]
    rows[row][col] = value
    # g is a product, so it holds only its scaled form until it is read
    g = LinearMap.identity(_C) @ LinearMap.from_rows(dom, _C, rows)
    assert "cols" not in vars(g)
    assert (f.scaled[0], g.scaled[0]) == (21, d)
    rep = Report("witness")
    assert not check_maps(rep, "f = g", [(f, g, "one entry")])
    result = rep.results[0]
    assert result.witness == _cols_loop_witness(f, g)
    assert result.witness.basis == basis
    assert result.detail == "one entry"
    rep = Report("witness")
    assert check_maps(rep, "f = f", [(f, LinearMap.identity(_C) @ f)])


def test_equal_scaled_ints_over_different_denominators_differ():
    """f / 2 and f / 3 share their scaled int columns; the comparison
    reads the denominators too, and the witness is the first column."""
    dom = tensor_space(_A, _B)
    half, third = (LinearMap.from_rows(dom, _C, [
        [Fraction(x, k) for x in row] for row in ([1, 0, 0, 1], [0, 1, 0, 0],
                                                  [0, 0, 1, 1])])
        for k in (2, 3))
    assert half.scaled[1] == third.scaled[1] and not half.same_matrix(third)
    rep = Report("witness")
    assert not check_maps(rep, "half = third", [(half, third)])
    assert rep.results[0].witness == _cols_loop_witness(half, third)
    assert rep.results[0].witness.basis == ("a0", "b0")


def test_an_entry_past_the_digit_limit_is_written_by_its_size():
    """An int past int()'s digit limit is written by its bit length, also
    as a Fraction's numerator; smaller scalars as str writes them."""
    big = 10 ** 8596
    sp = space("x", "y")
    assert format_vector(sp, ((0, big), (1, -big))) == \
        "<28556-bit integer>·x + -<28556-bit integer>·y"
    assert format_vector(sp, ((1, Fraction(-big, 3)),)) == \
        "-<28556-bit integer>/3·y"
    assert format_vector(sp, ((0, Fraction(-7, 3)), (1, 10 ** 20))) == \
        "-7/3·x + 100000000000000000000·y"
