"""The refusals that stay: each raise below guards a caller's mistake, not a
dimension, and no other test reaches it.  A zero-dimensional space is an
answer (it passes every kernel); these are the inputs that still are not."""

import pytest

from homhopf.catalog import cyclic_group_hopf, entry
from homhopf.errors import EquivalenceViolated, NotAutomorphism
from homhopf.galois import (coinvariant_module, coinvariants, free_module,
                            thm56_adjunction)
from homhopf.integrals import (_total_integral_system, find_quantum_integral,
                               generator_epi, total_integral_identities)
from homhopf.linalg import (LinearMap, solve_affine, space, tensor_after,
                            tensor_space)
from homhopf.modules import (RelHopfModule, induce_G, prop31_v,
                             regular_rel_hopf)
from homhopf.records import replace
from homhopf.report import Report
from homhopf.structures import HomAlgebra, HomHopfAlgebra, twist
from homhopf.verify import check_maps

X, Y = space("x0", "x1"), space("y0", "y1", "y2")


def _kc(n):
    return entry(f"kC{n}").comodule_algebra


def _not_total_integral():
    CA = _kc(2)
    gamma = replace(find_quantum_integral(CA), total=False)
    return generator_epi(CA, regular_rel_hopf(CA), gamma)


def _to_basis(dom, cod, targets):
    """The map sending the i-th basis vector of dom to the targets[i]-th of
    cod, or to 0 where targets[i] is None."""
    return LinearMap(dom, cod, tuple(() if t is None else ((t, 1),)
                                     for t in targets))


# kC2 coacting on itself; its basis is (1, g), and A (x) H's is
# (1(x)1, 1(x)g, g(x)1, g(x)g)
KC2 = _kc(2)
A2, AH2 = KC2.space, KC2.coaction.codomain


def _coinvariants_of(coaction):
    return coinvariants(replace(KC2, coaction=_to_basis(A2, AH2, coaction)))


def _three_dim_coinvariants(products, beta, coaction):
    """coinvariants of span(1, x, y) over kC2 with e_i e_j = e_products[i, j]
    (0 when absent), beta(e_i) = e_beta[i], rho(e_i) = coaction[i]."""
    A = space("1", "x", "y")
    mult = _to_basis(tensor_space(A, A), A,
                     [products.get(divmod(c, 3)) for c in range(9)])
    alpha = _to_basis(A, A, beta)
    algebra = HomAlgebra(A, mult, _to_basis(space("k"), A, [0]), alpha,
                         alpha.inverse())
    return coinvariants(replace(KC2, algebra=algebra, coaction=_to_basis(
        A, tensor_space(A, KC2.hopf.space), coaction)))


def _coinvariant_module_of(mu, action, coaction):
    """M^{coH} of span(m0, m1) over kC2 with mu(m_i) = m_mu[i] and basis
    vectors sent by action and coaction as listed."""
    M = space("m0", "m1")
    mu = _to_basis(M, M, mu)
    module = RelHopfModule(
        M, mu, mu.inverse(), _to_basis(tensor_space(M, A2), M, action),
        _to_basis(M, tensor_space(M, KC2.hopf.space), coaction), KC2)
    return coinvariant_module(module, coinvariants(KC2))


def _adjunction_over(CA, gamma_hat=None):
    B, gamma = coinvariants(CA), find_quantum_integral(KC2)
    if gamma_hat is not None:
        gamma = replace(gamma, gamma_hat=gamma_hat)
    return thm56_adjunction(free_module(B, 1), B, gamma)


def _alpha_moves_the_unit():
    """kC2 whose H has alpha swapping 1 and g, so n (x) 1 picks up alpha(1)
    = g in the coaction of N (x)_B A."""
    H = KC2.hopf
    flip = _to_basis(H.space, H.space, [1, 0])
    hopf = replace(H, algebra=replace(H.algebra, alpha=flip, alpha_inv=flip))
    return _adjunction_over(replace(KC2, hopf=hopf))


def _trace_leaves_b():
    """gamma_hat sending everything to g: t^l(1) = g is not in B = k1."""
    hh = find_quantum_integral(KC2).gamma_hat.domain
    return _adjunction_over(KC2, _to_basis(hh, A2, [1] * hh.dim))


def _solution_fails_its_identities():
    zero = LinearMap.zero(KC2.hopf.space, A2)
    return _total_integral_system(KC2).solve(
        lambda phi: total_integral_identities(KC2, zero), "total integral")


def _gamma_not_alpha():
    H = entry("kC3-twisted").hopf
    ident = LinearMap.identity(H.space)
    return HomHopfAlgebra.build(
        H.algebra, replace(H.coalgebra, gamma=ident, gamma_inv=ident),
        H.antipode)


@pytest.mark.parametrize("call, error, message", [
    (lambda: LinearMap.from_rows(X, Y, [[1, 0]] * 2), ValueError,
     "matrix row count does not match codomain dim"),
    (lambda: LinearMap.from_rows(X, Y, [[1, 0, 0]] * 3), ValueError,
     "matrix column count does not match domain dim"),
    (lambda: LinearMap.zero(X, Y) @ LinearMap.zero(X, Y), ValueError,
     "maps are not composable"),
    (lambda: tensor_after(LinearMap.identity(X), LinearMap.identity(X),
                          LinearMap.zero(X, tensor_space(X, Y))), ValueError,
     "maps are not composable"),
    (lambda: LinearMap.zero(X, Y) - LinearMap.zero(Y, X), ValueError,
     "maps have different shapes"),
    (lambda: LinearMap.zero(X, Y).inverse(), ValueError,
     "only square maps can be inverted"),
    (lambda: solve_affine(LinearMap.zero(X, Y), (0, 0)), ValueError,
     "rhs length does not match codomain dim"),
    (lambda: tensor_space(), ValueError,
     "a tensor product needs at least one factor"),
    (lambda: check_maps(Report(""), "square", [(LinearMap.identity(X),) * 2],
                        [X, X], X), ValueError,
     "square: maps do not match the check's shape"),
    (lambda: induce_G(regular_rel_hopf(_kc(2)).as_module(), _kc(3)),
     ValueError, "module must live over the comodule algebra's algebra"),
    (lambda: HomHopfAlgebra.build(cyclic_group_hopf(2).algebra,
                                  cyclic_group_hopf(3).coalgebra,
                                  cyclic_group_hopf(2).antipode), ValueError,
     "algebra and coalgebra must share the underlying space"),
    (_gamma_not_alpha, ValueError, "Hopf structure needs gamma = alpha"),
    (lambda: twist(cyclic_group_hopf(2),
                   LinearMap.zero(*(cyclic_group_hopf(2).space,) * 2)),
     NotAutomorphism, "twisting map is not invertible"),
    (lambda: prop31_v(entry("matrix-datum-2").comodule_algebra), ValueError,
     "this operation needs a bijective antipode"),
    (_not_total_integral, ValueError,
     "the generator epimorphism needs a total quantum integral"),
    # rho(a) = a (x) g: no a has rho(a) = a (x) 1
    (lambda: _coinvariants_of([1, 3]), ValueError,
     "coinvariants are zero; B must contain 1_A"),
    # rho(1) = 1 (x) g, rho(g) = g (x) 1: B = kg
    (lambda: _coinvariants_of([1, 2]), ValueError,
     "1_A is not coinvariant; coaction is not unital"),
    # k[x]/(x^3) with y = x^2 and rho(y) = y (x) g: B = span(1, x), x x = y
    (lambda: _three_dim_coinvariants(
        {(0, 0): 0, (0, 1): 1, (0, 2): 2, (1, 0): 1, (2, 0): 2, (1, 1): 2},
        [0, 1, 2], [0, 2, 5]), ValueError,
     "coinvariants are not closed under multiplication"),
    # x y = y x = x^2 = y^2 = 0, beta swaps x and y, rho(x) = y (x) 1 and
    # rho(y) = y (x) g: B = span(1, x), beta(x) = y
    (lambda: _three_dim_coinvariants(
        {(0, 0): 0, (0, 1): 1, (0, 2): 2, (1, 0): 1, (2, 0): 2},
        [0, 2, 1], [0, 4, 5]), ValueError, "coinvariants are not beta-stable"),
    # rho(m0) = m0 (x) 1, rho(m1) = m1 (x) g, m0 . 1 = m1
    (lambda: _coinvariant_module_of([0, 1], [1] * 4, [0, 3]), ValueError,
     "coinvariants are not closed under the B-action"),
    # mu swaps m0 and m1, rho(m0) = m1 (x) 1 and rho(m1) = m1 (x) g:
    # M^{coH} = k m0, mu(m0) = m1
    (lambda: _coinvariant_module_of([1, 0], [0, 0, 1, 1], [2, 3]), ValueError,
     "coinvariants are not mu-stable"),
    (_alpha_moves_the_unit, ValueError,
     "n (x) 1_A is not coinvariant in N (x)_B A"),
    (_trace_leaves_b, ValueError, "the left quantum trace does not land in B"),
    (_solution_fails_its_identities, EquivalenceViolated,
     "solved total integral fails re-verification"),
], ids=["from-rows-row-count", "from-rows-column-count", "matmul-shapes",
        "tensor-after-shapes", "sub-shapes", "inverse-not-square",
        "solve-affine-rhs-length", "tensor-of-nothing", "check-maps-shape",
        "induce-g-other-algebra", "build-other-space", "build-gamma-not-alpha",
        "twist-singular", "antipode-not-bijective", "epi-not-total",
        "coinvariants-zero", "unit-not-coinvariant", "coinvariants-not-closed",
        "coinvariants-not-beta-stable", "module-coinvariants-not-closed",
        "module-coinvariants-not-mu-stable", "eta-not-coinvariant",
        "trace-not-in-b", "solution-fails-re-verification"])
def test_a_refusal_that_stays_raises_its_error(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert type(exc.value) is error and str(exc.value) == message
