"""The refusals that stay: each raise below guards a caller's mistake, not a
dimension, and no other test reaches it.  A zero-dimensional space is an
answer (it passes every kernel); these are the inputs that still are not."""

import pytest

from homhopf.catalog import cyclic_group_hopf, entry
from homhopf.errors import NotAutomorphism
from homhopf.integrals import find_quantum_integral, generator_epi
from homhopf.linalg import (LinearMap, solve_affine, space, tensor_after,
                            tensor_space)
from homhopf.modules import induce_G, prop31_v, regular_rel_hopf
from homhopf.records import replace
from homhopf.report import Report
from homhopf.structures import HomHopfAlgebra, twist
from homhopf.verify import check_maps

X, Y = space("x0", "x1"), space("y0", "y1", "y2")


def _kc(n):
    return entry(f"kC{n}").comodule_algebra


def _not_total_integral():
    CA = _kc(2)
    gamma = replace(find_quantum_integral(CA), total=False)
    return generator_epi(CA, regular_rel_hopf(CA), gamma)


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
], ids=["from-rows-row-count", "from-rows-column-count", "matmul-shapes",
        "tensor-after-shapes", "sub-shapes", "inverse-not-square",
        "solve-affine-rhs-length", "tensor-of-nothing", "check-maps-shape",
        "induce-g-other-algebra", "build-other-space", "build-gamma-not-alpha",
        "twist-singular", "antipode-not-bijective", "epi-not-total"])
def test_a_refusal_that_stays_raises_its_error(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert type(exc.value) is error and str(exc.value) == message
