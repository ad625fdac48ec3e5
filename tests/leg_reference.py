"""A reference for leg reorders that shares no code with linalg's
product_after and swap_map: every row of a map is moved through one table
over the whole codomain."""

import math

from homhopf.linalg import LinearMap, tensor_space


def permute_legs(x, spaces, perm):
    """P . x, where x's codomain is the tensor product of spaces and P puts
    factor perm[t] in position t."""
    dims = [sp.dim for sp in spaces]
    assert sorted(perm) == list(range(len(dims)))
    assert math.prod(dims) == x.codomain.dim
    strides = [0] * len(dims)
    step = 1
    for p in reversed(perm):
        strides[p] = step
        step *= dims[p]
    new_row = [0]
    for d, stride in zip(dims, strides):
        new_row = [r + i * stride for r in new_row for i in range(d)]
    return LinearMap(x.domain, tensor_space(*(spaces[p] for p in perm)),
                     tuple(tuple(sorted((new_row[i], c) for i, c in col))
                           for col in x.cols))
