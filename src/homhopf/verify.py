"""Axioms as equalities of composite maps, with witness extraction.

An axiom is stated as two linear maps on a tensor product of basis spaces.
The maps are compared column by column; column j is the image of the j-th
basis tuple in row-major (``itertools.product``) order, so the first
differing column is the first violating basis tuple.
"""

from __future__ import annotations

import math
from typing import Sequence

from .linalg import LinearMap, Space, Vector, unrank
from .report import Report, Witness


def format_vector(sp: Space, v: Vector) -> str:
    terms = []
    for c, label in zip(v, sp.labels):
        if c == 0:
            continue
        if c == 1:
            terms.append(label)
        else:
            terms.append(f"{c}·{label}")
    return " + ".join(terms) if terms else "0"


def check_identity(report: Report, name: str,
                   factors: Sequence[Space], out_space: Space,
                   lhs: LinearMap, rhs: LinearMap) -> None:
    """Compare the maps lhs, rhs: (x)factors -> out_space.

    Records a single pass/fail result; on failure the witness carries the
    first violating basis tuple and both sides, written over out_space's
    labels (the maps' own codomain labels may differ, e.g. ``1`` for ``k``).
    """
    dims = [sp.dim for sp in factors]
    for f in (lhs, rhs):
        if (f.domain.dim, f.codomain.dim) != (math.prod(dims), out_space.dim):
            raise ValueError(f"{name}: maps do not match the check's shape")
    for j, (left, right) in enumerate(zip(lhs.cols, rhs.cols)):
        if left != right:
            labels = tuple(sp.labels[i]
                           for sp, i in zip(factors, unrank(dims, j)))
            report.record(name, False, Witness(
                labels, format_vector(out_space, lhs.column(j)),
                format_vector(out_space, rhs.column(j))))
            return
    report.record(name, True)

