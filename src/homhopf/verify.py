"""Identities as equalities of composite maps, with witness extraction.

An axiom or a theorem's conclusion is stated as two linear maps on a
tensor product of basis spaces.  The maps are compared column by column;
column j is the image of the j-th basis tuple in row-major
(``itertools.product``) order, so the first differing column is the first
violating basis tuple.  A witness entry past int()'s digit limit, which
str would refuse, is written by its size, as <28556-bit integer>.
"""

from __future__ import annotations

import math
from typing import Sequence

from .linalg import Column, LinearMap, Scalar, Space, unrank
from .report import Report, Witness


def _scalar(c: Scalar) -> str:
    """str(c), or c by its size where str passes int()'s digit limit."""
    try:
        return str(c)
    except ValueError:
        if type(c) is not int:
            return f"{_scalar(c.numerator)}/{_scalar(c.denominator)}"
        return "-" * (c < 0) + f"<{abs(c).bit_length()}-bit integer>"


def format_vector(sp: Space, col: Column) -> str:
    labels = sp.labels
    return " + ".join(labels[i] if c == 1 else f"{_scalar(c)}·{labels[i]}"
                      for i, c in col) or "0"


def check_identity(report: Report, name: str,
                   factors: Sequence[Space], out_space: Space,
                   lhs: LinearMap, rhs: LinearMap) -> bool:
    """Compare the maps lhs, rhs: (x)factors -> out_space, with the witness
    written over out_space's labels (the maps' own codomain labels may
    differ, e.g. ``k⊗g`` for ``g``); return the verdict."""
    return check_maps(report, name, [(lhs, rhs)], factors, out_space)


def check_maps(report: Report, name: str, identities,
               factors: Sequence[Space] | None = None,
               out_space: Space | None = None, reduced=()) -> bool:
    """Record one result under name for the identities (lhs, rhs) or
    (lhs, rhs, label), or a function returning them, in turn; the first
    difference fails with its basis tuple over factors (default: lhs's
    domain factors), both sides over out_space (default: lhs's codomain)
    and the label as detail.  identities passes unread if the reduced ones
    are given and all hold, which the caller's docstring proves enough."""
    if reduced and check_maps(Report(""), name, reduced):
        identities = ()
    for lhs, rhs, *label in (identities() if callable(identities)
                             else identities):
        fs, out = factors or lhs.domain.factors, out_space or lhs.codomain
        dims = [sp.dim for sp in fs]
        for f in (lhs, rhs):
            if (f.domain.dim, f.codomain.dim) != (math.prod(dims), out.dim):
                raise ValueError(f"{name}: maps do not match the check's shape")
        if not lhs.same_matrix(rhs):
            j = next(j for j, (a, b) in enumerate(zip(lhs.cols, rhs.cols))
                     if a != b)
            labels = tuple(sp.labels[i] for sp, i in zip(fs, unrank(dims, j)))
            report.record(name, False, Witness(
                labels, format_vector(out, lhs.cols[j]),
                format_vector(out, rhs.cols[j])), *label)
            return False
    report.record(name, True)
    return True


def record_suite(report: Report, name: str, suite: Report) -> None:
    """Record the verdict of a sub-suite under name; a failure carries the
    suite's first failure: its witness, and its check's name as detail."""
    first = next(iter(suite.failures), None)
    report.record(name, first is None, first and first.witness,
                  first and first.name)
