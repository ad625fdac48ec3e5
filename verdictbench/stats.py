"""Order statistics and span self times."""

from __future__ import annotations

from collections import defaultdict
from typing import Sequence


def median_low(xs: Sequence[float]) -> float:
    """The lower median: a sample that was actually measured."""
    if not xs:
        raise ValueError("median of no samples")
    return sorted(xs)[(len(xs) - 1) // 2]


def median(xs: Sequence[float]) -> float:
    if not xs:
        raise ValueError("median of no samples")
    s = sorted(xs)
    mid = len(s) // 2
    return s[mid] if len(s) % 2 else (s[mid - 1] + s[mid]) / 2


def percentile(xs: Sequence[float], q: float) -> float:
    """Linear-interpolated q-th percentile, 0 <= q <= 100."""
    if not xs:
        raise ValueError("percentile of no samples")
    s = sorted(xs)
    pos = (len(s) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def self_times(spans: Sequence[tuple[str, float, float, int]]
               ) -> dict[str, float]:
    """Total self time per span name.

    ``spans`` are ``(name, start, end, parent)`` with ``parent`` the index of
    the enclosing span or -1.  A span's self time is its duration minus the
    durations of its direct children, which nest inside it.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for i, (name, start, end, _) in enumerate(spans):
        out[name] += (end - start) - child[i]
    return dict(out)

