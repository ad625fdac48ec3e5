"""A fixed reference process that gauges the host's speed.

    python verdictbench/ref.py

It does what a small ``homhopf`` verdict does, with none of the code under
test: it starts an interpreter, imports the standard-library modules the
CLI imports, and inverts a fixed rational matrix by Gauss-Jordan
elimination over ``Fraction``.  It prints one checksum line, which
``run.py`` compares with ``CHECKSUM``.  ``run.py`` runs it between verdicts
and scales every reported time by its median, so that the host's speed,
which drifts from minute to minute, cancels out of the reported times.
Changing this file changes the scale of every time metric.
"""

from __future__ import annotations

import argparse  # noqa: F401  (imported for its start-up cost)
import dataclasses  # noqa: F401
import itertools  # noqa: F401
import json
import random
from fractions import Fraction

N = 16
CHECKSUM = "ref 16 1703 21a0c42c"


def inverse(m: list[list[Fraction]]) -> list[list[Fraction]]:
    n = len(m)
    aug = [row + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(m)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col])
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def checksum() -> str:
    rng = random.Random(24)
    m = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(N)]
         for _ in range(N)]
    text = json.dumps([[str(x) for x in row] for row in inverse(m)])
    digest = 0
    for ch in text:
        digest = (digest * 31 + ord(ch)) % (1 << 32)
    return f"ref {N} {len(text) % 9973} {digest:08x}"


if __name__ == "__main__":
    print(checksum())
