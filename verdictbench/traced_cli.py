"""Run one ``homhopf`` CLI verdict with spans around each layer's public
functions.

    python verdictbench/traced_cli.py SPANS_JSON CLI_ARG...

Run with the checkout's ``src`` on ``PYTHONPATH``.  Each traced function is
replaced in every ``homhopf`` namespace that holds it, because modules import
names directly (``cli`` the solvers, ``galois`` ``rank``, the checkers
``check_identity``) or at call time (``integrals`` imports ``solve_affine``
inside a function, which then reads the patched module attribute).
Per-element helpers (``bilinear``, ``tensor_vec``, ``LinearMap.apply``,
``column``) are left alone: they make millions of calls and their cost
belongs to the caller's self time.

At exit, or on SIGTERM at the time cap, writes
``{"spans": [[name, start, end, parent], ...], "counts": {...}}``; times
are ``perf_counter`` seconds and ``parent`` is a span index or -1.  Work
done to compute counts is its own span, ``trace.counters``.
"""

from __future__ import annotations

import functools
import json
import os
import signal
import sys
import time
from collections import defaultdict

import homhopf.cli
from homhopf import linalg

FUNCTIONS = (
    ("instance_io", "parse_instance"), ("catalog", "entry"),
    ("modules", "prop31_check"), ("structures", "check_hom_hopf"),
    ("structures", "check_comodule_algebra"), ("modules", "check_rel_hopf"),
    ("verify", "check_identity"), ("integrals", "thm48_module"),
    ("integrals", "generator_epi"), ("modules", "is_morphism"),
    ("integrals", "find_total_integral"),
    ("integrals", "find_quantum_integral"),
    ("integrals", "theorem43_check"), ("linalg", "solve_affine"),
    ("linalg", "rank"), ("linalg", "quotient_by"),
    ("galois", "coinvariants"), ("galois", "balanced_tensor_AA"),
    ("galois", "canonical_psi"), ("galois", "thm57_check"),
    ("galois", "cor58_check"),
)
METHODS = (("__matmul__", "matmul"), ("tensor", "tensor"),
           ("inverse", "inverse"))


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(int)

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if count is not None:
                c = self.open("trace.counters")
                try:
                    count(self.counts, args, kwargs, result)
                finally:
                    self.close(c)
            return result
        return traced

    def dump(self, path: str) -> None:
        now = time.perf_counter()
        for idx in self.stack:           # spans cut short by SIGTERM
            self.spans[idx][2] = now
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)


def _count_identity(counts, args, kwargs, result) -> None:
    report, factors = args[0], args[2]
    tuples = 1
    for sp in factors:
        tuples *= sp.dim
    counts["verify.check_identity.calls"] += 1
    counts["verify.check_identity.tuples"] += tuples
    counts["verify.check_identity.failed"] += \
        report.results[-1].status == "fail"


def _count_solve(counts, args, kwargs, result) -> None:
    coeff, rhs = args[0], args[1]
    nnz, bits = 0, 0
    for row in coeff.matrix:
        for x in row:
            if x:
                nnz += 1
                bits = max(bits, x.numerator.bit_length(),
                           x.denominator.bit_length())
    for x in rhs:
        if x:
            bits = max(bits, x.numerator.bit_length(),
                       x.denominator.bit_length())
    counts["linalg.solve_affine.calls"] += 1
    counts["linalg.solve.rows"] += coeff.codomain.dim
    counts["linalg.solve.cols"] += coeff.domain.dim
    counts["linalg.solve.cells"] += coeff.codomain.dim * coeff.domain.dim
    counts["linalg.solve.nnz"] += nnz
    counts["linalg.solve.max_entry_bits"] = max(
        counts["linalg.solve.max_entry_bits"], bits)


def _count_parse(counts, args, kwargs, result) -> None:
    counts["instance_io.parse_instance.bytes"] += len(args[0].encode())


COUNTERS = {"verify.check_identity": _count_identity,
            "linalg.solve_affine": _count_solve,
            "instance_io.parse_instance": _count_parse}


def install(tracer: Tracer) -> None:
    namespaces = [m for k, m in sys.modules.items()
                  if k == "homhopf" or k.startswith("homhopf.")]
    for module, attr in FUNCTIONS:
        original = getattr(sys.modules[f"homhopf.{module}"], attr)
        name = f"{module}.{attr}"
        traced = tracer.wrap(name, original, COUNTERS.get(name))
        for ns in namespaces:
            for key, value in list(vars(ns).items()):
                if value is original:
                    setattr(ns, key, traced)
    for attr, label in METHODS:
        original = getattr(linalg.LinearMap, attr)
        setattr(linalg.LinearMap, attr,
                tracer.wrap(f"linalg.LinearMap.{label}", original))


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)

    def on_term(signum, frame):
        tracer.dump(spans_path)
        os._exit(128 + signum)

    signal.signal(signal.SIGTERM, on_term)
    try:
        return homhopf.cli.main(cli_args)
    finally:
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
