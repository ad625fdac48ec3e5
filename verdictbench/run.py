"""Time-to-verdict benchmark for the ``homhopf`` CLI.

    python3 verdictbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Builds the workload's instance files from
the seed (timed as ``setup_s``), then runs a closed loop with one client:
each verdict is ``python -m homhopf.cli ...`` on the checkout's ``src``, the
next starts after the previous child exits.  One full pass over the
workload's cells is followed by S seconds of repeats (see ``Bench.loop``);
a cell that hits the cap is not repeated.  Every verdict is judged against
the oracle in ``workloads.py``.

The host's speed drifts by tens of percent from minute to minute, so the
end-to-end times are scaled to a reference speed: ``ref.py``, a fixed
process that does no ``homhopf`` work, runs before each set-up build and
between verdicts, at least ``REF_EVERY_S`` apart, and each measured time is
multiplied by ``REF_WALL_S`` (``REF_CPU_S`` for CPU time) over the median
of the NEAR_REFS reference runs nearest it in time.  A cell that hit the
cap counts at its measured time, unscaled, because the cap is wall-clock
time on every host.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs each cell
plain and then under ``traced_cli.py`` and reports per-layer self times and
counts from the traced runs.  The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import ref  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402
from gen import sha256  # noqa: E402

# Set-up builds: at least SETUPS, and more, up to SETUPS_MAX, while they
# have taken less than SETUP_BUDGET_S, so that a cheap set-up is sampled
# often enough for its median to be steady.
SETUPS = 3
SETUPS_MAX = 7
SETUP_BUDGET_S = 4.0
SETUP_CAP_S = 60.0
TERM_GRACE_S = 2.0
# The reference's median wall and CPU time on the machine described in the
# README; the reported times are seconds on a host of that speed.
REF_WALL_S = 0.14
REF_CPU_S = 0.14
REF_EVERY_S = 1.0
NEAR_REFS = 4
RANK_WEIGHT = 3

END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s",
              "verdict_p50_s": "s", "verdict_max_s": "s",
              "peak_rss_mb": "MB", "pass_share": "ratio"}
LAYER_SELF = ["instance_io.parse_instance", "catalog.entry",
              "modules.prop31_check", "structures.check_hom_hopf",
              "structures.check_comodule_algebra", "modules.check_rel_hopf",
              "verify.check_identity", "integrals.thm48_module",
              "integrals.generator_epi", "modules.is_morphism",
              "integrals.find_total_integral",
              "integrals.find_quantum_integral", "integrals.theorem43_check",
              "linalg.solve_affine", "linalg.rank", "linalg.quotient_by",
              "linalg.LinearMap.matmul", "linalg.LinearMap.tensor",
              "linalg.LinearMap.inverse", "galois.coinvariants",
              "galois.balanced_tensor_AA", "galois.canonical_psi",
              "galois.thm57_check", "galois.cor58_check", "trace.counters"]
LAYER_COUNTS = {"instance_io.parse_instance.bytes": "bytes",
                "verify.check_identity.calls": "count",
                "verify.check_identity.failed": "count",
                "verify.check_identity.tuples": "count",
                "linalg.solve_affine.calls": "count",
                "linalg.solve.rows": "count", "linalg.solve.cols": "count",
                "linalg.solve.cells": "count", "linalg.solve.nnz": "count",
                "linalg.solve.max_entry_bits": "bits"}
PER_LAYER = {"cli.startup_s": "s", "cli.self_s": "s", "trace.wall_s": "s",
             "trace.overhead_share": "ratio",
             **{f"{n}.self_s": "s" for n in LAYER_SELF}, **LAYER_COUNTS,
             "linalg.solve.density": "ratio"}


@dataclass
class Run:
    """One finished child process."""

    wall: float
    cpu: float
    rss_mb: float
    rc: int
    timed_out: bool
    stdout: bytes
    stderr: bytes
    refs_before: int = 0    # reference runs made before this one started


@dataclass
class Cell:
    cid: str
    plain: list[Run] = field(default_factory=list)
    traced: list[tuple[Run, dict]] = field(default_factory=list)
    verdicts: list[tuple[str, str]] = field(default_factory=list)

    @property
    def failed(self) -> Optional[tuple[str, str]]:
        return next((v for v in self.verdicts if v[0] != "pass"), None)

    @property
    def timed_out(self) -> bool:
        return any(r.timed_out for r in self.plain)

    def latency(self) -> float:
        return stats.median([r.wall for r in self.plain])


def run_child(argv: list[str], env: dict, cwd: str, cap: float,
              term_first: bool = False) -> Run:
    """Run argv to exit or to the cap, timing from spawn to reaping.

    The cap is a SIGALRM timer, so the benchmark starts no thread.  At the
    cap the child gets SIGKILL, or with ``term_first`` SIGTERM and then
    SIGKILL after a grace period, so a traced child can write its spans.
    """
    out_path = os.path.join(cwd, ".stdout")
    err_path = os.path.join(cwd, ".stderr")
    state = {"timed_out": False}
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env,
                                cwd=cwd)

    def on_alarm(signum, frame):
        if term_first and not state["timed_out"]:
            state["timed_out"] = True
            proc.send_signal(signal.SIGTERM)
            signal.setitimer(signal.ITIMER_REAL, TERM_GRACE_S)
        else:
            state["timed_out"] = True
            proc.kill()

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, cap)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "rb") as fh:
        stdout = fh.read()
    with open(err_path, "rb") as fh:
        stderr = fh.read()
    return Run(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
               proc.returncode, state["timed_out"], stdout, stderr)


class Bench:
    def __init__(self, workload: str, seed: int, trace: bool):
        self.workload, self.seed, self.trace = workload, seed, trace
        self.base = os.path.join(ROOT, ".verdictbench")
        self.work = os.path.join(self.base, f"{workload}-{seed}")
        # children write and use the bytecode cache, whatever the caller's
        # environment says, so every verdict after the warm-up imports it
        self.env = {k: v for k, v in os.environ.items()
                    if k not in ("HOMHOPF_MAX_DIM", "PYTHONPATH",
                                 "PYTHONDONTWRITEBYTECODE")}
        self.env.update(PYTHONPATH=os.path.join(ROOT, "src"),
                        PYTHONHASHSEED="0")
        self.cells = [Cell(c) for c in workloads.WORKLOADS[workload]]
        self.expect = {c.cid: workloads.expect(c.cid) for c in self.cells}
        self.files = workloads.input_files(workload)
        self.emitted: dict[str, bytes] = {}
        self.digests: dict[str, str] = {}
        self.refs: list[Run] = []
        self.last_ref = float("-inf")

    def cli(self, args: list[str]) -> list[str]:
        return [sys.executable, "-m", "homhopf.cli", *args]

    def reference(self) -> None:
        """Run ``ref.py`` once (not when tracing, whose times are not
        scaled); it must print its checksum."""
        if self.trace:
            return
        r = run_child([sys.executable, os.path.join(HERE, "ref.py")],
                      self.env, self.work, workloads.CAP_S)
        if r.rc != 0 or r.timed_out \
                or r.stdout.decode(errors="replace").strip() != ref.CHECKSUM:
            raise SystemExit("reference process failed:\n"
                             + r.stderr.decode(errors="replace"))
        self.refs.append(r)
        self.last_ref = time.perf_counter()

    def at_ref_speed(self, runs: list[Run], attr: str) -> float:
        """Median over ``runs`` of their ``attr`` ("wall" or "cpu"), each
        scaled by the median of the NEAR_REFS reference runs nearest it:
        half made before it started, half after."""
        nominal = REF_WALL_S if attr == "wall" else REF_CPU_S
        half = NEAR_REFS // 2
        scaled = []
        for r in runs:
            near = self.refs[max(0, r.refs_before - half):
                             r.refs_before + half]
            scaled.append(getattr(r, attr) * nominal
                          / stats.median([getattr(q, attr) for q in near]))
        return stats.median(scaled)

    def setup(self) -> list[Run]:
        """Build the inputs SETUPS to SETUPS_MAX times (once when tracing);
        every build must write byte-identical files."""
        builds: list[Run] = []
        least, most = (1, 1) if self.trace else (SETUPS, SETUPS_MAX)
        while len(builds) < least or (
                len(builds) < most
                and sum(r.wall for r in builds) < SETUP_BUDGET_S):
            shutil.rmtree(self.work, ignore_errors=True)
            os.makedirs(self.work)
            self.reference()
            r = run_child([sys.executable, os.path.join(HERE, "make_inputs.py"),
                           "--seed", str(self.seed), "--out", self.work,
                           *self.files], self.env, self.work, SETUP_CAP_S)
            if r.rc != 0 or r.timed_out:
                raise SystemExit("setup failed:\n"
                                 + r.stderr.decode(errors="replace"))
            digests = json.loads(r.stdout.decode().strip().splitlines()[-1])
            if self.digests and digests != self.digests:
                raise SystemExit("setup is not deterministic for this seed")
            self.digests = digests
            r.refs_before = len(self.refs)
            builds.append(r)
        for name in self.files:
            with open(os.path.join(self.work, name), "rb") as fh:
                data = fh.read()
            if sha256(data) != self.digests[name]:
                raise SystemExit(f"{name} changed after setup")
            self.emitted[name] = data
        return builds

    def startup(self) -> list[float]:
        """Untimed warm-up (fills the bytecode cache), then fresh
        ``catalog list`` runs when tracing."""
        walls = []
        for _ in range(4 if self.trace else 1):
            r = run_child(self.cli(["catalog", "list"]), self.env, self.work,
                          workloads.CAP_S)
            if r.rc != 0:
                raise SystemExit("catalog list failed:\n"
                                 + r.stderr.decode(errors="replace"))
            walls.append(r.wall)
        return walls[1:]

    def verdict(self, cell: Cell) -> None:
        """Run one verdict (and its traced twin) and judge it, after a
        reference run if the last one is ``REF_EVERY_S`` old."""
        if time.perf_counter() - self.last_ref >= REF_EVERY_S:
            self.reference()
        args = cell.cid.split()
        emitted = (self.emitted.get(args[2] + ".json")
                   if args[0] == "catalog" else None)
        run = run_child(self.cli(args), self.env, self.work, workloads.CAP_S)
        run.refs_before = len(self.refs)
        cell.plain.append(run)
        cell.verdicts.append(workloads.judge(
            self.expect[cell.cid], run.rc, run.timed_out, run.stdout,
            run.stderr, emitted))
        if not self.trace:
            return
        spans_path = os.path.join(self.work, ".spans.json")
        if os.path.exists(spans_path):
            os.remove(spans_path)
        traced = run_child(
            [sys.executable, os.path.join(HERE, "traced_cli.py"), spans_path,
             *args], self.env, self.work, workloads.CAP_S, term_first=True)
        cell.verdicts.append(workloads.judge(
            self.expect[cell.cid], traced.rc, traced.timed_out,
            traced.stdout, traced.stderr, emitted))
        try:
            with open(spans_path, encoding="utf-8") as fh:
                doc = json.load(fh)
        except FileNotFoundError:       # killed before it could write
            doc = {"spans": [], "counts": {}}
        cell.traced.append((traced, doc))

    def loop(self, seconds: float) -> None:
        """One full pass, then ``seconds`` of repeats; a cell that hit the
        cap is not repeated, as its latency is the cap.

        The repeats are a weighted round robin: each goes to the cell with
        the fewest samples per unit of weight.  The cells whose medians
        alone set ``verdict_p50_s`` and ``verdict_max_s`` (the middle one
        or two and the slowest, by the medians so far) weigh RANK_WEIGHT,
        the others 1, so those two metrics do not rest on one or two
        samples."""
        for cell in self.cells:
            self.verdict(cell)
        repeat = [c for c in self.cells if not c.timed_out]
        deadline = time.perf_counter() + seconds
        while repeat and time.perf_counter() < deadline:
            ranked = [c.cid for c in sorted(self.cells, key=Cell.latency)]
            n = len(ranked)
            weighty = {ranked[(n - 1) // 2], ranked[n // 2], ranked[-1]}
            self.verdict(min(repeat, key=lambda c: len(c.plain) / (
                RANK_WEIGHT if c.cid in weighty else 1)))


def end_to_end(b: Bench, builds: list[Run]) -> dict[str, float]:
    # a cell that hit the cap ran once, for the cap's wall-clock time
    lat = [c.latency() if c.timed_out else b.at_ref_speed(c.plain, "wall")
           for c in b.cells]
    cpu = [c.plain[0].cpu if c.timed_out else b.at_ref_speed(c.plain, "cpu")
           for c in b.cells]
    return {
        "setup_s": b.at_ref_speed(builds, "wall"),
        "wall_s": sum(lat),
        "cpu_s": sum(cpu),
        "verdict_p50_s": stats.median(lat),
        "verdict_max_s": max(lat),
        # a verdict cut off at the cap has used as much memory as it had
        # reached by then, which says more about the cap than the verdict
        "peak_rss_mb": max(r.rss_mb for c in b.cells for r in c.plain
                           if not r.timed_out),
        "pass_share": sum(c.failed is None for c in b.cells) / len(b.cells),
    }


def representative(cell: Cell) -> tuple[Run, dict]:
    """The traced sample with the lower-median wall time, so that all of a
    cell's layer numbers come from one run and add up."""
    wall = stats.median_low([r.wall for r, _ in cell.traced])
    return next(t for t in cell.traced if t[0].wall == wall)


def per_layer(b: Bench, startup: list[float]) -> dict[str, float]:
    out = defaultdict(float)
    out["cli.startup_s"] = stats.median(startup)
    for cell in b.cells:
        run, doc = representative(cell)
        selfs = stats.self_times(doc["spans"])
        for name, value in selfs.items():
            out[f"{name}.self_s"] += value
        outside = run.wall - sum(selfs.values())
        if outside < 0:
            raise SystemExit(f"spans of {cell.cid} exceed its wall time")
        out["cli.self_s"] += outside
        out["trace.wall_s"] += run.wall
        for name, value in doc["counts"].items():
            if name.endswith("max_entry_bits"):
                out[name] = max(out[name], value)
            else:
                out[name] += value
    plain = sum(c.latency() for c in b.cells)
    traced = sum(stats.median([r.wall for r, _ in c.traced])
                 for c in b.cells)
    out["trace.overhead_share"] = traced / plain - 1
    # nonzeros over entries, summed over every solve's coefficient matrix
    out["linalg.solve.density"] = (
        out["linalg.solve.nnz"] / out["linalg.solve.cells"]
        if out["linalg.solve.cells"] else 0.0)
    return {k: out[k] for k in PER_LAYER}


def inclusive(spans: list) -> dict[str, float]:
    """Time inside each span name, not counting a span nested in another
    span of the same name twice."""
    out: dict[str, float] = defaultdict(float)
    for name, start, end, parent in spans:
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            out[name] += end - start
    return out


def print_report(b: Bench, metrics: dict[str, float],
                 units: dict[str, str]) -> None:
    print(f"workload {b.workload}, seed {b.seed}, cap {workloads.CAP_S:g} s, "
          f"{len(b.cells)} cells, "
          f"{sum(len(c.plain) for c in b.cells)} timed verdicts")
    for name in sorted(b.digests):
        print(f"  input {name} sha256 {b.digests[name]}")
    if b.refs:
        print(f"  reference: {len(b.refs)} runs, median "
              f"{stats.median([r.wall for r in b.refs]):.4f} s wall and "
              f"{stats.median([r.cpu for r in b.refs]):.4f} s CPU "
              f"(nominal {REF_WALL_S:g} and {REF_CPU_S:g}); cell times "
              f"below are unscaled")
    for c in b.cells:
        kind = c.failed[0] if c.failed else "pass"
        line = (f"  {kind:8s} {c.latency():8.3f} s  n={len(c.plain)}  "
                f"{c.cid}")
        if b.trace:
            doc = representative(c)[1]
            incl = sorted(inclusive(doc["spans"]).items(),
                          key=lambda kv: -kv[1])[:2]
            line += "  [" + ", ".join(f"{k} {v:.2f}" for k, v in incl) + "]"
        print(line)
    failed = [c for c in b.cells if c.failed]
    print(f"failed_share {len(failed)}/{len(b.cells)} = "
          f"{len(failed) / len(b.cells):.4f}")
    for c in failed:
        print(f"  FAILED {c.failed[0]}: {c.cid}: {c.failed[1]}")
        print(f"    expected because {b.expect[c.cid].why}")
    lat = sorted(c.latency() for c in b.cells)
    if len(lat) >= 20:
        q = 100 * (len(lat) - 10) / len(lat)
        print(f"verdict p{q:.0f} {stats.percentile(lat, q):.4f} s "
              f"over {len(lat)} cells")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")


def main(argv: Optional[list[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "homhopf", "cli.py")):
        print(f"no homhopf sources under {ROOT}/src", file=sys.stderr)
        return 2

    b = Bench(args.workload, args.seed, bool(args.trace))
    builds = b.setup()
    startup = b.startup()
    b.loop(args.seconds)
    if b.trace:
        metrics, units = per_layer(b, startup), PER_LAYER
        spans = [[c.cid, *s] for c in b.cells
                 for s in representative(c)[1]["spans"]]
        with open(os.path.join(b.base, f"spans-{b.workload}-{b.seed}.json"),
                  "w", encoding="utf-8") as fh:
            json.dump({"fields": ["cell", "name", "start", "end", "parent"],
                       "spans": spans}, fh)
    else:
        metrics, units = end_to_end(b, builds), END_TO_END
    shutil.rmtree(b.work, ignore_errors=True)
    print_report(b, metrics, units)
    verdicts = [v for c in b.cells for v in c.verdicts]
    print(json.dumps({
        "correct": all(kind != "wrong" for kind, _ in verdicts),
        "attempted": len(b.cells),
        "failed": sum(c.failed is not None for c in b.cells),
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
