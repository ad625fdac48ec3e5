"""Self-tests of the benchmark: ``python -m pytest verdictbench/tests -q``."""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import gen  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402


def test_median_and_percentile():
    assert stats.median([3, 1, 2]) == 2
    assert stats.median([4, 1, 2, 3]) == 2.5
    assert stats.median_low([4, 1, 2, 3]) == 2
    assert stats.percentile([1, 2, 3, 4, 5], 50) == 3
    assert stats.percentile([1, 2, 3, 4, 5], 90) == pytest.approx(4.6)
    assert stats.percentile([7], 99) == 7
    with pytest.raises(ValueError):
        stats.median([])


def test_self_times_add_up_to_covered_time():
    spans = [("a", 0.0, 10.0, -1),      # a: 10 s, children 3 + 4
             ("b", 1.0, 4.0, 0),        # b: 3 s, child 1
             ("c", 2.0, 3.0, 1),
             ("b", 5.0, 9.0, 0),        # b nested directly in a again
             ("d", 11.0, 12.0, -1)]
    selfs = stats.self_times(spans)
    assert selfs == pytest.approx({"a": 3.0, "b": 6.0, "c": 1.0, "d": 1.0})
    top = sum(end - start for _, start, end, parent in spans if parent < 0)
    assert sum(selfs.values()) == pytest.approx(top)


TRACEBACK = b"""Traceback (most recent call last):
  File "cli.py", line 214, in <module>
IndexError: tuple index out of range
"""


def _report(ok: bool, certs: dict, witness: bool = False) -> bytes:
    result = {"name": "x", "status": "pass" if ok else "fail"}
    if witness:
        result["witness"] = {"basis": ["g"], "lhs": "1", "rhs": "0"}
    doc = {"title": "t", "ok": ok, "results": [result],
           "certificates": certs}
    return b"t\nwall-time: 0.1s\n---\n" + json.dumps(doc).encode() + b"\n"


def test_judge_classifies_crash_timeout_refused_wrong():
    exp = workloads.expect("theorem --id 5.8 kC2.json")
    good = _report(True, {"total_quantum_integral": True,
                          "coinvariant_dim": 1, "galois": "bijective",
                          "equivalence": True})
    assert workloads.judge(exp, 0, False, good, b"") == ("pass", "")
    kind, detail = workloads.judge(exp, 1, False, b"", TRACEBACK)
    assert (kind, detail) == ("crash", "IndexError: tuple index out of range")
    assert workloads.judge(exp, -9, True, b"", b"")[0] == "timeout"
    assert workloads.judge(exp, 2, False, b"", b"error: x")[0] == "refused"
    wrong = _report(True, {"galois": "neither"})
    assert workloads.judge(exp, 0, False, wrong, b"")[0] == "wrong"
    # the wall-time line is not read: only the JSON after ---
    assert workloads.judge(exp, 0, False, b"wall-time: 1s\n", b"")[0] \
        == "wrong"


def test_witness_exit_is_a_verdict_not_a_crash():
    exp = workloads.expect("check kC12-bad-mult.json")
    assert workloads.judge(exp, 1, False, _report(False, {}, True),
                           b"")[0] == "pass"
    assert workloads.judge(exp, 1, False, _report(False, {}), b"")[0] \
        == "wrong"


def test_seed_crash_cells_accept_either_correct_answer():
    exp = workloads.expect("theorem --id 5.8 trivial-k-over-kC2.json")
    assert workloads.judge(exp, 2, False, b"", b"error: modules")[0] \
        == "pass"


def test_emit_is_compared_byte_for_byte():
    exp = workloads.expect("catalog emit kC2")
    assert workloads.judge(exp, 0, False, b"{}\n", b"", b"{}\n")[0] == "pass"
    assert workloads.judge(exp, 0, False, b"{} \n", b"", b"{}\n")[0] \
        == "wrong"


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_cell_has_an_oracle_entry(workload):
    cells = workloads.WORKLOADS[workload]
    assert len(set(cells)) == len(cells)
    for cell in cells:
        exp = workloads.expect(cell)
        assert exp.outcomes and exp.why
    for name in workloads.input_files(workload):
        assert name.removesuffix(".json") in workloads.FACTS \
            or name.removesuffix(".json") in (
                c.split()[2] for c in cells if c.startswith("catalog"))


def test_change_of_basis_is_invertible():
    rng = random.Random(7)
    for n in (1, 2, 4, 6):
        p = gen.random_invertible(rng, n)
        ident = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        assert gen.matmul(p, gen.inverse(p)) == ident


def test_corruptions_change_exactly_one_constant():
    import make_inputs
    base = json.loads(make_inputs.file_text("kC4.json", 0))
    bad = gen.corrupt_hopf_mult(base, random.Random(1))
    diff = [(r, c) for r, row in enumerate(base["hopf"]["mult"])
            for c, x in enumerate(row) if bad["hopf"]["mult"][r][c] != x]
    assert len(diff) == 1
    h4 = json.loads(make_inputs.file_text("sweedler-H4.json", 0))
    bad = gen.corrupt_unit_action(h4, "G(A)", random.Random(1))
    old, new = h4["modules"]["G(A)"]["action"], bad["modules"]["G(A)"]["action"]
    diff = [(r, c) for r, row in enumerate(old)
            for c, x in enumerate(row) if new[r][c] != x]
    assert len(diff) == 1 and diff[0][1] % 4 == 0      # a column m (x) 1_A


def _make(tmp_path, seed: int, hashseed: str, files: list[str]) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hashseed,
               PYTHONPATH=os.path.join(os.path.dirname(BENCH), "src"))
    out = subprocess.run(
        [sys.executable, os.path.join(BENCH, "make_inputs.py"), "--seed",
         str(seed), "--out", str(tmp_path / f"{seed}-{hashseed}"), *files],
        env=env, capture_output=True, check=True, timeout=120)
    return json.loads(out.stdout)


def test_inputs_are_a_function_of_the_seed(tmp_path):
    files = ["kC4-rebased.json", "kC3-twisted-rebased.json",
             "kC4-bad-mult.json", "kC3-A.json"]
    first = _make(tmp_path, 5, "1", files)
    assert _make(tmp_path, 5, "2", files) == first
    other = _make(tmp_path, 6, "1", files)
    assert other["kC3-A.json"] == first["kC3-A.json"]
    for name in ("kC4-rebased.json", "kC3-twisted-rebased.json",
                 "kC4-bad-mult.json"):
        assert other[name] != first[name]


def test_benchmark_json_lists_what_run_reports():
    import run
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in doc["workloads"]] \
        == list(workloads.WORKLOADS)


def test_reference_prints_its_checksum():
    import ref
    assert ref.checksum() == ref.CHECKSUM


def test_times_are_scaled_by_the_nearest_reference_runs():
    import run

    def sample(wall, refs_before=1, timed_out=False):
        return run.Run(wall, wall, 20.0, 0, timed_out, b"", b"", refs_before)

    b = object.__new__(run.Bench)
    # the host runs at half speed until the fourth reference run
    b.refs = [sample(2 * run.REF_WALL_S)] * 3 + [sample(run.REF_WALL_S)] * 6
    assert b.at_ref_speed([sample(4.0)], "wall") == pytest.approx(2.0)
    assert b.at_ref_speed([sample(4.0, 8)], "cpu") == pytest.approx(4.0)
    b.cells = [run.Cell("a", plain=[sample(1.0), sample(3.0), sample(2.0)]),
               run.Cell("b", plain=[sample(15.02, timed_out=True)])]
    got = run.end_to_end(b, [sample(0.4)])
    assert got["setup_s"] == pytest.approx(0.2)
    # a cell that hit the cap counts at its measured time, unscaled
    assert got["wall_s"] == pytest.approx(1.0 + 15.02)
    assert got["cpu_s"] == pytest.approx(1.0 + 15.02)
    assert got["verdict_max_s"] == 15.02
