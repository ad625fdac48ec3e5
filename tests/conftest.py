"""Shared pytest hooks and fixtures.

The acceptance tests record one verdict line per criterion; printing them
from inside a test would be swallowed by capture, so they are replayed in
the terminal summary where they are always visible.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from homhopf.verify import check_maps

ACCEPTANCE_LINES: list = []

ROOT = Path(__file__).resolve().parents[1]
REBASED = ["kC3-rebased.json", "kC4-rebased.json", "sweedler-H4-rebased.json",
           "kC3-twisted-rebased.json", "trivial-k-over-H4-rebased.json"]


@pytest.fixture(scope="session")
def seed1_rebased(tmp_path_factory):
    """The folder of the benchmark's seed-1 REBASED files, made once by
    make_inputs.py."""
    folder = tmp_path_factory.mktemp("seed1")
    subprocess.run([sys.executable, str(ROOT / "verdictbench" /
                                        "make_inputs.py"),
                    "--seed", "1", "--out", str(folder), *REBASED],
                   env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                   check=True, capture_output=True, timeout=60)
    return folder


def _seam(monkeypatch, *patched) -> list:
    """(name, factor dims, verdict, lhs, rhs) of each identity that the
    patched modules compare through check_identity or check_maps, in the
    order compared.  The dims are those of the witness (factors, by default
    lhs's domain factors); check_maps's reduced identities come first, and
    its others only if it reads them, up to the first that fails."""
    calls = []

    def seen(name, identities, factors):
        for ident in identities() if callable(identities) else identities:
            lhs, rhs = ident[:2]
            calls.append((name, tuple(sp.dim for sp in factors
                                      or lhs.domain.factors),
                          lhs.same_matrix(rhs), lhs, rhs))
            yield ident

    def maps(report, name, identities, factors=None, out_space=None,
             reduced=()):
        return check_maps(report, name,
                          lambda: seen(name, identities, factors), factors,
                          out_space, reduced=reduced and seen(name, reduced,
                                                              None))

    for module in patched:
        monkeypatch.setattr(module, "check_maps", maps)
        monkeypatch.setattr(module, "check_identity", lambda report, name,
                            factors, out_space, lhs, rhs: maps(
                                report, name, [(lhs, rhs)], factors,
                                out_space))
    return calls


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)
