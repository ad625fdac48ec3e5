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


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)
