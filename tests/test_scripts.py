"""The scripts under `scripts/` run against the current package."""

import os
import subprocess
import sys
from pathlib import Path

import fermatpath

ROOT = Path(__file__).resolve().parents[1]
SRC = Path(fermatpath.__file__).resolve().parents[1]


def test_gradient_timing_runs():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "gradient_timing.py"),
         "--batch", "3", "--depths", "16", "--reps", "1"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.splitlines()
    assert header.split() == ["iterations", "solve_ms", "grad_ms"]
    assert [row.split()[0] for row in rows] == ["16"]
