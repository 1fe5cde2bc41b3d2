"""The scripts under `scripts/` run against the current package."""

import json
import os
import subprocess
import sys
from pathlib import Path

import fermatpath

ROOT = Path(__file__).resolve().parents[1]
SRC = Path(fermatpath.__file__).resolve().parents[1]


def test_kernel_phases_writes_the_bench_file(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "kernel_phases.py"),
         "--label", "tiny", "--out-dir", str(tmp_path), "--batches", "2",
         "--depths", "1", "64", "--fps", "1", "4", "--iterations", "3", "--reps", "1"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads((tmp_path / "BENCH_tiny.json").read_text())
    assert {"label", "git_sha", "git_dirty", "machine", "numpy", "blas", "threads", "grid",
            "peak_rss_mb", "cells", "skipped"} <= result.keys()
    assert [(c["B"], c["n"], c["fp"]) for c in result["cells"]] == [
        (2, 1, 1), (2, 1, 4), (2, 64, 1), (2, 64, 4)
    ]
    for cell in result["cells"]:
        phases = cell["phases_s"]
        assert phases.keys() == {"step_size", "h_update", "embed", "gradient", "rest"}
        assert all(phases[k] > 0 for k in ("step_size", "h_update", "embed", "gradient"))
        assert 0 < cell["member_iterations"] <= 2 * 3
    # Every grid batch size not asked for is listed with its reason.
    reasons = {(s["B"], s["n"]): s["reason"] for s in result["skipped"] if s["fp"] == 1}
    assert reasons.pop((10000, 64)) == "two (B, 2n, 2n) arrays need 2.6 GB"
    assert reasons == {(B, n): "not in --batches" for B in (1, 100, 1000, 10000) for n in (1, 64)
                       if (B, n) != (10000, 64)}
