#!/usr/bin/env python3
"""Run a fermatpath benchmark workload and print every metric by name.

    python3 perfbench/run.py --workload bulk-mixed --seed 1 --seconds 6 --trace 0

Run it from the repository root. The workload runs in a fresh worker process
(perfbench/worker.py) that imports the package from ./src with BLAS and
OpenMP threads pinned to 1. With ``--trace 0`` the metrics are the end-to-end
metrics of BENCHMARK.json. With ``--trace 1`` every second request is traced;
the metrics are the per-layer metrics of BENCHMARK.json, and the end-to-end
lines printed above them come from the untraced requests. ``--workload all``
runs every workload in turn. Timing metrics are calibrated for the machine's
speed at the time (see calibrate.py); the raw wall times are printed beside
them.

Before the final line the run prints one ``perfbench-record`` line: the
machine, versions, input digests and every number, for compare.py. The
final line is one JSON object with the keys correct, attempted, failed and
metrics. Attempted and failed count scene members. Correct is false when a
member's output is wrong rather than short of the solver's accuracy target
(see workloads.py). The exit code is not 0, and no result is printed, when
the package or BENCHMARK.json is missing or a check cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PINNED_THREADS = "1"
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# A workload's run must end within 180 s; leave room to print and clean up.
WORKER_TIMEOUT_S = 170


class BenchError(Exception):
    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {path.name}: {exc}", 2)


def run_worker(workload, seed, seconds, trace) -> dict:
    if not (ROOT / "src" / "fermatpath" / "__init__.py").is_file():
        raise BenchError("src/fermatpath not found; run from a repository checkout", 2)
    env = dict(os.environ)
    env.update({v: PINNED_THREADS for v in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=ROOT / ".perfbench")
    argv = [sys.executable, str(HERE / "worker.py"), workload, str(seed), str(seconds),
            "1" if trace else "0", workdir]
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: worker did not finish in {WORKER_TIMEOUT_S} s", 4)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload}: worker exited with code {proc.returncode}", 3)
    return json.loads(lines[-1])


def _notes(result) -> dict:
    n = result["requests"]
    return {
        "setup_s": f"median of {result['setups']} set-ups",
        "paths_per_s": f"{n} requests x {result['members']} scenes",
        "request_ms.p50": f"n={n}",
        "request_ms.tail": f"p{result.get('tail_percentile', 0):.1f}, n={n}, 10 beyond",
    }


def report(spec, workload, seed, seconds, trace, result) -> dict:
    """Print one workload's metrics; return those the final line carries."""
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    notes = _notes(result)
    note = " (untraced requests)" if trace else ""
    print(f"workload {workload}  seed {seed}  seconds {seconds:g}  trace {int(trace)}")
    print(f"  calibrated timings; median speed factor {result['speed_factor']:.4g}")
    for name, unit in e2e.items():
        if name in result:
            raw = f"raw {result['raw'][name]:.6g}, " if name in result["raw"] else ""
            print(f"  {name:<40} {result[name]:>14.6g} {unit:<6} {raw}{notes.get(name, '')}{note}")
    print(f"  {'fail_frac':<40} {result['fail_frac']:>14.6g} {'frac':<6} "
          f"{result['failed']} of {result['attempted']} members failed, "
          f"{result['wrong']} of them wrong")
    if trace:
        print(f"  per-layer, from {result['traced_requests']} traced requests:")
        for name, unit in layer.items():
            print(f"  {name:<40} {result['per_layer'].get(name, 0):>14.6g} {unit}")
    print("perfbench-record " + json.dumps(result, sort_keys=True))
    wanted, source = (layer, result["per_layer"]) if trace else (e2e, result)
    missing = [name for name in wanted if name not in source]
    if missing:
        raise BenchError(f"{workload}: no value for {', '.join(missing)}", 5)
    return {name: {"value": source[name], "unit": unit} for name, unit in wanted.items()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")

    try:
        spec = load_spec()
        names = [w["name"] for w in spec["workloads"]]
        if args.workload not in names + ["all"]:
            raise BenchError(f"unknown workload {args.workload!r}; choose from {names}", 2)
        chosen = names if args.workload == "all" else [args.workload]
        final = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for w in chosen:
            result = run_worker(w, args.seed, args.seconds, bool(args.trace))
            metrics = report(spec, w, args.seed, args.seconds, bool(args.trace), result)
            final["attempted"] += result["attempted"]
            final["failed"] += result["failed"]
            final["correct"] &= result["wrong"] == 0
            prefix = f"{w}:" if args.workload == "all" else ""
            final["metrics"].update({prefix + k: v for k, v in metrics.items()})
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return exc.code
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
