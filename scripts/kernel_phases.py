#!/usr/bin/env python3
"""Time the phases of the batch BFGS kernel over batch sizes and depths.

For the length of a run, the phase functions that `solver._bfgs_kernel`
looks up as module globals are wrapped with perfbench's spans
(`perfbench/tracing.py`): the fixed-point step size (`_fixed_point_alpha`),
the inverse-Hessian update (`_inverse_hessian_update`), the embedding
(`checked_segments` and `clamped_segments`, whichever embeds the start) and
the gradient (`gradient_from_segments`). Each phase is the self time of its
spans. The kernel's remaining time, `rest`, is the search direction and the
bookkeeping. Each cell runs `_bfgs_kernel` on a MIXED batch from
`gen_scenes` (seed `SEED`) and keeps the median over repetitions of the
kernel time and of each phase. The kernel itself is not changed, so the
script measures any commit whose kernel uses those names.

The result is written to `BENCH_<label>.json`, with the machine, the
numpy/BLAS versions, the git sha and every cell of the grid B x n x fp
(B in 1, 100, 1000, 10000; n in 1..64; fp in 1, 2, 64) that was not run,
with the reason. BLAS and OpenMP run on one thread unless the environment
says otherwise, as in `perfbench`.

    PYTHONPATH=src python scripts/kernel_phases.py --label mine
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracing  # noqa: E402

SEED = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
GRID_BATCHES = (1, 100, 1000, 10000)
GRID_DEPTHS = (1, 2, 4, 8, 16, 32, 64)
GRID_FPS = (1, 2, 64)
# Cells whose two (B, 2n, 2n) float64 inverse-Hessian arrays exceed this are
# not run: B=10000 at n=64 needs 2.6 GB before anything else.
STATE_LIMIT_BYTES = 1 << 30
PHASES = {
    "step_size": ("_fixed_point_alpha",),
    "h_update": ("_inverse_hessian_update",),
    "embed": ("checked_segments", "clamped_segments"),
    "gradient": ("gradient_from_segments",),
}


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--label", help="file label (default: the short git sha)")
    p.add_argument("--out-dir", default=".", help="directory for BENCH_<label>.json")
    p.add_argument("--batches", type=int, nargs="+", default=[1, 100, 1000])
    p.add_argument("--depths", type=int, nargs="+", default=list(GRID_DEPTHS))
    p.add_argument("--fps", type=int, nargs="+", default=list(GRID_FPS))
    p.add_argument("--iterations", type=int, default=20)
    p.add_argument("--reps", type=int, default=3)
    return p.parse_args()


def git_state(path: Path):
    """(sha, dirty) of the checkout holding `path`, or (None, None) outside git."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=path, capture_output=True, text=True, check=True
        ).stdout.strip()
        status = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"],
            cwd=path, capture_output=True, text=True, check=True,
        ).stdout
    except (OSError, subprocess.CalledProcessError):
        return None, None
    return sha, bool(status.strip())


def run_cell(solver, sc, T0, opts, reps):
    """Median kernel and phase seconds over `reps` runs, and the member iterations run."""
    tracer = tracing.Tracer()
    undo = tracing.install(
        tracer,
        [(phase, "solver", name, True, None) for phase, names in PHASES.items() for name in names],
    )
    kernel = []
    try:
        for rep in range(reps):
            tracer.begin(rep)
            t0 = time.perf_counter()
            ran = solver._bfgs_kernel(sc, T0, opts)[-1]
            kernel.append(time.perf_counter() - t0)
            tracer.end()
    finally:
        tracing.uninstall(undo)
    table = tracing.per_request(tracer)
    per_rep = [{phase: table[rep][phase][1] for phase in PHASES} for rep in range(reps)]
    for seconds, total in zip(per_rep, kernel):
        seconds["rest"] = total - sum(seconds.values())
    return {
        "member_iterations": int(ran.sum()),
        "kernel_s": statistics.median(kernel),
        "phases_s": {phase: statistics.median(r[phase] for r in per_rep) for phase in per_rep[0]},
    }


def main():
    args = parse_args()
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")
    # BLAS reads its thread count when numpy is first imported.
    import numpy as np

    import fermatpath
    from fermatpath import Kinds, SolveOptions, gen_scenes, init_params
    from fermatpath import solver
    from fermatpath.batching import BatchScene

    sha, dirty = git_state(Path(fermatpath.__file__).resolve().parent)
    label = args.label or (sha[:7] if sha else "unknown")
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]

    wanted = set(args.batches)
    cells, skipped = [], []
    # Warm up BLAS and numpy's lazy set-up outside every timed cell.
    warm = gen_scenes(SEED, 1, Kinds.MIXED, 1)
    solver._bfgs_kernel(
        BatchScene.from_specs(warm), init_params(warm[0])[None], SolveOptions(iterations=2)
    )
    for B in sorted(wanted | set(GRID_BATCHES)):
        for n in args.depths:
            state = 2 * B * (2 * n) ** 2 * 8
            reason = None
            if state > STATE_LIMIT_BYTES:
                reason = f"two (B, 2n, 2n) arrays need {state / 1e9:.1f} GB"
            elif B not in wanted:
                reason = "not in --batches"
            if reason:
                skipped += [{"B": B, "n": n, "fp": fp, "reason": reason} for fp in args.fps]
                continue
            specs = gen_scenes(SEED, n, Kinds.MIXED, B)
            sc = BatchScene.from_specs(specs)
            T0 = np.stack([init_params(s) for s in specs])
            for fp in args.fps:
                opts = SolveOptions(iterations=args.iterations, fixed_point_iters=fp)
                cell = {"B": B, "n": n, "fp": fp, **run_cell(solver, sc, T0, opts, args.reps)}
                cells.append(cell)
                print(
                    f"B={B:<5} n={n:<2} fp={fp:<2} kernel {cell['kernel_s']:.4f} s  "
                    + "  ".join(f"{k} {v:.4f}" for k, v in cell["phases_s"].items()),
                    file=sys.stderr,
                )

    result = {
        "label": label,
        "git_sha": sha,
        "git_dirty": dirty,
        "machine": {
            "platform": platform.platform(),
            "processor": platform.processor() or platform.machine(),
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
        },
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "grid": {
            "kinds": "mixed",
            "seed": SEED,
            "iterations": args.iterations,
            "reps": args.reps,
            "batches": sorted(wanted),
            "depths": args.depths,
            "fps": args.fps,
        },
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "cells": cells,
        "skipped": skipped,
    }
    out = Path(args.out_dir) / f"BENCH_{label}.json"
    out.write_text(json.dumps(result, indent=1) + "\n")
    print(out)


if __name__ == "__main__":
    main()
