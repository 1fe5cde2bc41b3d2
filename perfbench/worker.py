"""One closed-loop caller running one workload; prints its result as JSON.

Started by run.py in a fresh process with BLAS/OpenMP threads pinned to 1:

    python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE WORKDIR

The process sets the workload up SETUPS times (scene generation, scene-file
writing and one untimed warm-up request), then sends requests back to back
until SECONDS of timed request time and at least MIN_REQUESTS requests have
passed. Every output is checked outside the timed region. With TRACE
set, every second request is traced.

Every set-up and request is timed between two runs of the calibration
kernels (calibrate.py), and the timing metrics are the wall times divided
by the mean of the two speed factors. The raw wall times and the factors
are kept in the result.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import sys
import time
from importlib import metadata
from pathlib import Path

import numpy as np

import fermatpath
import calibrate
import tracing
import workloads

SETUPS = 3
# The tail is the sample with ten beyond it. It is reported from 31 samples
# on, where it lies at the 68th percentile or above, clear of the median.
TAIL_BEYOND = 10
MIN_REQUESTS = 3 * TAIL_BEYOND + 1


def _kernel_hook(tracer, args, kwargs, result):
    """Member-iterations and the computed inverse-Hessian state size of one solve."""
    try:
        T0 = args[1] if len(args) > 1 else kwargs["T0"]
        opts = args[2] if len(args) > 2 else kwargs["opts"]
        B, n = np.shape(T0)[:2]
        iters = int(opts.iterations)
    except (AttributeError, IndexError, KeyError, TypeError, ValueError):
        return
    tracer.count("solver.member_iters", B * iters)
    tracer.count("solver.h_state_bytes", B * (2 * n) ** 2 * 8)


def _reference_hook(tracer, args, kwargs, result):
    try:
        conv = np.asarray(result[1], dtype=bool)
    except (IndexError, KeyError, TypeError, ValueError):
        return
    tracer.count("baselines.converged", int(conv.sum()))
    tracer.count("baselines.reference_members", conv.size)


# (span name, module, attribute, record a span, hook) for the traced run.
TRACED = [
    ("bench.gen_scenes", "bench", "gen_scenes", True, None),
    ("bench.load_scenes", "bench", "load_scenes", True, None),
    ("cli.main", "cli", "main", True, None),
    ("geometry.embed", "geometry", "embed", True, None),
    ("solver.init_params", "solver", "init_params", True, None),
    ("batching.from_specs", "batching", "BatchScene.from_specs", True, None),
    ("solver.batch_solve", "solver", "batch_solve", True, None),
    ("solver.bfgs_solve", "solver", "bfgs_solve", True, None),
    # No span: the kernel's time stays in batch_solve's and bfgs_solve's self time.
    ("solver._bfgs_kernel", "solver", "_bfgs_kernel", False, _kernel_hook),
    ("batching.gradient_batch", "batching", "gradient_batch", True, None),
    ("batching.path_length_batch", "batching", "path_length_batch", True, None),
    ("batching.clamped_segments", "batching", "clamped_segments", True, None),
    ("baselines.reference_solve_batch", "baselines", "reference_solve_batch", True,
     _reference_hook),
    ("baselines.hessian_batch", "baselines", "hessian_batch", True, None),
    ("implicit_diff.vjp_solution", "implicit_diff", "vjp_solution", True, None),
    ("implicit_diff.grad_length_wrt_params", "implicit_diff", "grad_length_wrt_params",
     True, None),
    ("implicit_diff.solve_stationary_system", "implicit_diff", "solve_stationary_system",
     True, None),
    ("objective.hessian", "objective", "hessian", True, None),
    ("objective.gradient", "objective", "gradient", True, None),
    ("objective.param_vjp", "objective", "param_vjp", True, None),
    ("objective.length_param_gradient", "objective", "length_param_gradient", True, None),
]


class Accounting:
    """Members attempted, failed and wrong, summed over the checked requests."""

    def __init__(self, workload, inputs):
        self.workload, self.inputs = workload, inputs
        self.attempted = self.failed = self.wrong = 0

    def add(self, out) -> None:
        failed, wrong = self.workload.check(self.inputs, out)
        self.attempted += self.workload.members
        self.failed += failed
        self.wrong += wrong


class Timings:
    """Wall times and the speed factor measured around each of them."""

    def __init__(self):
        self.raw: list[float] = []
        self.factor: list[float] = []

    def add(self, raw: float, before: float, after: float) -> None:
        self.raw.append(raw)
        self.factor.append(0.5 * (before + after))

    def calibrated(self) -> list[float]:
        return [r / f for r, f in zip(self.raw, self.factor)]


def _timed_loop(wl, inp, seconds, acct, tracer=None) -> tuple[Timings, Timings]:
    """Requests back to back; returns the (untraced, traced) timings.

    With a tracer, every second request is traced, so both kinds see the
    same machine conditions and their difference is the tracing overhead.
    """
    lat = {False: Timings(), True: Timings()}
    total = 0.0
    factor = calibrate.speed_factor()
    while total < seconds or len(lat[False].raw) + len(lat[True].raw) < MIN_REQUESTS:
        traced = tracer is not None and len(lat[False].raw) > len(lat[True].raw)
        if traced:
            tracer.begin(len(lat[True].raw))
        t0 = time.perf_counter()
        out = wl.request(inp)
        dt = time.perf_counter() - t0
        if traced:
            tracer.end()
        before, factor = factor, calibrate.speed_factor()
        lat[traced].add(dt, before, factor)
        total += dt
        acct.add(out)
    return lat[False], lat[True]


def latency_metrics(lat: Timings, members: int) -> dict:
    ordered = sorted(lat.calibrated())
    n = len(ordered)
    out = {
        "paths_per_s": members * n / sum(ordered),
        "request_ms.p50": 1e3 * statistics.median(ordered),
        "requests": n,
        "raw": {
            "paths_per_s": members * n / sum(lat.raw),
            "request_ms.p50": 1e3 * statistics.median(lat.raw),
        },
        "speed_factor": statistics.median(lat.factor),
    }
    if n >= 3 * TAIL_BEYOND + 1:
        out["request_ms.tail"] = 1e3 * ordered[n - 1 - TAIL_BEYOND]
        out["tail_percentile"] = 100.0 * (n - TAIL_BEYOND) / n
        out["raw"]["request_ms.tail"] = 1e3 * sorted(lat.raw)[n - 1 - TAIL_BEYOND]
    return out


def layer_metrics(tracer, requests, replay_share) -> dict:
    """Per-layer metrics: medians over traced requests of calls and self time."""
    table = tracing.per_request(tracer)

    def med(name, idx, source=requests):
        return statistics.median(table[r][name][idx] if name in table[r] else 0 for r in source)

    out = {}
    for name, *_ in TRACED:
        source = ["setup"] if name == "bench.gen_scenes" else requests
        out[f"{name}.calls"] = med(name, 0, source)
        out[f"{name}.s"] = med(name, 1, source)
        out[f"{name}.self_s"] = out[f"{name}.s"]
    out["solver.member_iters"] = med("solver.member_iters", 1)
    out["solver.h_state_bytes"] = max(
        (v for _, k, v in tracer.counts if k == "solver.h_state_bytes"), default=0
    )
    conv = sum(v for _, k, v in tracer.counts if k == "baselines.converged")
    total = sum(v for _, k, v in tracer.counts if k == "baselines.reference_members")
    out["baselines.converged_frac"] = conv / total if total else 0.0
    useful, iters = replay_share
    out["solver.useful_member_iter_frac"] = useful / iters if iters else 0.0
    return out


def run_record(workload, seed, seconds, trace, digest) -> dict:
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_sha": git_sha(Path(fermatpath.__file__).resolve().parents[2]),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": _dist_version("scipy"),
        "pyyaml": _dist_version("pyyaml"),
        "blas": blas,
        "machine": platform.platform(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "pinned_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "digest": digest,
    }


def _dist_version(name) -> str:
    try:
        return metadata.version(name)
    except metadata.PackageNotFoundError:
        return "absent"


def git_sha(root: Path) -> str:
    """HEAD's commit from the .git directory, or "unknown" outside a git checkout."""
    try:
        head = (root / ".git" / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = root / ".git" / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run(name, seed, seconds, trace, workdir, workload=None) -> dict:
    wl = workload or workloads.WORKLOADS[name]()
    setups, digests = Timings(), []
    for _ in range(SETUPS):
        before = calibrate.speed_factor()
        t0 = time.perf_counter()
        inp = wl.setup(seed, workdir)
        wl.request(inp)
        setups.add(time.perf_counter() - t0, before, calibrate.speed_factor())
        digests.append(inp.digest())
    if any(d != digests[0] for d in digests):
        raise workloads.CheckError("set-ups of one seed produced different inputs")

    acct = Accounting(wl, inp)
    tracer = tracing.Tracer() if trace else None
    undo = tracing.install(tracer, TRACED) if trace else []
    try:
        untraced, traced = _timed_loop(wl, inp, seconds, acct, tracer)
        if trace:
            tracer.begin("setup")
            traced_digest = wl.setup(seed, workdir).digest()
            tracer.end()
            if traced_digest != digests[0]:
                raise workloads.CheckError("traced set-up produced different inputs")
    finally:
        tracing.uninstall(undo)

    result = {
        "record": run_record(wl.name, seed, seconds, trace, digests[0]),
        "setup_s": statistics.median(setups.calibrated()),
        "setups": SETUPS,
        "members": wl.members,
        **latency_metrics(untraced, wl.members),
    }
    result["raw"]["setup_s"] = statistics.median(setups.raw)
    if trace:
        try:
            share = wl.replay(inp)
        except workloads.CheckError as exc:
            print(f"replay unavailable: {exc}", file=sys.stderr)
            share = (0, 0)
        layers = layer_metrics(tracer, list(range(len(traced.raw))), share)
        layers["trace.overhead_frac"] = (
            statistics.median(traced.calibrated()) / statistics.median(untraced.calibrated()) - 1
        )
        result["per_layer"] = layers
        result["traced_requests"] = len(traced.raw)

    result["attempted"] = acct.attempted
    result["failed"] = acct.failed
    result["wrong"] = acct.wrong
    result["fail_frac"] = acct.failed / acct.attempted
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if "per_layer" in result:
        result["per_layer"]["fail_frac"] = result["fail_frac"]
    return result


def main(argv) -> int:
    name, seed, seconds, trace, workdir = argv
    try:
        result = run(name, int(seed), float(seconds), trace == "1", workdir)
    except workloads.CheckError as exc:
        print(f"perfbench: check could not run: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
