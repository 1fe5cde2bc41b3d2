"""The four benchmark workloads: inputs from a seed, one request, its check.

Each workload drives the package only through its public functions or the
``fermatpath`` command line. Functions are looked up on the package at call
time, so spans installed by the traced run see every call. A request never
raises for a failing member: it returns the exception in the member's place,
and `check` counts it as failed.

`check` returns (failed, wrong): members that missed the workload's check,
and the part of them whose output is wrong rather than short of the
solver's accuracy target (an exception other than a stationarity miss, a
non-finite value, a missing result, a wrong closed form).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import fermatpath as fp
from fermatpath import baselines, cli, implicit_diff


class CheckError(Exception):
    """A workload's output has a shape its check cannot interpret."""


@dataclass
class Inputs:
    specs: list
    path: str | None = None  # scene file, for the workloads that read one
    cotangents: list | None = None

    def digest(self) -> dict:
        """SHA-256 of the scene arrays, the scene file and the cotangents."""
        h = hashlib.sha256()
        for s in self.specs:
            for a in (s.start, s.end, s.basis_tensor, s.anchor_tensor):
                h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
        out = {"scenes": h.hexdigest()}
        if self.path is not None:
            out["yaml"] = hashlib.sha256(Path(self.path).read_bytes()).hexdigest()
        if self.cotangents is not None:
            out["cotangents"] = hashlib.sha256(np.stack(self.cotangents).tobytes()).hexdigest()
        return out


def stationary_mask(specs, Ts, tol) -> np.ndarray:
    """(B,) |g| < tol (1 + L) for each member, from the closed-form gradient.

    Computed here from the scene arrays rather than through the package, so
    the check does not share code with the solver it checks. Non-finite
    parameters and coincident path points fail.
    """
    Ts = [np.asarray(T, dtype=float) for T in Ts]
    if any(T.shape != (s.n, 2) for s, T in zip(specs, Ts)):
        raise CheckError("solution shape does not match its scene")
    A = np.stack([s.basis_tensor for s in specs])  # (B, n, 3, 2)
    b = np.stack([s.anchor_tensor for s in specs])
    T = np.stack(Ts)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        mid = np.einsum("bnij,bnj->bni", A, T) + b
        x = np.concatenate(
            [np.stack([s.start for s in specs])[:, None], mid,
             np.stack([s.end for s in specs])[:, None]], axis=1)
        seg = x[:, 1:] - x[:, :-1]
        norms = np.linalg.norm(seg, axis=2)
        u = seg / norms[..., None]
        g = np.einsum("bnij,bni->bnj", A, u[:, :-1] - u[:, 1:])
        gn = np.linalg.norm(g.reshape(len(specs), -1), axis=1)
        L = norms.sum(axis=1)
        ok = np.all(norms > 0, axis=1) & np.isfinite(gn) & np.isfinite(L)
        return ok & (gn < tol * (1.0 + L))


def useful_iter_share(reports, tol) -> tuple[int, int]:
    """(useful, total) member-iterations from per-iteration solve traces.

    An iteration is useful up to and including a member's first stationary
    iteration; a member that never becomes stationary uses all of them.
    """
    useful = total = 0
    for r in reports:
        try:
            tr = np.asarray(getattr(r, "trace", None), dtype=float)
        except (TypeError, ValueError):
            tr = np.empty(0)
        if tr.ndim != 2 or tr.shape[1] != 3:
            raise CheckError("solve trace is not (iteration, length, grad_norm) rows")
        hit = np.flatnonzero(tr[:, 2] < tol * (1.0 + tr[:, 1]))
        useful += int(hit[0]) + 1 if hit.size else len(tr)
        total += len(tr)
    return useful, total


class BulkMixed:
    name = "bulk-mixed"
    n = 5

    def __init__(self, batch: int = 1000):
        self.batch = self.members = batch

    def setup(self, seed, workdir) -> Inputs:
        return Inputs(fp.gen_scenes(seed, self.n, fp.Kinds.MIXED, self.batch))

    def request(self, inp):
        try:
            T0s = [fp.init_params(s) for s in inp.specs]
            return fp.batch_solve(inp.specs, T0s)
        except fp.FermatPathError as exc:
            return exc

    def check(self, inp, out) -> tuple[int, int]:
        if isinstance(out, Exception):
            return len(inp.specs), len(inp.specs)
        if len(out) != len(inp.specs):
            raise CheckError(f"batch_solve returned {len(out)} reports for {len(inp.specs)}")
        Ts = [r.solution for r in out]
        ok = stationary_mask(inp.specs, Ts, implicit_diff.STATIONARITY_TOL)
        finite = np.array([np.all(np.isfinite(T)) for T in Ts])
        return int(np.count_nonzero(~ok)), int(np.count_nonzero(~finite))

    def replay(self, inp):
        T0s = [fp.init_params(s) for s in inp.specs]
        reports = fp.batch_solve(inp.specs, T0s, fp.SolveOptions(record_trace=True))
        return useful_iter_share(reports, implicit_diff.STATIONARITY_TOL)


# Matches the scene header lines `fermatpath solve` prints.
_SCENE_LINE = re.compile(r"^scene (\d+): length=(\S+) grad_norm=(\S+)$")


class DeepFile:
    name = "deep-file"

    def __init__(self, ns=(8, 16, 32, 64)):
        self.ns = tuple(ns)
        self.members = len(self.ns)

    def setup(self, seed, workdir) -> Inputs:
        specs = [s for n in self.ns for s in fp.gen_scenes(seed, n, fp.Kinds.MIXED, 1)]
        path = Path(workdir) / f"deep-file-{seed}.yaml"
        with open(path, "w") as fh:
            fp.save_scenes(specs, fh)
        return Inputs(specs, path=str(path))

    def request(self, inp):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(["solve", inp.path])
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue()

    def check(self, inp, out) -> tuple[int, int]:
        code, text = out
        if code != 0:
            return len(inp.specs), len(inp.specs)
        seen = {}
        for line in text.splitlines():
            m = _SCENE_LINE.match(line)
            if m:
                idx = int(m.group(1))
                if idx in seen or idx >= len(inp.specs):
                    raise CheckError(f"scene {idx} printed twice or out of range")
                seen[idx] = (float(m.group(2)), float(m.group(3)))
        tol = implicit_diff.STATIONARITY_TOL
        finite = [(L, gn) for L, gn in seen.values() if np.isfinite(L) and np.isfinite(gn)]
        passed = sum(gn / (1.0 + L) < tol for L, gn in finite)
        return len(inp.specs) - passed, len(inp.specs) - len(finite)

    def replay(self, inp):
        # The options the timed requests get from the CLI's defaults.
        args = cli.build_parser().parse_args(["solve", inp.path])
        opts = fp.SolveOptions(
            iterations=args.iterations,
            fixed_point_iters=args.fp_iters,
            precision=args.precision,
            record_trace=True,
        )
        reports = [fp.bfgs_solve(s, fp.init_params(s), opts) for s in inp.specs]
        return useful_iter_share(reports, implicit_diff.STATIONARITY_TOL)


GRAD_ITERATIONS, GRAD_FP_ITERS = 16, 64


class GradBatch:
    name = "grad-batch"
    n = 4

    def __init__(self, batch: int = 200):
        self.batch = self.members = batch

    def setup(self, seed, workdir) -> Inputs:
        specs = fp.gen_scenes(seed, self.n, fp.Kinds.MIXED, self.batch)
        rng = np.random.default_rng([int(seed), 0x6BA7])
        vs = [rng.normal(size=(self.n, 2)) * s.active_mask for s in specs]
        return Inputs(specs, cotangents=vs)

    def request(self, inp):
        opts = fp.SolveOptions(iterations=GRAD_ITERATIONS, fixed_point_iters=GRAD_FP_ITERS)
        try:
            T0s = [fp.init_params(s) for s in inp.specs]
            reports = fp.batch_solve(inp.specs, T0s, opts)
        except fp.FermatPathError as exc:
            return exc
        out = []
        for spec, r, v in zip(inp.specs, reports, inp.cotangents):
            try:
                sg = fp.vjp_solution(spec, r.solution, v)
                gl = fp.grad_length_wrt_params(spec, r.solution)
                out.append((r.solution, sg, gl))
            except fp.FermatPathError as exc:
                out.append(exc)
        return out

    def check(self, inp, out) -> tuple[int, int]:
        if isinstance(out, Exception):
            return len(inp.specs), len(inp.specs)
        if len(out) != len(inp.specs):
            raise CheckError(f"grad-batch produced {len(out)} results for {len(inp.specs)}")
        failed = wrong = 0
        for spec, m in zip(inp.specs, out):
            if isinstance(m, Exception):
                failed += 1
                wrong += not isinstance(m, fp.NotStationary)
                continue
            T, sg, gl = m
            # dL/d(start) = -u_0, the unit direction of the first segment.
            s0 = spec.surfaces[0]
            x1 = s0.basis @ np.asarray(T[0], dtype=float) + s0.anchor
            u0 = (x1 - spec.start) / np.linalg.norm(x1 - spec.start)
            finite = np.all(np.isfinite(sg.flat())) and np.all(np.isfinite(gl.flat()))
            if not (finite and np.max(np.abs(np.asarray(gl.start) + u0)) <= 1e-9):
                failed += 1
                wrong += 1
        return failed, wrong

    def replay(self, inp):
        opts = fp.SolveOptions(
            iterations=GRAD_ITERATIONS, fixed_point_iters=GRAD_FP_ITERS, record_trace=True
        )
        T0s = [fp.init_params(s) for s in inp.specs]
        reports = fp.batch_solve(inp.specs, T0s, opts)
        return useful_iter_share(reports, implicit_diff.STATIONARITY_TOL)


class Reference:
    name = "reference"
    n = 5

    def __init__(self, batch: int = 20):
        self.batch = self.members = batch

    def setup(self, seed, workdir) -> Inputs:
        return Inputs(fp.gen_scenes(seed, self.n, fp.Kinds.MIXED, self.batch))

    def request(self, inp):
        try:
            return fp.reference_solve_batch(inp.specs)
        except fp.FermatPathError as exc:
            return exc

    def check(self, inp, out) -> tuple[int, int]:
        if isinstance(out, Exception):
            return len(inp.specs), len(inp.specs)
        T, conv = np.asarray(out[0]), np.asarray(out[1])
        if conv.shape != (len(inp.specs),) or T.shape[0] != len(inp.specs):
            raise CheckError(f"reference_solve_batch returned shapes {T.shape}, {conv.shape}")
        finite = np.all(np.isfinite(T.reshape(len(T), -1)), axis=1)
        return int(np.count_nonzero(~(conv.astype(bool) & finite))), int(np.count_nonzero(~finite))

    def replay(self, inp):
        """The reference's BFGS phase, repeated through batch_solve with a trace."""
        opts = fp.SolveOptions(
            iterations=baselines.REFERENCE_BFGS_ITERS,
            fixed_point_iters=baselines.REFERENCE_FP_ITERS,
            record_trace=True,
        )
        T0s = [fp.init_params(s) for s in inp.specs]
        reports = fp.batch_solve(inp.specs, T0s, opts)
        return useful_iter_share(reports, baselines.REFERENCE_GRAD_TOL)


WORKLOADS = {w.name: w for w in (BulkMixed, DeepFile, GradBatch, Reference)}
