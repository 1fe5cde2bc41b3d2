"""Batch BFGS path solver with exact one-dimensional step sizes.

The solver runs one iteration schedule for every path in a batch, and a
member leaves it at the first of two exits: an iterate whose gradient is
at the noise floor, |g| < NOISE_FLOOR_TOL (1 + L), or a step that leaves
it bitwise unchanged, an exact fixed point. Each result equals the fixed
schedule's, run to that member's exit, bitwise. Every caller, the
single-path `bfgs_solve` and the reference (`baselines`) included, runs
this one schedule. The initial guess is the start/end midpoint projected
onto each surface, one stacked projection per batch (`init_params_batch`).
The step size along each quasi-Newton direction solves the exact
one-dimensional optimality condition, from zero. Its first evaluation is
the paper's fixed-point step, so the default budget of one evaluation
(fp=1) is the paper's step size. In double precision the further
evaluations are safeguarded Newton steps on the slope of the path length
along the line, which converge in a few evaluations where the fixed-point
map needs dozens; each member's step-size loop stops on its own, at the
rounding floor of that slope or after a step of about 4 ulps. In single
precision every evaluation is the fixed-point step, and the loop ends once
no step size changes. Each BFGS iteration embeds the paths once: the
clamped segments the new gradient is computed from are also the next step
size's. The step size is one function of plain numpy on fresh arrays. At
B=1 the cost is the number of numpy calls, so `einsum` is numpy's C kernel
called directly, without the dispatch layer that `np.einsum` adds (see
`batching`). The inverse-Hessian update is the rank-two product
H + U W^T, one batched `matmul` into the kernel's spare (B, 2n, 2n) buffer,
so the kernel holds two such arrays; it keeps H bitwise symmetric and
rounds differently from the textbook three-term form. The step size and the update equal the plain
expressions in `tests/_oracles.py` bitwise. The scalar entry point is the
batch kernel applied to a batch of one, so batched and per-path results
agree bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .batching import (
    BatchScene,
    checked_segments,
    clamped_segments,
    direction_segments,
    einsum,
    gradient_from_segments,
    path_length_batch,
    segment_norms,
    stack_params,
)

# `gradient_batch` is unused here but stays importable: the benchmark's tracer test reads it.
from .batching import gradient_batch  # noqa: F401
from .errors import DegenerateSegment, ZeroDirection
from .geometry import PathSpec, check_params, params_from_points_batch

NOISE_FLOOR_TOL = 1e-15  # about 4.5 float64 epsilons


class Precision(Enum):
    SINGLE = "single"
    DOUBLE = "double"

    @property
    def dtype(self):
        return np.float32 if self is Precision.SINGLE else np.float64


@dataclass(frozen=True)
class SolveOptions:
    iterations: int = 100
    fixed_point_iters: int = 1
    precision: Precision = Precision.DOUBLE
    record_trace: bool = False

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.fixed_point_iters < 1:
            raise ValueError("fixed_point_iters must be >= 1")


@dataclass(frozen=True)
class SolveReport:
    solution: np.ndarray  # (n, 2)
    final_length: float
    final_grad_norm: float
    iterations: int  # iterations run; BFGS stops at the noise floor or a fixed point
    trace: list[tuple[int, float, float]] | None = None


def init_params_batch(sc: BatchScene) -> np.ndarray:
    """(B, n, 2) initial guesses: each start/end midpoint projected onto each surface.

    The projection is `params_from_points_batch`' stacked pseudo-inverse, so
    a nearly parallel plane basis keeps its accuracy; inert coordinates are +0.0.
    """
    mid = 0.5 * (sc.start + sc.end)
    return params_from_points_batch(sc, np.broadcast_to(mid[:, None], sc.anchor.shape))


def init_params(spec: PathSpec) -> np.ndarray:
    """`init_params_batch` of one path: its (n, 2) initial guess."""
    return init_params_batch(spec.batch)[0]


def _fixed_point_alpha(sc: BatchScene, s, P, iters: int):
    """Batched step size along P from the segments `s`; returns (alpha, zero, clamped), each (B,).

    The step size solves the exact one-dimensional optimality condition
    phi'(alpha) = sum_k e_k / den_k = 0, where d_k is what P adds to segment
    k, e_k = (s_k + alpha d_k) . d_k and den_k = |s_k + alpha d_k|. `iters`
    caps the evaluations of phi'. Members whose direction moves no point
    (`zero`) keep alpha 0, and a trial segment that collapses below the
    floor `sc.eps` is clamped (`clamped`), so batch control flow stays
    uniform. Every evaluation is plain numpy on fresh arrays.

    The first evaluation is the paper's fixed-point step from alpha = 0,
    alpha - phi'/D1 with D1 = sum_k |d_k|^2 / den_k, so a budget of one is
    the paper's step size bitwise. It sums the stacked rows `c` and `-a2`
    over the trial norms in one reduction, and the step is `num / -dsum`,
    which equals `-num / dsum` bitwise, signed zeros included (folding the
    minus into `c` would turn a -0.0 step into +0.0).

    In single precision every evaluation is the fixed-point step, and the
    loop ends once no step size changes, which gives the result of all
    `iters`. This fork is kept for the float32 solves' sake: Newton makes a
    float32 solve at fp=4 as accurate as one at fp=64, so both sit at the
    float32 floor, where which reads the smaller error is rounding (on
    criterion 8's reflections, seed 3, B=200, n=1: 6.04e-7 at fp=4, 6.10e-7
    at fp=64), and criterion 8's ordering of fp=4 and fp=64 would rest on it.

    In double precision the further evaluations are safeguarded Newton
    steps, in the operation order of `tests/_oracles.fixed_point_alpha`;
    on single-path solves of n = 8 to 64 a call takes about 4 evaluations
    where the fixed-point map takes about 36. phi is convex along the line,
    so the sign of each phi' moves one end of a bracket [lo, hi] around the
    root, from phi'(0). With Q = sum_k e_k^2 / den_k^3, phi'' = D1 - Q. As
    in `rtsafe` (Numerical Recipes, section 9.4), the step is the Newton
    value alpha - phi'/phi'' if it lies in the bracket and moves at most
    half as far as the Newton or bisection step two such steps back; else
    the bracket's midpoint, or while the bracket is open on one side the
    fixed-point image, which lies inside it. alpha is an end of the
    bracket, so both tests are |phi'| <= min(hi - lo, that half step) phi'',
    false for phi'' <= 0. Each member stops on its own and keeps its alpha:
    at |phi'| <= 8 eps sum_k |d_k|, the rounding floor of phi', without the
    step; at a value that is not finite; after a step of at most
    4 eps |alpha|; or after `iters` evaluations. `lowest` takes the trial
    norms of running (`active`) members alone, so no member's result
    depends on the batch.
    """
    dtype = s.dtype
    dAp = direction_segments(sc, P)
    a2 = einsum("bki,bki->bk", dAp, dAp)
    c = einsum("bki,bki->bk", dAp, s)
    zero = einsum("bk->b", a2) <= np.finfo(dtype).tiny
    c_a2 = np.stack([c, -a2], axis=1)  # (B, 2, n+1)

    alpha = np.zeros(P.shape[0], dtype=dtype)
    floor = sc.eps[:, None]
    lowest = np.full(a2.shape, np.inf, dtype=dtype)  # smallest trial segment norms
    single = dtype == np.float32
    # A zero direction divides 0 by 0; its step is discarded below.
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(iters if single else 1):
            # Trial points may transiently collapse a segment when the
            # iteration is not contracting; clamp instead of aborting the
            # whole batch.
            seg = alpha[:, None, None] * dAp + s
            den = np.sqrt(einsum("bki,bki->bk", seg, seg))
            lowest = np.fmin(lowest, den)
            den = np.maximum(den, floor)
            num, neg_dsum = einsum("bjk->bj", c_a2 / den[:, None]).T
            new = num / neg_dsum
            keep = np.isfinite(new) & ~zero
            new = np.where(keep, new, alpha)
            # Given s and dAp the update depends on alpha alone, so once no
            # alpha changes, every further iteration would repeat this one.
            if new.tobytes() == alpha.tobytes():
                break
            alpha = new
    if single or iters == 1:
        return alpha, zero, (lowest <= floor).any(axis=1)

    ulp = np.finfo(dtype).eps
    tol = 8 * ulp * einsum("bk->b", np.sqrt(a2))
    # num is phi'(0): the first evaluation's slope brackets the root.
    lo = np.where(num < 0, 0.0, -np.inf)
    hi = np.where(num > 0, 0.0, np.inf)
    # Half of the last two Newton or bisection steps, for Newton's guard.
    half_last = half_before = np.full(alpha.shape, np.inf)
    active = keep
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(iters - 1):
            if not np.count_nonzero(active):
                break
            seg = alpha[:, None, None] * dAp + s
            norms = np.sqrt(einsum("bki,bki->bk", seg, seg))
            e = einsum("bki,bki->bk", seg, dAp)
            np.fmin(lowest, norms, out=lowest, where=active[:, None])
            den = np.maximum(norms, floor)
            ratio = e / den
            slope = einsum("bk->b", ratio)
            d1 = einsum("bk->b", a2 / den)
            curvature = d1 - einsum("bk->b", ratio * ratio / den)
            fixed = alpha - slope / d1
            newton = alpha - slope / curvature
            lo = np.where(slope < 0, alpha, lo)
            hi = np.where(slope > 0, alpha, hi)
            size = np.abs(slope)
            width = hi - lo
            use_newton = size <= np.minimum(width, half_before) * curvature
            two_sided = np.isfinite(width)
            # The step taken: Newton, else the midpoint, else the fixed-point image.
            new = np.where(use_newton, newton, np.where(two_sided, lo + 0.5 * width, fixed))
            step = np.abs(new - alpha)
            moves = active & (size > tol) & np.isfinite(step)
            alpha = np.where(moves, new, alpha)
            active = moves & (step > 4 * ulp * np.abs(alpha))
            guarded = use_newton | two_sided
            half_before = np.where(guarded, half_last, half_before)
            half_last = np.where(guarded, 0.5 * step, half_last)
    return alpha, zero, (lowest <= floor).any(axis=1)


def line_search_alpha(spec: PathSpec, T, P, k: int = 1) -> float:
    """Step size along direction P from at most k evaluations of phi', starting at 0.

    `_fixed_point_alpha` on a batch of one: k=1 is the paper's fixed-point
    step; in double precision each further evaluation is a safeguarded
    Newton step, and the loop stops early once the step size has converged;
    in single precision each is a fixed-point step. Raises ZeroDirection
    when P moves no interaction point and DegenerateSegment when a trial
    point lands on a neighbouring path point.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    T = check_params(spec, T)
    P = check_params(spec, P)
    sc = spec.batch
    _, s, _ = checked_segments(sc, T[None])
    alpha, zero, clamped = _fixed_point_alpha(sc, s, P[None], k)
    if zero[0]:
        raise ZeroDirection("direction moves no interaction point")
    if clamped[0]:
        raise DegenerateSegment("step-size denominator segment collapsed")
    return float(alpha[0])


def _inverse_hessian_update(H, step, y, out):
    """BFGS update of the (k, m, m) inverse Hessians `H`, written into `out`.

    A member whose curvature `step . y` fails the gate, or whose update is
    not finite, keeps its `H`. Returns `out`. With `H`, these are the two
    (k, m, m) arrays the kernel holds, reused across iterations.

    The update is the rank-two form H + U W^T (Nocedal & Wright, ch. 6):
    one batched (k, m, 2) @ (k, 2, m) product written into `out`, then
    `+= H`. The state is bandwidth-bound, and this streams it twice where
    the three-term form H - rho (sHy + sHy^T) + c ss^T, c = rho^2 yHy + rho,
    streams it about eight times; the two differ only in rounding. The
    rank-two term is factored so that H stays bitwise symmetric: with
    t = 1 + rho yHy (so c = rho t) and a = s - Hy / t, it is
    rho t aa^T - (rho / t) Hy Hy^T = sign(t) (PP^T - QQ^T), where
    P = sqrt|rho t| a and Q = sqrt|rho / t| Hy. So U = [P, Q] and
    W = sign(t) [P, -Q], and entries (i, j) and (j, i) are sums of the same
    two products. The result equals `np.where(ok, H + U @ W^T, H)`, with
    `ok` including `np.all(np.isfinite(...))`, bitwise. A finite sum over a
    member's entries implies every entry is finite, so the entrywise test
    runs only on members whose sum is not (an update of finite entries
    whose sum overflows still passes it).
    """
    dtype = H.dtype.type
    k, m = step.shape
    sy = einsum("bi,bi->b", step, y)
    s_norm = np.sqrt(einsum("bi,bi->b", step, step))
    y_norm = np.sqrt(einsum("bi,bi->b", y, y))
    ok = sy > dtype(1e-12) * s_norm * y_norm
    rho = np.where(ok, np.ones_like(sy) / np.where(ok, sy, np.ones_like(sy)), 0.0)
    U = np.empty((k, m, 2), dtype=H.dtype)
    Wt = np.empty((k, 2, m), dtype=H.dtype)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        Hy = einsum("bij,bj->bi", H, y)
        t = rho * einsum("bi,bi->b", y, Hy) + dtype(1)
        sign = np.sign(t)
        r, q = np.sqrt(np.abs(rho * t)), np.sqrt(np.abs(rho / t))
        a = step - Hy / t[:, None]
        np.multiply(r[:, None], a, out=U[:, :, 0])
        np.multiply(q[:, None], Hy, out=U[:, :, 1])
        # sign(t) P and -sign(t) Q, bitwise: scaling by +-1 is exact.
        np.multiply((sign * r)[:, None], a, out=Wt[:, 0])
        np.multiply((-sign * q)[:, None], Hy, out=Wt[:, 1])
        np.matmul(U, Wt, out=out)
        out += H
        # Near-zero curvature can overflow the rank-two terms in single
        # precision; treat those updates as skipped.
        unsure = np.flatnonzero(ok & ~np.isfinite(einsum("bij->b", out)))
    if unsure.size:
        ok[unsure] = np.isfinite(out[unsure]).all(axis=(1, 2))
    if not ok.all():
        np.copyto(out, H, where=~ok[:, None, None])
    return out


def _bfgs_kernel(sc: BatchScene, T0: np.ndarray, opts: SolveOptions):
    """Run the batch BFGS schedule; returns (T, grad, traces, iterations).

    A member leaves the schedule at the first of two exits. At the noise
    floor: the first iterate, T0 included, whose |g| < NOISE_FLOOR_TOL
    (1 + L), L summed from the clamped segment norms; a member whose optimum
    sits at a parameter of 0 reaches it without ever repeating bitwise. At a
    fixed point: a step that leaves T bitwise unchanged, so that g is
    recomputed at the same T, y = 0, the curvature gate keeps H, and every
    later iteration would repeat exactly. Such members are written out and
    dropped from the working batch; no member's arithmetic depends on which
    others share the batch, so every result equals the fixed schedule's
    stopped at that member's exit. `iterations` (B,) counts the steps each
    member took: up to the iterate that passed the floor test, up to and
    including the one that left it unchanged, or `opts.iterations`.
    """
    dtype = opts.precision.dtype
    sc = sc.astype(dtype)
    T = np.ascontiguousarray(T0, dtype=dtype)
    B, n = T.shape[0], T.shape[1]
    m = 2 * n

    # Degenerate starting points raise. Once none does, every norm is above
    # the floor, so these are also the clamped norms, bitwise. The segments
    # g is computed from are also the next step size's.
    _, s, norms = checked_segments(sc, T)
    H = np.broadcast_to(np.eye(m, dtype=dtype), (B, m, m)).copy()
    # The update and compaction write into `spare`, which then swaps roles
    # with H: these are the kernel's only two (B, m, m) arrays.
    spare = np.empty_like(H)
    g = gradient_from_segments(sc, s, norms).reshape(B, m)
    live = np.arange(B)  # batch index of each working member
    bits = f"u{T.itemsize}"  # integer view for bit-for-bit comparison
    T_out, g_out = np.empty_like(T), np.empty_like(g)
    ran = np.full(B, opts.iterations)
    still = np.zeros(B, dtype=bool)  # the last step left T bitwise unchanged
    if opts.record_trace:
        # (L, |g|) of every member after each iteration; retired members
        # keep their last values, as the full schedule would record, and a
        # member that stops at T0 keeps T0's.
        L0 = einsum("bk->b", norms)
        row = np.array([L0, np.sqrt(einsum("bi,bi->b", g, g))], dtype=float)
        hist = np.empty((opts.iterations, 2, B))

    for it in range(opts.iterations):
        gnorm = np.sqrt(einsum("bi,bi->b", g, g))
        done = still | (gnorm < NOISE_FLOOR_TOL * (1.0 + einsum("bk->b", norms)))
        if done.any():
            gone, kept = np.flatnonzero(done), np.flatnonzero(~done)
            T_out[live[gone]] = T[gone]
            g_out[live[gone]] = g[gone]
            ran[live[gone]] = it
            live, T, g, s = live[kept], T[kept], g[kept], s[kept]
            H, spare = np.take(H, kept, axis=0, out=spare[: kept.size], mode="clip"), H
            sc = sc.take(kept)
            if live.size == 0:
                if opts.record_trace:
                    hist[it:] = row
                break

        k = live.size
        p = -einsum("bij,bj->bi", H, g)
        alpha, _, _ = _fixed_point_alpha(sc, s, p.reshape(k, n, 2), opts.fixed_point_iters)
        step = alpha[:, None] * p
        T_new = T + step.reshape(k, n, 2)
        still = np.all(T_new.view(bits) == T.view(bits), axis=(1, 2))
        T = T_new
        x, s, norms = clamped_segments(sc, T)
        g_new = gradient_from_segments(sc, s, norms).reshape(k, m)
        H, spare = _inverse_hessian_update(H, step, g_new - g, spare[:k]), H
        g = g_new

        if opts.record_trace:
            # The path length at T, from the points embedded above.
            row[0, live] = einsum("bk->b", segment_norms(x)[1])
            row[1, live] = np.sqrt(einsum("bi,bi->b", g, g))
            hist[it] = row

    T_out[live] = T
    g_out[live] = g
    traces = None
    if opts.record_trace:
        traces = [
            list(zip(range(opts.iterations), lengths, gnorms))
            for lengths, gnorms in zip(hist[:, 0].T.tolist(), hist[:, 1].T.tolist())
        ]
    return T_out, g_out.reshape(B, n, 2), traces, ran


def _reports_from_state(sc: BatchScene, T, g, traces, iterations) -> list[SolveReport]:
    """One report per member; `iterations` is each member's count, or one for all."""
    lengths = path_length_batch(sc.astype(T.dtype), T)
    gnorms = np.linalg.norm(g.reshape(T.shape[0], -1), axis=1)
    iterations = np.broadcast_to(iterations, T.shape[:1]).tolist()
    out = []
    for b in range(T.shape[0]):
        out.append(
            SolveReport(
                solution=np.asarray(T[b], dtype=float),
                final_length=float(lengths[b]),
                final_grad_norm=float(gnorms[b]),
                iterations=iterations[b],
                trace=traces[b] if traces is not None else None,
            )
        )
    return out


def bfgs_solve(spec: PathSpec, T0, opts: SolveOptions = SolveOptions()) -> SolveReport:
    """Minimize path length from T0 over at most opts.iterations updates.

    The batch kernel on a batch of one: it stops at the noise floor or at a
    fixed point, and its result equals the fixed schedule's run to that exit.
    """
    T0 = check_params(spec, T0)
    sc = spec.batch
    return _reports_from_state(sc, *_bfgs_kernel(sc, T0[None], opts))[0]


def batch_solve(
    specs: Sequence[PathSpec], T0s, opts: SolveOptions = SolveOptions()
) -> list[SolveReport]:
    """Solve many paths with identical n; each leaves the schedule at its own exit."""
    sc = BatchScene.from_specs(specs)
    T0 = stack_params(specs, T0s)
    return _reports_from_state(sc, *_bfgs_kernel(sc, T0, opts))
