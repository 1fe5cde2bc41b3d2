"""Batch BFGS path solver with exact one-dimensional step sizes.

The solver runs one iteration schedule for every path in a batch, and a
member leaves it at the first of two exits: an iterate whose gradient is
at the noise floor, |g| < NOISE_FLOOR_TOL (1 + L), or a step that leaves
it bitwise unchanged, an exact fixed point. Each result equals the fixed
schedule's, run to that member's exit, bitwise. Every caller, the
single-path `bfgs_solve` and the reference (`baselines`) included, runs
this one schedule. The initial guess is the start/end midpoint projected
onto each surface by its closed-form pseudo-inverse, one stacked
projection per batch (`init_params_batch`).
The step size along each quasi-Newton direction solves the exact
one-dimensional optimality condition, from zero. Its first evaluation is
the paper's fixed-point step, so a budget of one evaluation (fp=1) is the
paper's step size. In double precision the further evaluations are
bracketed Newton steps on the slope of the path length along the line,
which converge in a few evaluations where the fixed-point map needs dozens;
each member's step-size loop stops on its own, at the rounding floor of
that slope or after a step of about 4 ulps. The default budget of two
evaluations (fp=2) adds one Newton step. On random n=5 batches, larger
budgets run no fewer BFGS iterations, while fp=1 leaves 3 to 5% of the
members unstationary after 100 iterations. In single precision every
evaluation is the fixed-point step, and the loop ends once no step size
changes. Each BFGS iteration embeds the paths once: the clamped segments
the new gradient is computed from are also the next step size's, and so
are their clamped norms, which the step size's first evaluation, at
alpha = 0, takes as its trial norms instead of embedding 0 d + s again.
The kernel works batch last, as `batching` lays a batch out: parameters
and directions (2, n, B), segments (3, n+1, B), and per-segment scalars
as (B, n+1) copies wherever they are summed over a member's segments.
The inverse Hessians stay (B, 2n, 2n), so g and p cross between the
layouts with one contiguous copy each per iteration; `_bfgs_kernel`
takes and returns (B, n, 2). At B=1 the cost of an iteration is the
number of numpy calls, so `einsum` is numpy's C kernel called directly,
without the dispatch layer that `np.einsum` adds (see `batching`), and the
step size and the update stack their operands so that one call does the
work of two. Each step-size call writes [s, dAp] into one (2, 3, n+1, B)
array and its per-segment dot products into one (3, B, n+1) array, and
reuses both for every evaluation. The inverse-Hessian update is the
rank-two product H + U W^T, one batched `matmul` into the kernel's spare
(B, 2n, 2n) buffer, so the kernel holds two such arrays; U and W^T come
from one (2, B, 2n) stack [a, Hy]. It keeps H bitwise symmetric and
rounds differently from the textbook three-term form. The step size and
the update equal the plain expressions in `tests/_oracles.py` bitwise.
The scalar entry point is the batch kernel applied to a batch of one, so
batched and per-path results agree bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from numbers import Integral
from typing import Sequence

import numpy as np

from .batching import (
    BatchScene,
    member_rows,
    checked_segments,
    clamped_segments,
    direction_segments,
    einsum,
    gradient_from_segments,
    stack_params,
    unit_directions,
)

# `gradient_batch` is unused here but stays importable: the benchmark's tracer test reads it.
from .batching import gradient_batch  # noqa: F401
from .errors import DegenerateSegment, ZeroDirection
from .geometry import PathSpec, check_params, params_from_points_batch

NOISE_FLOOR_TOL = 1e-15  # about 4.5 float64 epsilons

# 0-d float64 operands of the step size's Newton pass, which runs in double
# precision only: a ufunc converts a Python float operand on every call.
_ZERO, _HALF, _INF, _NEG_INF = (np.full((), v) for v in (0.0, 0.5, np.inf, -np.inf))
_SLOPE_ULPS, _STEP_ULPS = (np.full((), v * np.finfo(np.float64).eps) for v in (8, 4))


class Precision(Enum):
    SINGLE = "single"
    DOUBLE = "double"

    @property
    def dtype(self):
        return np.float32 if self is Precision.SINGLE else np.float64


@dataclass(frozen=True)
class SolveOptions:
    iterations: int = 100
    fixed_point_iters: int = 2
    precision: Precision = Precision.DOUBLE
    record_trace: bool = False

    def __post_init__(self):
        _check_count("iterations", self.iterations, 1)
        _check_count("fixed_point_iters", self.fixed_point_iters, 1)
        object.__setattr__(self, "precision", Precision(self.precision))


def _check_count(name: str, value, lowest: int, highest: int | None = None) -> None:
    """Raise ValueError unless `value` is an integer in lowest..highest (unbounded if None).

    A bool is an Integral, but True is no count.
    """
    ok = isinstance(value, Integral) and not isinstance(value, bool) and value >= lowest
    if not ok or (highest is not None and value > highest):
        bounds = f"in {lowest}..{highest}" if highest else f">= {lowest}"
        raise ValueError(f"{name} must be an integer {bounds}")


@dataclass(frozen=True)
class SolveReport:
    solution: np.ndarray  # (n, 2)
    final_length: float
    final_grad_norm: float
    iterations: int  # iterations run; BFGS stops at the noise floor or a fixed point
    trace: list[tuple[int, float, float]] | None = None


def init_params_batch(sc: BatchScene) -> np.ndarray:
    """(B, n, 2) initial guesses: each start/end midpoint projected onto each surface.

    The projection is `params_from_points_batch`: the batch's closed-form
    Gram-Schmidt pseudo-inverses (`geometry.basis_pinv`), applied in one
    contraction. A nearly parallel plane basis keeps its accuracy, and inert
    coordinates are +0.0.
    """
    mid = 0.5 * (sc.start + sc.end)
    return params_from_points_batch(sc, mid[:, None]).T


def init_params(spec: PathSpec) -> np.ndarray:
    """`init_params_batch` of one path: its (n, 2) initial guess."""
    return init_params_batch(spec.batch)[0]


def _fixed_point_alpha(sc: BatchScene, s, den, P, iters: int):
    """Batched step size along P from the segments `s`; returns (alpha, zero, clamped), each (B,).

    `s` is (3, n+1, B) and `P` (2, n, B); `den` is the (B, n+1) C-contiguous
    copy of the segment norms of `s` clamped to the floor, which the kernel
    has already computed. The step size solves the exact one-dimensional
    optimality condition phi'(alpha) = sum_k e_k / den_k = 0, where d_k is
    what P adds to segment k, e_k = (s_k + alpha d_k) . d_k and
    den_k = |s_k + alpha d_k|. `iters` caps the evaluations of phi'.
    Members whose direction moves no point (`zero`) keep alpha 0, and a
    trial segment that collapses below the floor `sc.eps` is clamped
    (`clamped`), so batch control flow stays uniform. Each call fills two
    stacks that every evaluation reuses: `sd` = [s, dAp], whose slot 0 the
    Newton pass overwrites with its trial segments, and `dots`, the
    per-segment dot products of one contraction on `sd`, so that one
    division and one reduction give phi' and D1. The per-segment terms are
    (B, n+1) C-contiguous, so each sum over a member's segments runs the
    same algorithm at every batch size (see `batching`). A contraction
    streams over the batch and is copied to that layout afterwards, which
    at B=1000 is faster than writing it there.

    The first evaluation is the paper's fixed-point step from alpha = 0,
    alpha - phi'/D1 with D1 = sum_k |d_k|^2 / den_k, so a budget of one is
    the paper's step size bitwise. At alpha = 0 the trial segments are `s`,
    so it takes `den` as its trial norms instead of embedding 0 d_k + s_k;
    the clamped norm is at or below the floor exactly where the norm is, so
    `clamped` is unchanged. It sums c_k = s_k . d_k and |d_k|^2 over the
    trial norms, and the step is `num / -dsum`, which equals `-num / dsum`
    bitwise, signed zeros included (folding the minus into `c` would turn
    a -0.0 step into +0.0).

    In single precision every evaluation is the fixed-point step, and the
    loop ends once no step size changes, which gives the result of all
    `iters`. This fork is kept for the float32 solves' sake: Newton makes a
    float32 solve at fp=4 as accurate as one at fp=64, so both sit at the
    float32 floor, where which reads the smaller error is rounding (on
    criterion 8's reflections, seed 3, B=200, n=1: 6.04e-7 at fp=4, 6.10e-7
    at fp=64), and criterion 8's ordering of fp=4 and fp=64 would rest on it.

    In double precision the further evaluations are bracketed Newton
    steps, in the operation order of `tests/_oracles.fixed_point_alpha`;
    on single-path solves of n = 8 to 64 a call takes about 4 evaluations
    where the fixed-point map takes about 36. phi is convex along the line,
    so the sign of each phi' moves one end of a bracket [lo, hi] around the
    root, from phi'(0). With Q = sum_k e_k^2 / den_k^3, phi'' = D1 - Q, the
    step is the Newton value alpha - phi'/phi'' if it lies in the bracket,
    else the bracket's midpoint. alpha is an end of the bracket, so the test
    is |phi'| <= (hi - lo) phi'', false for phi'' <= 0. Each member stops on
    its own and keeps its alpha: at |phi'| <= 8 eps sum_k |d_k|, the
    rounding floor of phi', without the step; at a value that is not
    finite, as the midpoint of a bracket open on one side is; after a step
    of at most 4 eps |alpha|; or after `iters` evaluations. `lowest` takes
    the trial norms of running (`active`) members alone, so no member's
    result depends on the batch.
    """
    dtype = s.dtype
    # [s, dAp]: once the Newton pass runs, slot 0 holds its trial segments.
    sd = np.empty((2,) + s.shape, dtype=dtype)
    sd[0] = s
    dAp = direction_segments(sc, P, out=sd[1])
    # Per-segment dot products, each (B, n+1) C-contiguous: [c, a2] in slots
    # 1-2; the Newton pass writes [|seg|^2, e] into slots 0-1, so that one
    # division gives e / den and a2 / den.
    dots = np.empty((3,) + den.shape, dtype=dtype)
    dots[1:] = einsum("ikb,xikb->xkb", dAp, sd).transpose(0, 2, 1)
    a2 = dots[2]
    zero = einsum("bk->b", a2) <= np.finfo(dtype).tiny

    alpha = np.zeros(P.shape[2], dtype=dtype)
    floor = sc.eps[:, None]
    lowest = den  # smallest trial segment norms
    single = dtype == np.float32
    # A zero direction divides 0 by 0; its step is discarded below.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for it in range(iters if single else 1):
            if it:
                # Trial points may transiently collapse a segment when the
                # iteration is not contracting; clamp instead of aborting
                # the whole batch.
                seg = alpha * dAp + s
                den = np.ascontiguousarray(np.sqrt(einsum("ikb,ikb->kb", seg, seg)).T)
                lowest = np.fmin(lowest, den)
                den = np.maximum(den, floor)
            num, dsum = einsum("xbk->xb", dots[1:] / den)
            new = num / -dsum
            keep = np.isfinite(new) & ~zero
            new = np.where(keep, new, alpha)
            # Given s and dAp the update depends on alpha alone, so once no
            # alpha changes, every further iteration would repeat this one.
            if single and new.tobytes() == alpha.tobytes():
                break
            alpha = new
        if single or iters == 1:
            return alpha, zero, (lowest <= floor).any(axis=1)

        tol = _SLOPE_ULPS * einsum("bk->b", np.sqrt(a2))
        # num is phi'(0): the first evaluation's slope brackets the root.
        lo = np.where(num < _ZERO, _ZERO, _NEG_INF)
        hi = np.where(num > _ZERO, _ZERO, _INF)
        active = keep
        lowest = lowest.copy()  # the caller's norms stay as they are
        seg = sd[0]
        for it in range(1, iters):
            if not np.count_nonzero(active):
                break
            np.multiply(alpha, dAp, out=seg)
            seg += s
            dots[:2] = einsum("ikb,xikb->xkb", seg, sd).transpose(0, 2, 1)
            norms = np.sqrt(dots[0], out=dots[0])
            np.fmin(lowest, norms, out=lowest, where=active[:, None])
            den = np.maximum(norms, floor)
            ratios = dots[1:] / den  # [e / den, a2 / den]
            slope, d1 = einsum("xbk->xb", ratios)
            ratio = ratios[0]
            curvature = d1 - einsum("bk->b", ratio * ratio / den)
            newton = alpha - slope / curvature
            lo = np.where(slope < _ZERO, alpha, lo)
            hi = np.where(slope > _ZERO, alpha, hi)
            size = np.abs(slope)
            width = hi - lo
            # Newton's value, else the midpoint, which is not finite while
            # the bracket is open on one side: that member stops.
            new = np.where(size <= width * curvature, newton, lo + _HALF * width)
            step = np.abs(new - alpha)
            moves = active & (size > tol) & np.isfinite(step)
            alpha = np.where(moves, new, alpha)
            if it < iters - 1:  # no evaluation follows the last
                active = moves & (step > _STEP_ULPS * np.abs(alpha))
    return alpha, zero, (lowest <= floor).any(axis=1)


def line_search_alpha(spec: PathSpec, T, P, k: int = 1) -> float:
    """Step size along direction P from at most k evaluations of phi', starting at 0.

    `_fixed_point_alpha` on a batch of one: k=1 is the paper's fixed-point
    step; in double precision each further evaluation is a bracketed
    Newton step, and the loop stops early once the step size has converged;
    in single precision each is a fixed-point step. Raises ZeroDirection
    when P moves no interaction point and DegenerateSegment when a trial
    point lands on a neighbouring path point.
    """
    _check_count("k", k, 1)
    T = check_params(spec, T)
    P = check_params(spec, P, name="direction")
    sc = spec.batch
    # Every checked norm is above the floor, so these are the clamped norms.
    _, s, norms = checked_segments(sc, T.T[..., None])
    alpha, zero, clamped = _fixed_point_alpha(sc, s, norms.T.copy(), P.T[..., None], k)
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
    two products. U and W^T are two multiplies of one (2, k, m) stack
    [a, Hy], by [r, q] = [sqrt|rho t|, sqrt|rho / t|] and by sign(t) [r, -q].
    The result equals `np.where(ok, H + U @ W^T, H)`, with `ok` including
    `np.all(np.isfinite(...))`, bitwise. A finite sum over a
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
    rho = np.divide(1, sy, out=np.zeros(k, H.dtype), where=ok)
    aHy = np.empty((2, k, m), dtype=H.dtype)  # [a, Hy]
    rq, signs = np.empty((2, 2, k), dtype=H.dtype)  # [r, q] and [sign(t), -sign(t)]
    U = np.empty((k, m, 2), dtype=H.dtype)
    Wt = np.empty((k, 2, m), dtype=H.dtype)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        Hy = einsum("bij,bj->bi", H, y, out=aHy[1])
        t = rho * einsum("bi,bi->b", y, Hy) + dtype(1)
        np.subtract(step, Hy / t[:, None], out=aHy[0])
        np.multiply(rho, t, out=rq[0])
        np.divide(rho, t, out=rq[1])
        np.sqrt(np.abs(rq, out=rq), out=rq)
        np.sign(t, out=signs[0])
        np.negative(signs[0], out=signs[1])
        # [P, Q] into U, and sign(t) P and -sign(t) Q into W^T, bitwise:
        # scaling by +-1 is exact.
        np.multiply(rq[:, :, None], aHy, out=U.transpose(2, 0, 1))
        np.multiply((signs * rq)[:, :, None], aHy, out=Wt.transpose(1, 0, 2))
        np.matmul(U, Wt, out=out)
        out += H
        # Near-zero curvature can overflow the rank-two terms in single
        # precision; treat those updates as skipped.
        finite = np.isfinite(einsum("bij->b", out))
    if np.count_nonzero(finite) < k:
        unsure = np.flatnonzero(ok & ~finite)
        ok[unsure] = np.isfinite(out[unsure]).all(axis=(1, 2))
    if np.count_nonzero(ok) < k:
        np.copyto(out, H, where=~ok[:, None, None])
    return out


def _bfgs_kernel(sc: BatchScene, T0: np.ndarray, opts: SolveOptions):
    """Run the batch BFGS schedule from T0 (B, n, 2); returns (T, g, L, traces, iterations).

    Each iterate, T0 included, is embedded once; its |g| and its length L,
    summed from the clamped segment norms, are computed once, after its
    gradient, and the floor test, the trace and the write-out read them.
    A member leaves the schedule at the first of two exits. At the noise
    floor: the first iterate whose |g| < NOISE_FLOOR_TOL (1 + L); a member
    whose optimum sits at a parameter of 0 reaches it without ever repeating
    bitwise. At a fixed point: a step that leaves T bitwise unchanged, so that g is
    recomputed at the same T, y = 0, the curvature gate keeps H, and every
    later iteration would repeat exactly. Such members are written out and
    dropped from the working batch; no member's arithmetic depends on which
    others share the batch, so every result equals the fixed schedule's
    stopped at that member's exit. `iterations` (B,) counts the steps each
    member took: up to the iterate that passed the floor test, up to and
    including the one that left it unchanged, or `opts.iterations`.

    The parameters, segments and directions are worked on batch last, as
    the scene is; the inverse Hessians stay (B, 2n, 2n), and g and p cross
    between the two layouts with one contiguous copy each per iteration.
    T and g come back C-contiguous, (B, n, 2), and L (B,) holds each T's length.
    """
    dtype = opts.precision.dtype
    sc = sc.astype(dtype)
    T = np.ascontiguousarray(np.asarray(T0, dtype=dtype).T)
    n, B = T.shape[1], T.shape[2]
    m = 2 * n

    # Degenerate starting points raise. Once none does, every norm is above
    # the floor, so these are also the clamped norms, bitwise. The segments
    # and norms g is computed from are also the next step size's, and the
    # norms are kept as (B, n+1) for the sums over each member's segments.
    _, s, norms = checked_segments(sc, T)
    g = member_rows(gradient_from_segments(sc, unit_directions(s, norms)[1]))
    norms = np.ascontiguousarray(norms.T)
    gnorm, L = np.sqrt(einsum("bi,bi->b", g, g)), einsum("bk->b", norms)
    H = np.broadcast_to(np.eye(m, dtype=dtype), (B, m, m)).copy()
    # The update and compaction write into `spare`, which then swaps roles
    # with H: these are the kernel's only two (B, m, m) arrays.
    spare = np.empty_like(H)
    live = np.arange(B)  # batch index of each working member
    bits = f"u{T.itemsize}"  # integer view for bit-for-bit comparison
    T_out, g_out, L_out = np.empty_like(T), np.empty_like(g), np.empty_like(L)
    ran = np.full(B, opts.iterations)
    still = np.zeros(B, dtype=bool)  # the last step left T bitwise unchanged
    if opts.record_trace:
        # (L, |g|) of every member after each iteration; retired members
        # keep their last values, as the full schedule would record, and a
        # member that stops at T0 keeps T0's.
        row = np.array([L, gnorm], dtype=float)
        hist = np.empty((opts.iterations, 2, B))

    for it in range(opts.iterations):
        done = still | (gnorm < NOISE_FLOOR_TOL * (1.0 + L))
        if np.count_nonzero(done):
            gone, kept = np.flatnonzero(done), np.flatnonzero(~done)
            T_out[..., live[gone]] = T[..., gone]
            g_out[live[gone]], L_out[live[gone]] = g[gone], L[gone]
            ran[live[gone]] = it
            live, g, norms, gnorm, L = live[kept], g[kept], norms[kept], gnorm[kept], L[kept]
            T, s = np.take(T, kept, axis=-1), np.take(s, kept, axis=-1)
            H, spare = np.take(H, kept, axis=0, out=spare[: kept.size], mode="clip"), H
            sc = sc.take(kept)
            if live.size == 0:
                if opts.record_trace:
                    hist[it:] = row
                break

        k = live.size
        p = -einsum("bij,bj->bi", H, g)
        P = np.ascontiguousarray(p.reshape(k, n, 2).T)
        alpha, _, _ = _fixed_point_alpha(sc, s, norms, P, opts.fixed_point_iters)
        step = alpha[:, None] * p
        T_new = T + alpha * P
        still = (T_new.view(bits) == T.view(bits)).all(axis=(0, 1))
        T = T_new
        _, s, norms = clamped_segments(sc, T)
        g_new = member_rows(gradient_from_segments(sc, unit_directions(s, norms)[1]))
        norms = np.ascontiguousarray(norms.T)
        H, spare = _inverse_hessian_update(H, step, g_new - g, spare[:k]), H
        g = g_new
        gnorm, L = np.sqrt(einsum("bi,bi->b", g, g)), einsum("bk->b", norms)
        if opts.record_trace:
            row[:, live] = L, gnorm
            hist[it] = row

    T_out[..., live] = T
    g_out[live], L_out[live] = g, L
    traces = None
    if opts.record_trace:
        traces = [
            list(zip(range(opts.iterations), lengths, gnorms))
            for lengths, gnorms in zip(hist[:, 0].T.tolist(), hist[:, 1].T.tolist())
        ]
    return np.ascontiguousarray(T_out.T), g_out.reshape(B, n, 2), L_out, traces, ran


def _reports_from_state(T, g, L, traces, iterations) -> list[SolveReport]:
    """One report per member of a kernel's (B, n, 2) T and g and (B,) lengths L.

    `iterations` is per member, or one for all; nothing is embedded again.
    """
    gnorms = np.linalg.norm(g.reshape(T.shape[0], -1), axis=1).tolist()
    iterations = np.broadcast_to(iterations, T.shape[:1]).tolist()
    traces = traces if traces is not None else [None] * T.shape[0]
    # Fields in SolveReport's order; each solution is a row view of the float64 array.
    return list(map(SolveReport, np.asarray(T, float), L.tolist(), gnorms, iterations, traces))


def bfgs_solve(spec: PathSpec, T0, opts: SolveOptions = SolveOptions()) -> SolveReport:
    """Minimize path length from T0 over at most opts.iterations updates.

    The batch kernel on a batch of one: it stops at the noise floor or at a
    fixed point, and its result equals the fixed schedule's run to that exit.
    """
    T0 = check_params(spec, T0)
    return _reports_from_state(*_bfgs_kernel(spec.batch, T0[None], opts))[0]


def batch_solve(
    specs: Sequence[PathSpec], T0s, opts: SolveOptions = SolveOptions()
) -> list[SolveReport]:
    """Solve many paths with identical n; each leaves the schedule at its own exit."""
    sc = BatchScene.from_specs(specs)
    T0 = stack_params(specs, T0s)
    return _reports_from_state(*_bfgs_kernel(sc, T0, opts))
