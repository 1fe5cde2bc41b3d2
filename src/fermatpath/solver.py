"""Batch BFGS path solver with fixed-point step sizes.

The solver runs a fixed number of iterations for every path in a batch,
and its results equal that fixed schedule's bitwise. In a batch, a member
whose step no longer moves it, or a step-size iteration that no longer
changes any step size, is at an exact fixed point, so it is no longer
computed. A single-path solve (`bfgs_solve`) runs the whole schedule, so
its cost is the same for every scene of a given size.
The step size along each quasi-Newton direction comes from a fixed-point
iteration on the exact one-dimensional optimality condition, warm-started
at zero. Each BFGS iteration embeds the paths once: the clamped segments
the new gradient is computed from are also the next step size's. At B=1
the cost is the number of numpy calls, so the step-size loop makes as few
as it can without changing a bit. The scalar entry point is the batch
kernel applied to a batch of one, so batched and per-path results agree
bitwise.
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
    gradient_from_segments,
    path_length_batch,
    segment_norms,
    stack_params,
)

# `gradient_batch` is unused here but stays importable: the benchmark's tracer test reads it.
from .batching import gradient_batch  # noqa: F401
from .errors import DegenerateSegment, ZeroDirection
from .geometry import PathSpec, check_params, params_from_points


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
    iterations: int
    trace: list[tuple[int, float, float]] | None = None


def init_params(spec: PathSpec) -> np.ndarray:
    """Deterministic initial guess: project the start/end midpoint onto each surface.

    Solves the normal equations of the least-squares projection restricted to
    active basis columns; inert coordinates start at zero. The Gram matrices
    and the solves are stacked, one per surface kind (planes 2x2, edges 1x1).
    Each right-hand side stays one `A.T @ (mid - anchor)` per surface, with
    `A.T` a fresh C-ordered copy (the layout boolean indexing gives): BLAS
    `gemv` rounds by the layout and alignment of its operands, so a stacked
    product, or one on views into the stacked basis, moves the guess by an
    ulp. A plane whose Gram matrix rounds to singular, though its basis
    passed the degeneracy check, takes the pseudo-inverse projection
    `params_from_points` instead.
    """
    mid = 0.5 * (spec.start + spec.end)
    basis, anchor = spec.basis_tensor, spec.anchor_tensor
    planes = spec.active_mask[:, 1]  # else an edge: first column only
    T = np.zeros((spec.n, 2))
    rhs = np.zeros((spec.n, 2))
    for i, plane in enumerate(planes.tolist()):
        k = 2 if plane else 1
        rhs[i, :k] = basis[i, :, :k].T.copy() @ (mid - anchor[i])
    for k, idx in ((2, np.flatnonzero(planes)), (1, np.flatnonzero(~planes))):
        if idx.size:
            A = basis[idx, :, :k]
            G = A.transpose(0, 2, 1) @ A
            try:
                T[idx, :k] = np.linalg.solve(G, rhs[idx, :k, None])[..., 0]
            except np.linalg.LinAlgError:
                return params_from_points(spec, np.broadcast_to(mid, (spec.n, 3)))
    return T


def _fixed_point_alpha(sc: BatchScene, s, P, iters: int, eps, stop_when_still: bool = True):
    """Batched fixed-point step size; returns (alpha, zero, clamped), each (B,).

    `s` holds the current segments. Members whose direction moves no point
    (`zero`) keep alpha 0, and a trial segment that collapses below `eps` is
    clamped (`clamped`), so batch control flow stays uniform. With
    `stop_when_still` the loop ends once no step size changes; the result
    is the same either way.

    At B=1 the loop's cost is its number of numpy calls, so each iteration
    divides `c` and `-a2`, stacked, by the trial norms once and sums both
    rows in one reduction. The step is `num / -dsum`: negation and division
    are exact, so it equals `-num / dsum` bitwise, signed zeros included
    (folding the minus into `c` would turn a -0.0 step into +0.0).
    """
    dtype = s.dtype
    B, n = P.shape[0], P.shape[1]
    w = np.einsum("bnij,bnj->bni", sc.basis, P)  # A_i p_i at interior points
    wp = np.concatenate(
        [np.zeros((B, 1, 3), dtype=dtype), w, np.zeros((B, 1, 3), dtype=dtype)], axis=1
    )
    dAp = wp[:, 1:] - wp[:, :-1]  # (B, n+1, 3)
    a2 = np.einsum("bki,bki->bk", dAp, dAp)
    c = np.einsum("bki,bki->bk", dAp, s)
    total = np.einsum("bk->b", a2)
    zero = total <= np.finfo(dtype).tiny
    moving = ~zero if zero.any() else None
    c_a2 = np.stack([c, -a2], axis=1)  # (B, 2, n+1)

    alpha = np.zeros(B, dtype=dtype)
    floor = eps[:, None]
    lowest = np.full(a2.shape, np.inf, dtype=dtype)  # smallest trial segment norms
    # A zero direction divides 0 by 0; its step is discarded below.
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(iters):
            seg = s + alpha[:, None, None] * dAp
            # Trial points may transiently collapse a segment when the
            # iteration is not contracting; clamp instead of aborting the
            # whole batch.
            den = np.sqrt(np.einsum("bki,bki->bk", seg, seg))
            np.fmin(lowest, den, out=lowest)
            np.maximum(den, floor, out=den)
            sums = np.einsum("bjk->bj", c_a2 / den[:, None])  # (num, -dsum)
            new = sums[:, 0] / sums[:, 1]
            keep = np.isfinite(new)
            if moving is not None:
                keep &= moving
            new = np.where(keep, new, alpha)
            # Given s and dAp the update depends on alpha alone, so once no
            # alpha changes, every further iteration would repeat this one.
            if stop_when_still and new.tobytes() == alpha.tobytes():
                break
            alpha = new
    return alpha, zero, (lowest <= floor).any(axis=1)


def line_search_alpha(spec: PathSpec, T, P, k: int = 1) -> float:
    """Fixed-point step size along direction P after k iterations from 0.

    The batch kernel's step size for a batch of one. Raises ZeroDirection
    when P moves no interaction point and DegenerateSegment when a trial
    point lands on a neighbouring path point.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    T = check_params(spec, T)
    P = check_params(spec, P)
    sc = BatchScene.of(spec)
    _, s, _ = checked_segments(sc, T[None])
    alpha, zero, clamped = _fixed_point_alpha(sc, s, P[None], k, sc.eps)
    if zero[0]:
        raise ZeroDirection("direction moves no interaction point")
    if clamped[0]:
        raise DegenerateSegment("step-size denominator segment collapsed")
    return float(alpha[0])


def _bfgs_kernel(
    sc: BatchScene, T0: np.ndarray, opts: SolveOptions, skip_fixed_points: bool = True
):
    """Run the batch BFGS schedule; returns (T, grad, traces).

    A member whose step leaves T bitwise unchanged is at a fixed point of
    its whole state (T, g, H): g is recomputed at the same T, so y = 0, the
    curvature gate keeps H, and every later iteration repeats exactly. With
    `skip_fixed_points`, such members are written out and dropped from the
    working batch, and step-size loops end once no step size changes; no
    member's arithmetic depends on which others share the batch, so every
    result equals the full schedule's either way.
    """
    dtype = opts.precision.dtype
    sc = sc.astype(dtype)
    T = np.ascontiguousarray(T0, dtype=dtype)
    B, n = T.shape[0], T.shape[1]
    m = 2 * n

    if n == 0:
        traces = [[] for _ in range(B)] if opts.record_trace else None
        return T, np.zeros((B, 0, 2), dtype=dtype), traces

    checked_segments(sc, T)  # reject degenerate starting points loudly
    H = np.broadcast_to(np.eye(m, dtype=dtype), (B, m, m)).copy()
    # The segments g is computed from are also the next step size's.
    _, s, norms = clamped_segments(sc, T)
    g = gradient_from_segments(sc, s, norms).reshape(B, m)
    curv_tol = dtype(1e-12)
    live = np.arange(B)  # batch index of each working member
    bits = f"u{T.itemsize}"  # integer view for bit-for-bit comparison
    T_out, g_out = np.empty_like(T), np.empty_like(g)
    if opts.record_trace:
        # (L, |g|) of every member after each iteration; retired members
        # keep their last values, as the full schedule would record.
        row = np.empty((2, B))
        hist = np.empty((opts.iterations, 2, B))

    for it in range(opts.iterations):
        k = live.size
        p = -np.einsum("bij,bj->bi", H, g)
        alpha, _, _ = _fixed_point_alpha(
            sc, s, p.reshape(k, n, 2), opts.fixed_point_iters, sc.eps,
            stop_when_still=skip_fixed_points,
        )
        step = alpha[:, None] * p
        T_new = T + step.reshape(k, n, 2)
        moved = np.any(T_new.view(bits) != T.view(bits), axis=(1, 2))
        T = T_new
        x, s, norms = clamped_segments(sc, T)
        g_new = gradient_from_segments(sc, s, norms).reshape(k, m)
        y = g_new - g
        sy = np.einsum("bi,bi->b", step, y)
        s_norm = np.sqrt(np.einsum("bi,bi->b", step, step))
        y_norm = np.sqrt(np.einsum("bi,bi->b", y, y))
        ok = sy > curv_tol * s_norm * y_norm
        rho = np.where(ok, np.ones_like(sy) / np.where(ok, sy, np.ones_like(sy)), 0.0)
        with np.errstate(over="ignore", invalid="ignore"):
            Hy = np.einsum("bij,bj->bi", H, y)
            yHy = np.einsum("bi,bi->b", y, Hy)
            # H - rho (sHy + sHy^T) + (rho^2 yHy + rho) ss^T, evaluated in
            # the same order but in place, so that at most three (B, m, m)
            # arrays are alive at once.
            sHy = np.einsum("bi,bj->bij", step, Hy)
            H_new = sHy + np.swapaxes(sHy, 1, 2)
            del sHy
            np.multiply(rho[:, None, None], H_new, out=H_new)
            np.subtract(H, H_new, out=H_new)
            ssT = np.einsum("bi,bj->bij", step, step)
            np.multiply((rho * rho * yHy + rho)[:, None, None], ssT, out=ssT)
            H_new += ssT
            del ssT
        # Near-zero curvature can overflow the rank-two terms in single
        # precision; treat those updates as skipped.
        ok = ok & np.all(np.isfinite(H_new), axis=(1, 2))
        H = np.where(ok[:, None, None], H_new, H)
        g = g_new

        if opts.record_trace:
            # The path length at T, from the points embedded above.
            row[0, live] = np.einsum("bk->b", segment_norms(x)[1])
            row[1, live] = np.sqrt(np.einsum("bi,bi->b", g, g))
            hist[it] = row

        if skip_fixed_points and not moved.all():
            done = ~moved
            T_out[live[done]] = T[done]
            g_out[live[done]] = g[done]
            live, T, g, H = live[moved], T[moved], g[moved], H[moved]
            s = s[moved]
            sc = sc.take(moved)
            if live.size == 0:
                if opts.record_trace:
                    hist[it + 1 :] = row
                break

    T_out[live] = T
    g_out[live] = g
    traces = None
    if opts.record_trace:
        traces = [
            list(zip(range(opts.iterations), lengths, gnorms))
            for lengths, gnorms in zip(hist[:, 0].T.tolist(), hist[:, 1].T.tolist())
        ]
    return T_out, g_out.reshape(B, n, 2), traces


def _reports_from_state(sc: BatchScene, T, g, traces, iterations) -> list[SolveReport]:
    lengths = path_length_batch(sc.astype(T.dtype), T)
    gnorms = np.linalg.norm(g.reshape(T.shape[0], -1), axis=1)
    out = []
    for b in range(T.shape[0]):
        out.append(
            SolveReport(
                solution=np.asarray(T[b], dtype=float),
                final_length=float(lengths[b]),
                final_grad_norm=float(gnorms[b]),
                iterations=iterations,
                trace=traces[b] if traces is not None else None,
            )
        )
    return out


def bfgs_solve(spec: PathSpec, T0, opts: SolveOptions = SolveOptions()) -> SolveReport:
    """Minimize path length from T0 over opts.iterations updates.

    The batch kernel on a batch of one. Every update is computed, also
    after the path stops moving, so the cost depends on the scene's size
    only.
    """
    T0 = check_params(spec, T0)
    sc = BatchScene.of(spec)
    T, g, traces = _bfgs_kernel(sc, T0[None], opts, skip_fixed_points=False)
    return _reports_from_state(sc, T, g, traces, opts.iterations)[0]


def batch_solve(
    specs: Sequence[PathSpec], T0s, opts: SolveOptions = SolveOptions()
) -> list[SolveReport]:
    """Solve many paths with identical n under one uniform iteration schedule."""
    sc = BatchScene.from_specs(specs)
    T0 = stack_params(specs, T0s)
    T, g, traces = _bfgs_kernel(sc, T0, opts)
    return _reports_from_state(sc, T, g, traces, opts.iterations)
