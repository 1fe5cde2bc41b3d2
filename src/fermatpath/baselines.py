"""Comparison solvers: exact image method, gradient descent, damped Newton,
and the high-precision reference used as ground truth in benchmarks.

Newton runs on active coordinates only: the inert edge coordinates are
masked out by pinning their rows and columns of the Hessian to the
identity (`batching.solve_active`, shared with implicit differentiation),
which leaves them exactly untouched. It embeds each iterate once and takes
the gradient, the Hessian and the length from those segments. The
reference is one long BFGS run of the batch kernel, stopped per member at
the gradient noise floor, then certified by the stationarity test on the
kernel's g and L, on a `BatchScene` (`_reference_kernel`). Every kernel
returns (T, g, L) of its last iterate, and nothing embeds it again.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .batching import (
    BatchScene,
    clamped_segments,
    member_rows,
    einsum,
    embed_batch,
    gradient_from_segments,
    hessian_from_segments,
    path_length_batch,
    segment_norms,
    segment_sum,
    solve_active,
    stack_params,
    unit_directions,
)
from .errors import (
    NoConvergence,
    NoIntersection,
    NotAllPlanes,
    SingularHessian,
)
from .geometry import PathSpec, SurfaceKind, check_params
from .solver import (
    Precision,
    SolveOptions,
    SolveReport,
    _bfgs_kernel,
    _reports_from_state,
    init_params_batch,
)

PARALLEL_TOL = 1e-12
REFERENCE_GRAD_TOL = 1e-12
REFERENCE_BFGS_ITERS = 1000
REFERENCE_FP_ITERS = 2


# ---------------------------------------------------------------------------
# Image method


def _plane_normals(sc: BatchScene) -> np.ndarray:
    nrm = np.cross(sc.basis[:, 0], sc.basis[:, 1], axis=0)
    return nrm / np.linalg.norm(nrm, axis=0, keepdims=True)


def image_points_batch(sc: BatchScene) -> np.ndarray:
    """(3, n, B) exact reflection points for all-plane scenes."""
    B, n = sc.size, sc.n
    normals = _plane_normals(sc)
    images = np.empty((3, n, B))
    m = sc.start.copy()
    for i in range(n):
        nh = normals[:, i]
        d = einsum("ib,ib->b", m - sc.anchor[:, i], nh)
        m = m - 2.0 * d * nh
        images[:, i] = m
    pts = np.empty((3, n, B))
    y = sc.end.copy()
    for i in range(n - 1, -1, -1):
        nh = normals[:, i]
        mi = images[:, i]
        dirv = y - mi
        denom = einsum("ib,ib->b", dirv, nh)
        if np.any(np.abs(denom) <= PARALLEL_TOL * np.linalg.norm(dirv, axis=0)):
            raise NoIntersection("mirrored sight line parallel to its plane")
        t = einsum("ib,ib->b", sc.anchor[:, i] - mi, nh) / denom
        y = mi + t * dirv
        pts[:, i] = y
    return pts


def image_method(spec: PathSpec) -> np.ndarray:
    """Exact reflection points (n, 3) via successive mirroring."""
    if any(s.kind is not SurfaceKind.PLANE for s in spec.surfaces):
        raise NotAllPlanes("image method handles planar reflections only")
    return image_points_batch(spec.batch)[..., 0].T


# ---------------------------------------------------------------------------
# Gradient descent


def _gd_kernel(sc: BatchScene, T0, opts: SolveOptions):
    """Fixed-step gradient descent from T0 (B, n, 2); returns (T, g, L) of the last iterate."""
    dtype = opts.precision.dtype
    sc = sc.astype(dtype)
    T = np.ascontiguousarray(np.asarray(T0, dtype=dtype).T)
    _, s, norms = clamped_segments(sc, T)
    g = gradient_from_segments(sc, unit_directions(s, norms)[1])
    g0 = member_rows(g)
    scale = np.sqrt(einsum("ib,ib->b", sc.end - sc.start, sc.end - sc.start))
    eta = 0.1 * scale / (1.0 + np.sqrt(einsum("bi,bi->b", g0, g0)))
    for _ in range(opts.iterations):
        T = T - eta * g
        _, s, norms = clamped_segments(sc, T)
        g = gradient_from_segments(sc, unit_directions(s, norms)[1])
    return np.ascontiguousarray(T.T), np.ascontiguousarray(g.T), segment_sum(norms)


def gradient_descent(
    spec: PathSpec, T0, opts: SolveOptions = SolveOptions()
) -> SolveReport:
    """Fixed-step gradient descent baseline (step from the initial gradient)."""
    T0 = check_params(spec, T0)
    T, g, L = _gd_kernel(spec.batch, T0[None], opts)
    return _reports_from_state(T, g, L, None, opts.iterations)[0]


# ---------------------------------------------------------------------------
# Damped Newton (Carluccio-Albani stand-in)

NEWTON_DAMPING = 1e-10
NEWTON_MAX_HALVINGS = 20


def _newton_kernel(sc: BatchScene, T0, opts: SolveOptions):
    """Masked, damped Newton over opts.iterations steps from T0 (B, n, 2); returns (T, g, L).

    Each iterate is embedded once: the clamped segment norms give g and H,
    and the raw norms its length L, which step halving compares against and
    the final pass returns.
    """
    dtype = opts.precision.dtype
    sc = sc.astype(dtype)
    T = np.ascontiguousarray(np.asarray(T0, dtype=dtype).T)
    active = member_rows(sc.active)
    dim = active.sum(axis=1).astype(dtype)
    for it in range(opts.iterations + 1):
        s, norms = segment_norms(embed_batch(sc, T))
        L = segment_sum(norms)
        clamped = np.maximum(norms, sc.eps)
        u, q = unit_directions(s, clamped)
        g = gradient_from_segments(sc, q)
        if it == opts.iterations:
            break
        H = hessian_from_segments(sc, u, clamped)
        # Inert rows and columns of H are zero, so this is the active block's trace.
        lam = NEWTON_DAMPING * einsum("bii->b", H) / np.maximum(dim, 1.0)
        try:
            step = -solve_active(H, member_rows(g), active, lam)
        except np.linalg.LinAlgError as exc:
            raise SingularHessian("regularized Newton solve failed") from exc
        step = step.reshape(T.shape[::-1]).T
        scale = np.ones(T.shape[2], dtype=dtype)
        cand = T + step
        Lc = path_length_batch(sc, cand)
        for _ in range(NEWTON_MAX_HALVINGS):
            worse = Lc > L
            if not np.any(worse):
                break
            scale = np.where(worse, scale * 0.5, scale)
            cand = T + scale * step
            Lc = path_length_batch(sc, cand)
        T = np.where(Lc <= L, cand, T)
    return np.ascontiguousarray(T.T), np.ascontiguousarray(g.T), L


def newton_solve(spec: PathSpec, T0, opts: SolveOptions = SolveOptions()) -> SolveReport:
    """Damped Newton on active coordinates with step halving."""
    T0 = check_params(spec, T0)
    T, g, L = _newton_kernel(spec.batch, T0[None], opts)
    return _reports_from_state(T, g, L, None, opts.iterations)[0]


# ---------------------------------------------------------------------------
# High-precision reference


def _reference_kernel(sc: BatchScene, T0):
    """Ground-truth solve of a batch from T0 (B, n, 2); returns (T, converged).

    The batch kernel's schedule, as `batch_solve` runs it, with longer
    budgets: each member stops at the noise floor or at a bitwise fixed
    point. T is (B, n, 2) float64 and `converged` a boolean mask of paths
    whose gradient norm is below REFERENCE_GRAD_TOL (1 + L), from the
    kernel's g and L.
    """
    opts = SolveOptions(
        iterations=REFERENCE_BFGS_ITERS,
        fixed_point_iters=REFERENCE_FP_ITERS,
        precision=Precision.DOUBLE,
    )
    T, g, L, _, _ = _bfgs_kernel(sc, T0, opts)
    g = g.reshape(len(T), -1)
    return T, np.sqrt(einsum("bi,bi->b", g, g)) < REFERENCE_GRAD_TOL * (1.0 + L)


def reference_solve_batch(specs: Sequence[PathSpec], T0s=None):
    """`_reference_kernel` on a list of specs, from `init_params_batch` unless T0s is given."""
    sc = BatchScene.from_specs(specs)
    T0 = init_params_batch(sc) if T0s is None else stack_params(specs, T0s)
    return _reference_kernel(sc, T0)


def reference_solve(spec: PathSpec, T0=None) -> np.ndarray:
    """High-precision parameters for one path; raises NoConvergence on failure."""
    T0 = init_params_batch(spec.batch) if T0 is None else check_params(spec, T0)[None]
    T, converged = _reference_kernel(spec.batch, T0)
    if not converged[0]:
        raise NoConvergence("reference solver missed its gradient tolerance")
    return T[0]
