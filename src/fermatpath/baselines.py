"""Comparison solvers: exact image method, gradient descent, damped Newton,
and the high-precision reference used as ground truth in benchmarks.

Newton runs on active coordinates only: the inert edge coordinates are
masked out by pinning their rows and columns of the Hessian to the
identity (`batching.solve_active`, shared with implicit differentiation),
which leaves them exactly untouched.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .batching import (
    BatchScene,
    embed_batch,
    gradient_batch,
    hessian_batch,
    path_length_batch,
    segment_norms,
    solve_active,
    stack_params,
    stationary_from_segments,
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
    init_params,
)

PARALLEL_TOL = 1e-12
REFERENCE_GRAD_TOL = 1e-12
REFERENCE_BFGS_ITERS = 1000
REFERENCE_FP_ITERS = 64
REFERENCE_POLISH_ITERS = 64


# ---------------------------------------------------------------------------
# Image method


def _plane_normals(sc: BatchScene) -> np.ndarray:
    nrm = np.cross(sc.basis[..., 0], sc.basis[..., 1])
    return nrm / np.linalg.norm(nrm, axis=-1, keepdims=True)


def image_points_batch(sc: BatchScene) -> np.ndarray:
    """(B, n, 3) exact reflection points for all-plane scenes."""
    B, n = sc.size, sc.n
    normals = _plane_normals(sc)
    images = np.empty((B, n, 3))
    m = sc.start.copy()
    for i in range(n):
        nh = normals[:, i]
        d = np.einsum("bi,bi->b", m - sc.anchor[:, i], nh)
        m = m - 2.0 * d[:, None] * nh
        images[:, i] = m
    pts = np.empty((B, n, 3))
    y = sc.end.copy()
    for i in range(n - 1, -1, -1):
        nh = normals[:, i]
        mi = images[:, i]
        dirv = y - mi
        denom = np.einsum("bi,bi->b", dirv, nh)
        if np.any(np.abs(denom) <= PARALLEL_TOL * np.linalg.norm(dirv, axis=1)):
            raise NoIntersection("mirrored sight line parallel to its plane")
        t = np.einsum("bi,bi->b", sc.anchor[:, i] - mi, nh) / denom
        y = mi + t[:, None] * dirv
        pts[:, i] = y
    return pts


def image_method(spec: PathSpec) -> np.ndarray:
    """Exact reflection points (n, 3) via successive mirroring."""
    if any(s.kind is not SurfaceKind.PLANE for s in spec.surfaces):
        raise NotAllPlanes("image method handles planar reflections only")
    if spec.n == 0:
        return np.zeros((0, 3))
    return image_points_batch(BatchScene.of(spec))[0]


# ---------------------------------------------------------------------------
# Gradient descent


def _gd_kernel(sc: BatchScene, T0, opts: SolveOptions):
    dtype = opts.precision.dtype
    sc = sc.astype(dtype)
    T = np.ascontiguousarray(T0, dtype=dtype)
    if sc.n == 0:
        return T, np.zeros_like(T)
    g0 = gradient_batch(sc, T)
    g0_norm = np.sqrt(np.einsum("bnj,bnj->b", g0, g0))
    scale = np.sqrt(np.einsum("bi,bi->b", sc.end - sc.start, sc.end - sc.start))
    eta = 0.1 * scale / (1.0 + g0_norm)
    g = g0
    for _ in range(opts.iterations):
        T = T - eta[:, None, None] * g
        g = gradient_batch(sc, T)
    return T, g


def gradient_descent(
    spec: PathSpec, T0, opts: SolveOptions = SolveOptions()
) -> SolveReport:
    """Fixed-step gradient descent baseline (step from the initial gradient)."""
    T0 = check_params(spec, T0)
    sc = BatchScene.of(spec)
    T, g = _gd_kernel(sc, T0[None], opts)
    return _reports_from_state(sc, T, g, None, opts.iterations)[0]


# ---------------------------------------------------------------------------
# Damped Newton (Carluccio-Albani stand-in)

NEWTON_DAMPING = 1e-10
NEWTON_MAX_HALVINGS = 20


def _newton_kernel(sc: BatchScene, T0, opts: SolveOptions, frozen=None):
    """Masked, damped Newton over opts.iterations steps; `frozen` (B,) paths take zero steps."""
    dtype = opts.precision.dtype
    sc = sc.astype(dtype)
    T = np.ascontiguousarray(T0, dtype=dtype)
    B, n = T.shape[0], T.shape[1]
    m = 2 * n
    if n == 0:
        return T, np.zeros_like(T)
    active = sc.active.reshape(B, m)
    dim = active.sum(axis=1).astype(dtype)
    g = gradient_batch(sc, T)
    for _ in range(opts.iterations):
        H = hessian_batch(sc, T)
        # Inert rows and columns of H are zero, so this is the active block's trace.
        lam = NEWTON_DAMPING * np.einsum("bii->b", H) / np.maximum(dim, 1.0)
        try:
            step = -solve_active(H, g.reshape(B, m), active, lam)
        except np.linalg.LinAlgError as exc:
            raise SingularHessian("regularized Newton solve failed") from exc
        if frozen is not None:
            step = np.where(frozen[:, None], 0.0, step)
        L0 = path_length_batch(sc, T)
        scale = np.ones(B, dtype=dtype)
        cand = T + step.reshape(B, n, 2)
        Lc = path_length_batch(sc, cand)
        for _ in range(NEWTON_MAX_HALVINGS):
            worse = Lc > L0
            if not np.any(worse):
                break
            scale = np.where(worse, scale * 0.5, scale)
            cand = T + scale[:, None, None] * step.reshape(B, n, 2)
            Lc = path_length_batch(sc, cand)
        T = np.where((Lc <= L0)[:, None, None], cand, T)
        g = gradient_batch(sc, T)
    return T, g


def newton_solve(spec: PathSpec, T0, opts: SolveOptions = SolveOptions()) -> SolveReport:
    """Damped Newton on active coordinates with step halving."""
    T0 = check_params(spec, T0)
    sc = BatchScene.of(spec)
    T, g = _newton_kernel(sc, T0[None], opts)
    return _reports_from_state(sc, T, g, None, opts.iterations)[0]


# ---------------------------------------------------------------------------
# High-precision reference


def reference_solve_batch(specs: Sequence[PathSpec], T0s=None):
    """Ground-truth solve: long double-precision BFGS run plus Newton polish.

    Returns (T, converged) with T (B, n, 2) float64 and a boolean mask of
    paths that reached the gradient-norm tolerance.
    """
    sc = BatchScene.from_specs(specs)
    if T0s is None:
        T0s = [init_params(s) for s in specs]
    T0 = stack_params(specs, T0s)
    if sc.n == 0:
        return T0, np.ones(sc.size, dtype=bool)
    opts = SolveOptions(
        iterations=REFERENCE_BFGS_ITERS,
        fixed_point_iters=REFERENCE_FP_ITERS,
        precision=Precision.DOUBLE,
    )
    T, _, _ = _bfgs_kernel(sc, T0, opts)
    polish_opts = SolveOptions(iterations=1, precision=Precision.DOUBLE)
    converged = _converged_mask(sc, T)
    for _ in range(REFERENCE_POLISH_ITERS):
        if np.all(converged):
            break
        T, _ = _newton_kernel(sc, T, polish_opts, frozen=converged)
        converged = _converged_mask(sc, T)
    return T, converged


def _converged_mask(sc: BatchScene, T) -> np.ndarray:
    s, norms = segment_norms(embed_batch(sc, T))
    return stationary_from_segments(sc, s, norms, REFERENCE_GRAD_TOL)


def reference_solve(spec: PathSpec, T0=None) -> np.ndarray:
    """High-precision parameters for one path; raises NoConvergence on failure."""
    T0s = None if T0 is None else [check_params(spec, T0)]
    T, converged = reference_solve_batch([spec], T0s)
    if not converged[0]:
        raise NoConvergence("reference solver missed its gradient tolerance")
    return T[0]
