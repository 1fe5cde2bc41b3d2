"""Scene-parameter gradients via the implicit function theorem.

At a stationary solution, one symmetric linear solve on the active
coordinates replaces differentiation through solver iterations. The
assembled Hessian is structurally singular whenever edges are present
(zero basis columns), so the inert coordinates are pinned to the identity,
as in Newton; Tikhonov regularization is only a fallback, on the same
pinned matrix. Each call embeds the path once, as a batch of one, and
computes every per-path quantity from it once, the unit directions u and
q among them.
"""

from __future__ import annotations

import numpy as np

from .batching import (
    member_rows,
    einsum,
    hessian_from_segments,
    length_param_gradient_from_segments,
    param_vjp_from_segments,
    solve_active,
    stationary_from_segments,
)
from .errors import NotStationary, SingularSystem
from .geometry import PathSpec, check_params

# `gradient` is unused here but stays importable: the benchmark's tracer test reads it.
from .objective import SceneGradient, _checked, gradient  # noqa: F401

STATIONARITY_TOL = 1e-5
TIKHONOV_SCALE = 1e-12
RESIDUAL_TOL = 1e-8


def _at_solution(spec: PathSpec, Tstar):
    """`objective._checked` at Tstar; raises NotStationary unless Tstar is stationary."""
    checked = _checked(spec, Tstar)
    sc, _, norms, _, q = checked
    if not stationary_from_segments(sc, q, norms, STATIONARITY_TOL)[0]:
        raise NotStationary("gradient norm exceeds the stationarity gate")
    return checked


def _adjoint(sc, u, norms, v) -> np.ndarray:
    """(2, n, B) solution x of H x = -v on the active coordinates; inert entries are zero.

    `v` is (2, n, B); the solve runs on (B, 2n) rows, as the Hessian is laid
    out. The residual is taken on H as pinned, which differs only where x is 0.
    """
    H = hessian_from_segments(sc, u, norms)
    active = member_rows(sc.active)
    rhs = np.where(active, -member_rows(v), 0.0)
    # Taken before pinning sets the inert diagonal to 1.
    shift = TIKHONOV_SCALE * einsum("bii->b", H)
    try:
        x = solve_active(H, rhs, active, np.zeros(H.shape[0]))
        r = einsum("bij,bj->bi", H, x) - rhs
        resid = np.sqrt(einsum("bi,bi->b", r, r))
        if (resid <= RESIDUAL_TOL * (1.0 + np.sqrt(einsum("bi,bi->b", rhs, rhs)))).all():
            return x.reshape(v.shape[::-1]).T
    except np.linalg.LinAlgError:
        pass
    try:
        x = solve_active(H, rhs, active, shift)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem("active Hessian singular even with Tikhonov") from exc
    if not np.all(np.isfinite(x)):
        raise SingularSystem("regularized solve produced non-finite values")
    return x.reshape(v.shape[::-1]).T


def solve_stationary_system(spec: PathSpec, Tstar, v) -> np.ndarray:
    """Solve H u = -v on active coordinates; inert entries of u are zero."""
    v = check_params(spec, v, "cotangent")
    sc, _, norms, u, _ = _at_solution(spec, Tstar)
    return _adjoint(sc, u, norms, v.T[..., None])[..., 0].T


def vjp_solution(spec: PathSpec, Tstar, v) -> SceneGradient:
    """v^T d(T*)/d(theta): adjoint solve followed by the mixed-derivative VJP."""
    v = check_params(spec, v, "cotangent")
    sc, T, norms, u, q = _at_solution(spec, Tstar)
    x = _adjoint(sc, u, norms, v.T[..., None])
    return SceneGradient.of(param_vjp_from_segments(sc, T, u, q, norms, x))


def grad_length_wrt_params(spec: PathSpec, Tstar) -> SceneGradient:
    """Total derivative of the optimal path length w.r.t. scene parameters.

    By the envelope property this equals the partial derivative at fixed T*.
    """
    _, T, _, u, q = _at_solution(spec, Tstar)
    return SceneGradient.of(length_param_gradient_from_segments(T, u, q))
