"""Path-length objective, gradient, Hessian, and scene-parameter derivatives.

All derivatives are closed-form. With segments s_i = x_{i+1} - x_i and unit
directions u_i = s_i / |s_i|, the parametric gradient row is
A_i^T (u_{i-1} - u_i) and the Hessian is block-tridiagonal with
P_i = I - u_i u_i^T appearing in every block. The path length, gradient and
Hessian have one implementation, in `batching`; each scalar call here runs
it on a batch of one that views the spec's arrays, so it equals the batched
kernel bitwise. Unlike the batched kernels, which clamp, the scalar calls
raise DegenerateSegment when consecutive path points (nearly) coincide. The
forms are validated against finite differences in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .batching import (
    BatchScene,
    checked_segments,
    gradient_from_segments,
    hessian_from_segments,
    path_length_batch,
)
from .geometry import PathSpec, check_params


def _checked(spec: PathSpec, T):
    """(batch of one, T, segments (n+1, 3), norms (n+1,)); refuses degenerate paths."""
    T = check_params(spec, T)
    sc = BatchScene.of(spec)
    _, s, norms = checked_segments(sc, T[None])
    return sc, T, s, norms


def path_length(spec: PathSpec, T) -> float:
    """Total Euclidean length of the embedded path."""
    T = check_params(spec, T)
    return float(path_length_batch(BatchScene.of(spec), T[None])[0])


def gradient(spec: PathSpec, T) -> np.ndarray:
    """Gradient of path_length w.r.t. the n x 2 parameters."""
    sc, _, s, norms = _checked(spec, T)
    return gradient_from_segments(sc, s, norms)[0]


def hessian(spec: PathSpec, T) -> np.ndarray:
    """Exact 2n x 2n Hessian of path_length (block-tridiagonal, symmetric PSD)."""
    sc, _, s, norms = _checked(spec, T)
    return hessian_from_segments(sc, s, norms)[0]


@dataclass(frozen=True)
class SceneGradient:
    """Derivatives of a scalar with respect to every scene parameter."""

    basis: np.ndarray  # (n, 3, 2)
    anchor: np.ndarray  # (n, 3)
    start: np.ndarray  # (3,)
    end: np.ndarray  # (3,)

    def flat(self) -> np.ndarray:
        return np.concatenate(
            [self.basis.ravel(), self.anchor.ravel(), self.start, self.end]
        )

    def norm(self) -> float:
        return float(np.linalg.norm(self.flat()))

    @classmethod
    def zeros(cls, n: int) -> "SceneGradient":
        return cls(np.zeros((n, 3, 2)), np.zeros((n, 3)), np.zeros(3), np.zeros(3))


def length_param_gradient(spec: PathSpec, T) -> SceneGradient:
    """Partial derivative of path_length w.r.t. scene parameters at fixed T."""
    _, T, s, norms = _checked(spec, T)
    u = s[0] / norms[0][:, None]
    q = u[:-1] - u[1:]  # dL/dx_i at interior points
    basis_grad = np.einsum("ni,nj->nij", q, T)
    return SceneGradient(
        basis=basis_grad, anchor=q.copy(), start=-u[0], end=u[-1].copy()
    )


def param_vjp(spec: PathSpec, T, u) -> SceneGradient:
    """Contract a cotangent `u` (n x 2) with the mixed derivative of the gradient.

    Returns u^T d(grad L)/d(theta) for theta = (bases, anchors, start, end).
    Derivation: u^T grad L equals the directional derivative of L along u,
    phi = sum_i uhat_i . (dx_{i+1} - dx_i) with dx_i = A_i u_i; differentiate
    phi w.r.t. theta.
    """
    _, T, s, norms = _checked(spec, T)
    u = check_params(spec, u)  # same shape contract as params
    s, norms = s[0], norms[0]
    uhat = s / norms[:, None]
    n = spec.n
    A = spec.basis_tensor

    # delta x_i = A_i u_i at interior points, zero at endpoints
    dxi = np.zeros((n + 2, 3))
    if n:
        dxi[1:-1] = np.einsum("nij,nj->ni", A, u)
    ds = np.diff(dxi, axis=0)  # (n+1, 3)

    # w_i = P_i ds_i / |s_i| per segment
    proj = ds - uhat * np.einsum("ki,ki->k", uhat, ds)[:, None]
    w = proj / norms[:, None]

    # z_j = w_{j-1} - w_j collects point perturbations; q_j the direction term
    z_interior = w[:-1] - w[1:]  # (n, 3)
    q = uhat[:-1] - uhat[1:]  # (n, 3)

    basis_grad = np.einsum("ni,nj->nij", z_interior, T) + np.einsum(
        "ni,nj->nij", q, u
    )
    return SceneGradient(
        basis=basis_grad, anchor=z_interior, start=-w[0], end=w[-1].copy()
    )
