"""Path-length objective, gradient, Hessian, and scene-parameter derivatives.

All derivatives are closed-form. With segments s_i = x_{i+1} - x_i and unit
directions u_i = s_i / |s_i|, the parametric gradient row is
A_i^T (u_{i-1} - u_i) and the Hessian is block-tridiagonal with
P_i = I - u_i u_i^T appearing in every block. The embedding, the length
and each derivative have one implementation, in `batching`; each scalar
call here runs it on a batch of one that views the spec's arrays, so it
equals the batched kernel bitwise. Unlike the batched kernels, which
clamp, the scalar derivatives raise DegenerateSegment when consecutive
path points (nearly) coincide. The forms are validated against finite
differences in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .batching import (
    BatchScene,
    checked_segments,
    embed_batch,
    gradient_from_segments,
    hessian_from_segments,
    length_param_gradient_from_segments,
    param_vjp_from_segments,
    path_length_batch,
)
from .geometry import PathSpec, check_params


def _checked(spec: PathSpec, T):
    """(batch of one, T, segments, norms) of one path; refuses degenerate paths."""
    T = check_params(spec, T)[None]
    sc = BatchScene.of(spec)
    _, s, norms = checked_segments(sc, T)
    return sc, T, s, norms


def embed(spec: PathSpec, T) -> np.ndarray:
    """The (n+2, 3) path points [start, A_i t_i + b_i ..., end].

    Affine in T; inert edge coordinates have no effect because their basis
    column is exactly zero.
    """
    T = check_params(spec, T)
    return embed_batch(BatchScene.of(spec), T[None])[0]


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
    def of(cls, parts) -> "SceneGradient":
        """The member of a batch of one, from (basis, anchor, start, end) batch arrays."""
        return cls(*(a[0] for a in parts))


def length_param_gradient(spec: PathSpec, T) -> SceneGradient:
    """Partial derivative of path_length w.r.t. scene parameters at fixed T."""
    _, T, s, norms = _checked(spec, T)
    return SceneGradient.of(length_param_gradient_from_segments(T, s, norms))


def param_vjp(spec: PathSpec, T, u) -> SceneGradient:
    """u^T d(grad L)/d(theta) for a cotangent `u` (n x 2), theta = (bases, anchors, start, end)."""
    sc, T, s, norms = _checked(spec, T)
    u = check_params(spec, u)  # same shape contract as params
    return SceneGradient.of(param_vjp_from_segments(sc, T, s, norms, u[None]))
