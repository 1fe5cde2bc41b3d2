"""Path length, its derivatives, and the active-coordinate solve over a `BatchScene`.

A `BatchScene` (defined in `geometry`, importable from here) stacks B paths
of n interactions: basis (B, n, 3, 2), anchor (B, n, 3), start/end (B, 3).
This module holds the one implementation of the path length, each of its
derivatives (taken from the segments, so a caller embeds a path once), the
segment change along a direction (`direction_segments`, shared by the step
size and the scene VJP), the stationarity test and the solve on the active
coordinates. `objective` and `implicit_diff` call them on a spec's batch of
one (`spec.batch`). The kernels use einsum contractions whose reduction
order does not depend on the batch size, so each member of a batch equals
its own batch of one bitwise. None loops over the interactions in Python:
every interaction has the same n x 2 layout, so each derivative is one
vectorised computation over (B, n).

`einsum` is numpy's C kernel `c_einsum`, the function `np.einsum` hands
its arguments to unchanged when `optimize` is off, so results are the same
bit for bit. Calling it directly skips numpy's array-function dispatch,
about half the cost of a call at B=1. Every module of the package takes
`einsum` from here.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from numpy._core.multiarray import c_einsum as einsum

from .errors import DegenerateSegment, ShapeMismatch
from .geometry import BatchScene, PathSpec


def stack_params(specs: Sequence[PathSpec], T0s) -> np.ndarray:
    """Stack per-path n x 2 parameter arrays into a (B, n, 2) array of finite values."""
    try:
        T = np.array(T0s, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ShapeMismatch(f"params do not stack into a float array: {exc}") from exc
    if T.shape != (len(specs), specs[0].n, 2):
        raise ShapeMismatch(f"bad stacked parameter shape {T.shape}")
    finite = np.isfinite(T).reshape(len(T), -1).all(axis=1)
    if not finite.all():
        raise ShapeMismatch(f"params of batch member {np.argmin(finite)} have non-finite entries")
    return T


def embed_batch(sc: BatchScene, T: np.ndarray) -> np.ndarray:
    """(B, n+2, 3) path points for a (B, n, 2) parameter batch."""
    mid = einsum("bnij,bnj->bni", sc.basis, T) + sc.anchor
    return np.concatenate([sc.start[:, None], mid, sc.end[:, None]], axis=1)


def direction_segments(sc: BatchScene, P: np.ndarray) -> np.ndarray:
    """(B, n+1, 3) segment change along P (B, n, 2): point i moves by A_i p_i, the ends stay."""
    w = einsum("bnij,bnj->bni", sc.basis, P)
    ends = np.zeros((P.shape[0], 1, 3), dtype=w.dtype)
    x = np.concatenate([ends, w, ends], axis=1)
    return x[:, 1:] - x[:, :-1]


def segment_norms(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Segments (B, n+1, 3) and their norms (B, n+1) from path points."""
    s = x[:, 1:] - x[:, :-1]
    return s, np.sqrt(einsum("bki,bki->bk", s, s))


def checked_segments(sc: BatchScene, T: np.ndarray):
    """Points, segments and norms; raises DegenerateSegment below the floor."""
    x = embed_batch(sc, T)
    s, norms = segment_norms(x)
    if np.any(norms <= sc.eps[:, None]):
        raise DegenerateSegment("coincident consecutive path points in batch")
    return x, s, norms


def clamped_segments(sc: BatchScene, T: np.ndarray):
    """Points, segments and norms, with the norms clamped up to the floor.

    Clamping keeps batch control flow uniform when a path degenerates
    mid-iteration; such paths surface as unconverged, never as exceptions.
    """
    x = embed_batch(sc, T)
    s, norms = segment_norms(x)
    return x, s, np.maximum(norms, sc.eps[:, None])


def path_length_batch(sc: BatchScene, T: np.ndarray) -> np.ndarray:
    """(B,) total Euclidean length of each embedded path."""
    x = embed_batch(sc, T)
    _, norms = segment_norms(x)
    return einsum("bk->b", norms)


def gradient_from_segments(sc: BatchScene, s: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """(B, n, 2) path-length gradient A_i^T (u_{i-1} - u_i) from the segments."""
    u = s / norms[..., None]
    q = u[:, :-1] - u[:, 1:]  # u_{i-1} - u_i at interior point i
    return einsum("bnij,bni->bnj", sc.basis, q)


def hessian_from_segments(sc: BatchScene, s: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """(B, 2n, 2n) exact Hessian from the segments: block-tridiagonal, symmetric PSD.

    Segment k runs into interior point k; with M_k = (I - u_k u_k^T) / |s_k|,
    diagonal block i is A_i^T (M_i + M_{i+1}) A_i and the block right of it
    is -A_i^T M_{i+1} A_{i+1}. All blocks of one kind come from one einsum
    and are written through a block-diagonal view of H as (B, n, 2, n, 2).
    """
    B, n = s.shape[0], s.shape[1] - 1
    u = s / norms[..., None]
    eye = np.eye(3, dtype=s.dtype)
    M = (eye[None, None] - einsum("bki,bkj->bkij", u, u)) / norms[..., None, None]
    A = sc.basis
    H = np.zeros((B, 2 * n, 2 * n), dtype=s.dtype)
    H5 = H.reshape(B, n, 2, n, 2)
    blocks = "bnri,bnrs,bnsj->bnij"
    einsum("bninj->bnij", H5)[...] = einsum(blocks, A, M[:, :-1] + M[:, 1:], A)
    off = -einsum(blocks, A[:, :-1], M[:, 1:-1], A[:, 1:])
    einsum("bninj->bnij", H5[:, :-1, :, 1:])[...] = off
    einsum("bninj->bnij", H5[:, 1:, :, :-1])[...] = np.swapaxes(off, 2, 3)
    return H


def stationary_from_segments(sc: BatchScene, s, norms, tol: float) -> np.ndarray:
    """(B,) test |g| < tol (1 + L); g takes the norms clamped, as `gradient_batch` does."""
    g = gradient_from_segments(sc, s, np.maximum(norms, sc.eps[:, None]))
    gnorm = np.sqrt(einsum("bnj,bnj->b", g, g))
    return gnorm < tol * (1.0 + einsum("bk->b", norms))


def length_param_gradient_from_segments(T, s, norms):
    """(basis, anchor, start, end) partial derivatives of the length at fixed T."""
    u = s / norms[..., None]
    q = u[:, :-1] - u[:, 1:]  # dL/dx_i at interior points
    return einsum("bni,bnj->bnij", q, T), q, -u[:, 0], u[:, -1]


def param_vjp_from_segments(sc: BatchScene, T, s, norms, u):
    """(basis, anchor, start, end) of u^T d(grad L)/d(theta) for a (B, n, 2) cotangent u.

    u^T grad L is the derivative of L along u, phi = sum_k uhat_k . ds_k with
    ds_k = dx_{k+1} - dx_k and dx_i = A_i u_i; this is phi differentiated
    w.r.t. the scene.
    """
    uhat = s / norms[..., None]
    ds = direction_segments(sc, u)
    # w_k = P_k ds_k / |s_k| per segment, with P_k = I - uhat_k uhat_k^T
    w = (ds - uhat * einsum("bki,bki->bk", uhat, ds)[..., None]) / norms[..., None]
    # z_j = w_{j-1} - w_j collects point perturbations; q_j the direction term
    z = w[:, :-1] - w[:, 1:]
    q = uhat[:, :-1] - uhat[:, 1:]
    basis = einsum("bni,bnj->bnij", z, T) + einsum("bni,bnj->bnij", q, u)
    return basis, z, -w[:, 0], w[:, -1]


def solve_active(H: np.ndarray, rhs: np.ndarray, active: np.ndarray, shift: np.ndarray):
    """Solve H x = rhs (B, m) on each member's active coordinates.

    `shift` (B,) is added to the active diagonal. Inert rows and columns are
    pinned to the identity and their right-hand side to zero, so inert
    entries of x are exactly zero. A singular system raises LinAlgError.
    """
    H = np.where(active[:, :, None] & active[:, None, :], H, 0.0)
    diag = np.arange(H.shape[1])
    H[:, diag, diag] = np.where(active, H[:, diag, diag] + shift[:, None], 1.0)
    return np.linalg.solve(H, np.where(active, rhs, 0.0)[..., None])[..., 0]


def gradient_batch(sc: BatchScene, T: np.ndarray) -> np.ndarray:
    """(B, n, 2) path-length gradient with clamped segment norms."""
    _, s, norms = clamped_segments(sc, T)
    return gradient_from_segments(sc, s, norms)

