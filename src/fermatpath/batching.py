"""Path length, its derivatives, and the active-coordinate solve over a `BatchScene`.

A `BatchScene` (defined in `geometry`, importable from here) stacks B paths
of n interactions with the batch axis last: basis (3, 2, n, B), anchor
(3, n, B), start/end (3, B). Here parameters and directions are (2, n, B),
path points (3, n+2, B), segments (3, n+1, B) and per-segment scalars
(n+1, B), all C-contiguous. So every contraction over the coordinate axes,
which lead, streams over the batch: one einsum call whose inner loop runs
over B, where the batch-first layout ran B (n+1) inner loops of length 2
or 3. Such a sum adds its terms in order, ((x0 y0 + x1 y1) + x2 y2), at
every batch size.

This module holds the one implementation of the path length, each of its
derivatives, the segment change along a direction (`direction_segments`,
shared by the step size and the scene VJP), the stationarity test and the
solve on the active coordinates. A caller embeds a path and divides by
its norms once (`unit_directions` gives u and q), and the derivatives take
those: the gradient q, the stationarity test q and the norms, the Hessian
u and the norms, the length's scene gradient T, u and q, and the scene VJP
T, u, q, the norms and the cotangent. `objective` and `implicit_diff` call
them on a spec's batch of one (`spec.batch`). Each member of a batch equals its own batch of one
bitwise. That takes one rule: a sum over a member's segments or
interactions runs on a contiguous (B, ...) array, as
`einsum("bk->b", np.ascontiguousarray(x.T))`. Summed in place, a (k, B)
array is reduced with partial sums at B=1 (a contiguous reduction) but
sequentially at B > 1, and the two round differently. None loops over the
interactions in Python: every interaction has the same n x 2 layout, so
each derivative is one vectorised computation over (n, B). Whatever leaves
the package keeps the batch-first order: (B, n, 2) parameters, (B, 2n, 2n)
Hessians and (B, 2n) right-hand sides.

`einsum` is numpy's C kernel `c_einsum`, the function `np.einsum` hands
its arguments to unchanged when `optimize` is off, so results are the same
bit for bit. Calling it directly skips numpy's array-function dispatch,
about half the cost of a call at B=1. `geometry`, below this module,
imports it for the projection; every other module of the package takes
`einsum` from here.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import DegenerateSegment, ShapeMismatch
from .geometry import BatchScene, PathSpec, einsum, float_array


def stack_params(specs: Sequence[PathSpec], T0s) -> np.ndarray:
    """Stack per-path n x 2 parameter arrays into a (B, n, 2) array of finite values."""
    T = float_array(T0s, "params").copy()
    if T.shape != (len(specs), specs[0].n, 2):
        raise ShapeMismatch(f"bad stacked parameter shape {T.shape}")
    finite = np.isfinite(T).reshape(len(T), -1).all(axis=1)
    if not finite.all():
        raise ShapeMismatch(f"params of batch member {np.argmin(finite)} have non-finite entries")
    return T


def segment_sum(x: np.ndarray) -> np.ndarray:
    """(B,) sum over the leading axis of a (k, B) array, the same algorithm at every B."""
    return einsum("bk->b", np.ascontiguousarray(x.T))


def embed_batch(sc: BatchScene, T: np.ndarray) -> np.ndarray:
    """(3, n+2, B) path points for a (2, n, B) parameter batch."""
    mid = einsum("ijnb,jnb->inb", sc.basis, T) + sc.anchor
    return np.concatenate([sc.start[:, None], mid, sc.end[:, None]], axis=1)


def direction_segments(sc: BatchScene, P: np.ndarray, out=None) -> np.ndarray:
    """(3, n+1, B) segment change along P (2, n, B): point i moves by A_i p_i, the ends stay.

    Written into `out` if given (the step size's stacked operand), else a fresh array.
    """
    n, B = P.shape[1], P.shape[2]
    x = np.zeros((3, n + 2, B), dtype=np.result_type(sc.basis, P))  # the moves, ends fixed
    einsum("ijnb,jnb->inb", sc.basis, P, out=x[:, 1:-1])
    return np.subtract(x[:, 1:], x[:, :-1], out=out)


def segment_norms(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Segments (3, n+1, B) and their norms (n+1, B) from path points."""
    s = x[:, 1:] - x[:, :-1]
    return s, np.sqrt(einsum("ikb,ikb->kb", s, s))


def checked_segments(sc: BatchScene, T: np.ndarray):
    """Points, segments and norms; raises DegenerateSegment below the floor."""
    x = embed_batch(sc, T)
    s, norms = segment_norms(x)
    if (norms <= sc.eps).any():
        raise DegenerateSegment("coincident consecutive path points in batch")
    return x, s, norms


def clamped_segments(sc: BatchScene, T: np.ndarray):
    """Points, segments and norms, with the norms clamped up to the floor.

    Clamping keeps batch control flow uniform when a path degenerates
    mid-iteration; such paths surface as unconverged, never as exceptions.
    """
    x = embed_batch(sc, T)
    s, norms = segment_norms(x)
    return x, s, np.maximum(norms, sc.eps)


def path_length_batch(sc: BatchScene, T: np.ndarray) -> np.ndarray:
    """(B,) total Euclidean length of each embedded path."""
    x = embed_batch(sc, T)
    _, norms = segment_norms(x)
    return segment_sum(norms)


def unit_directions(s: np.ndarray, norms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(u, q): u_k = s_k / |s_k| (3, n+1, B) and q_i = u_{i-1} - u_i = dL/dx_i (3, n, B)."""
    u = s / norms
    return u, u[:, :-1] - u[:, 1:]


def gradient_from_segments(sc: BatchScene, q: np.ndarray) -> np.ndarray:
    """(2, n, B) path-length gradient A_i^T q_i, with q from `unit_directions`."""
    return einsum("ijnb,inb->jnb", sc.basis, q)


def member_rows(g: np.ndarray) -> np.ndarray:
    """(B, n*2) C-contiguous copy of a (2, n, B) array, in the (n, 2) order of a member's row."""
    return np.ascontiguousarray(g.T).reshape(g.shape[2], -1)


def hessian_from_segments(sc: BatchScene, u: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """(B, 2n, 2n) exact Hessian from u and the norms: block-tridiagonal, symmetric PSD.

    Segment k runs into interior point k; with M_k = (I - u_k u_k^T) / |s_k|,
    diagonal block i is A_i^T (M_i + M_{i+1}) A_i and the block right of it
    is -A_i^T M_{i+1} A_{i+1}. All blocks of one kind come from one einsum
    over the batch-last arrays and are written through a block-diagonal
    view of H as (B, n, 2, n, 2).
    """
    n, B = u.shape[1] - 1, u.shape[2]
    eye = np.eye(3, dtype=u.dtype)
    M = (eye[:, :, None, None] - einsum("ikb,jkb->ijkb", u, u)) / norms
    A = sc.basis
    H = np.zeros((B, 2 * n, 2 * n), dtype=u.dtype)
    H5 = H.reshape(B, n, 2, n, 2)
    blocks = "rinb,rsnb,sjnb->bnij"
    einsum("bninj->bnij", H5)[...] = einsum(blocks, A, M[:, :, :-1] + M[:, :, 1:], A)
    off = -einsum(blocks, A[:, :, :-1], M[:, :, 1:-1], A[:, :, 1:])
    einsum("bninj->bnij", H5[:, :-1, :, 1:])[...] = off
    einsum("bninj->bnij", H5[:, 1:, :, :-1])[...] = np.swapaxes(off, 2, 3)
    return H


def stationary_from_segments(sc: BatchScene, q, norms, tol: float) -> np.ndarray:
    """(B,) test |g| < tol (1 + L); g takes q of the clamped norms, as `gradient_batch` does."""
    g = member_rows(gradient_from_segments(sc, q))
    gnorm = np.sqrt(einsum("bi,bi->b", g, g))
    return gnorm < tol * (1.0 + segment_sum(norms))


def length_param_gradient_from_segments(T, u, q):
    """(basis, anchor, start, end) partial derivatives of the length at fixed T, batch last."""
    return einsum("inb,jnb->ijnb", q, T), q, -u[:, 0], u[:, -1]


def param_vjp_from_segments(sc: BatchScene, T, u, q, norms, v):
    """(basis, anchor, start, end) of v^T d(grad L)/d(theta) for a (2, n, B) cotangent v.

    v^T grad L is the derivative of L along v, phi = sum_k u_k . ds_k with
    ds_k = dx_{k+1} - dx_k and dx_i = A_i v_i; this is phi differentiated
    w.r.t. the scene. The parts are batch last, like the scene.
    """
    ds = direction_segments(sc, v)
    # w_k = P_k ds_k / |s_k| per segment, with P_k = I - u_k u_k^T
    w = (ds - u * einsum("ikb,ikb->kb", u, ds)) / norms
    # z_j = w_{j-1} - w_j collects point perturbations; q_j the direction term
    z = w[:, :-1] - w[:, 1:]
    basis = einsum("inb,jnb->ijnb", z, T) + einsum("inb,jnb->ijnb", q, v)
    return basis, z, -w[:, 0], w[:, -1]


def solve_active(H: np.ndarray, rhs: np.ndarray, active: np.ndarray, shift: np.ndarray):
    """Solve H x = rhs (B, m) on each member's active coordinates, pinning H in place.

    `active` is (B, m), as `member_rows` orders a scene's mask. `shift` (B,)
    is added to the active diagonal. Inert rows and columns of H become the
    identity and their right-hand side zero, so inert entries of x are
    exactly zero. Pinned after a zero shift, H solves as the fresh H would
    with any later shift. A singular system raises LinAlgError.
    """
    b, i = np.nonzero(~active)
    H[b, i] = 0.0
    H[b, :, i] = 0.0
    diag = einsum("bii->bi", H)
    diag[...] = np.where(active, diag + shift[:, None], 1.0)
    return np.linalg.solve(H, np.where(active, rhs, 0.0)[..., None])[..., 0]


def gradient_batch(sc: BatchScene, T: np.ndarray) -> np.ndarray:
    """(2, n, B) path-length gradient with clamped segment norms."""
    _, s, norms = clamped_segments(sc, T)
    return gradient_from_segments(sc, unit_directions(s, norms)[1])
