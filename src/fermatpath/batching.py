"""Stacked-array view of many path specs sharing the same interaction count.

The batch layout mirrors the single-path types: basis (B, n, 3, 2),
anchor (B, n, 3), start/end (B, 3). This module holds the one
implementation of the path length, its gradient and its Hessian. The
scalar functions in `objective` call them on a batch of one that views a
spec's arrays (`BatchScene.of`). The kernels use einsum contractions whose
reduction order does not depend on the batch size, so each member of a
batch equals its own batch of one bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateSegment, NonUniformBatch, ShapeMismatch
from .geometry import PathSpec


@dataclass(frozen=True)
class BatchScene:
    basis: np.ndarray  # (B, n, 3, 2)
    anchor: np.ndarray  # (B, n, 3)
    start: np.ndarray  # (B, 3)
    end: np.ndarray  # (B, 3)

    @classmethod
    def from_specs(cls, specs: Sequence[PathSpec]) -> "BatchScene":
        if not specs:
            raise NonUniformBatch("empty batch")
        n = specs[0].n
        if any(s.n != n for s in specs):
            raise NonUniformBatch("batch members have differing interaction counts")
        return cls(
            basis=np.stack([s.basis_tensor for s in specs]),
            anchor=np.stack([s.anchor_tensor for s in specs]),
            start=np.stack([s.start for s in specs]),
            end=np.stack([s.end for s in specs]),
        )

    @classmethod
    def of(cls, spec: PathSpec) -> "BatchScene":
        """A batch of one that views the spec's read-only arrays, without copying."""
        return cls(
            spec.basis_tensor[None], spec.anchor_tensor[None], spec.start[None], spec.end[None]
        )

    @property
    def size(self) -> int:
        return self.start.shape[0]

    @property
    def n(self) -> int:
        return self.basis.shape[1]

    @property
    def dtype(self):
        return self.basis.dtype

    def astype(self, dtype) -> "BatchScene":
        if self.dtype == dtype:
            return self
        return BatchScene(
            self.basis.astype(dtype),
            self.anchor.astype(dtype),
            self.start.astype(dtype),
            self.end.astype(dtype),
        )

    def take(self, idx) -> "BatchScene":
        """The members selected by an index array or boolean mask."""
        return BatchScene(self.basis[idx], self.anchor[idx], self.start[idx], self.end[idx])

    def active_mask(self) -> np.ndarray:
        """(B, n, 2) mask of coordinates whose basis column is nonzero."""
        return np.linalg.norm(self.basis, axis=2) > 0.0

    def seg_epsilon(self) -> np.ndarray:
        """(B,) per-path segment-norm floor."""
        scale = np.linalg.norm(
            self.end.astype(np.float64) - self.start.astype(np.float64), axis=1
        )
        return (1e-12 * (1.0 + scale)).astype(self.dtype)


def stack_params(specs: Sequence[PathSpec], T0s) -> np.ndarray:
    """Stack per-path n x 2 parameter arrays into a (B, n, 2) array."""
    T = np.stack([np.asarray(t, dtype=float) for t in T0s])
    if T.shape != (len(specs), specs[0].n, 2):
        raise ShapeMismatch(f"bad stacked parameter shape {T.shape}")
    return T


def embed_batch(sc: BatchScene, T: np.ndarray) -> np.ndarray:
    """(B, n+2, 3) path points for a (B, n, 2) parameter batch."""
    mid = np.einsum("bnij,bnj->bni", sc.basis, T) + sc.anchor
    return np.concatenate([sc.start[:, None], mid, sc.end[:, None]], axis=1)


def segment_norms(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Segments (B, n+1, 3) and their norms (B, n+1) from path points."""
    s = x[:, 1:] - x[:, :-1]
    return s, np.sqrt(np.einsum("bki,bki->bk", s, s))


def checked_segments(sc: BatchScene, T: np.ndarray):
    """Points, segments and norms; raises DegenerateSegment below the floor."""
    x = embed_batch(sc, T)
    s, norms = segment_norms(x)
    if np.any(norms <= sc.seg_epsilon()[:, None]):
        raise DegenerateSegment("coincident consecutive path points in batch")
    return x, s, norms


def clamped_segments(sc: BatchScene, T: np.ndarray):
    """Points, segments and norms, with the norms clamped up to the floor.

    Clamping keeps batch control flow uniform when a path degenerates
    mid-iteration; such paths surface as unconverged, never as exceptions.
    """
    x = embed_batch(sc, T)
    s, norms = segment_norms(x)
    return x, s, np.maximum(norms, sc.seg_epsilon()[:, None])


def path_length_batch(sc: BatchScene, T: np.ndarray) -> np.ndarray:
    """(B,) total Euclidean length of each embedded path."""
    x = embed_batch(sc, T)
    _, norms = segment_norms(x)
    return np.einsum("bk->b", norms)


def gradient_from_segments(sc: BatchScene, s: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """(B, n, 2) path-length gradient A_i^T (u_{i-1} - u_i) from the segments."""
    u = s / norms[..., None]
    q = u[:, :-1] - u[:, 1:]  # u_{i-1} - u_i at interior point i
    return np.einsum("bnij,bni->bnj", sc.basis, q)


def hessian_from_segments(sc: BatchScene, s: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """(B, 2n, 2n) exact Hessian from the segments: block-tridiagonal, symmetric PSD.

    Segment k runs into interior point k; with M_k = (I - u_k u_k^T) / |s_k|,
    diagonal block i is A_i^T (M_i + M_{i+1}) A_i and the block right of it
    is -A_i^T M_{i+1} A_{i+1}.
    """
    B, n = s.shape[0], s.shape[1] - 1
    u = s / norms[..., None]
    eye = np.eye(3, dtype=s.dtype)
    M = (eye[None, None] - np.einsum("bki,bkj->bkij", u, u)) / norms[..., None, None]
    A = sc.basis
    H = np.zeros((B, 2 * n, 2 * n), dtype=s.dtype)
    for i in range(n):
        di = np.einsum(
            "bri,brs,bsj->bij", A[:, i], M[:, i] + M[:, i + 1], A[:, i]
        )
        H[:, 2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = di
        if i + 1 < n:
            off = -np.einsum("bri,brs,bsj->bij", A[:, i], M[:, i + 1], A[:, i + 1])
            H[:, 2 * i : 2 * i + 2, 2 * i + 2 : 2 * i + 4] = off
            H[:, 2 * i + 2 : 2 * i + 4, 2 * i : 2 * i + 2] = np.swapaxes(off, 1, 2)
    return H


def gradient_batch(sc: BatchScene, T: np.ndarray) -> np.ndarray:
    """(B, n, 2) path-length gradient with clamped segment norms."""
    _, s, norms = clamped_segments(sc, T)
    return gradient_from_segments(sc, s, norms)


def hessian_batch(sc: BatchScene, T: np.ndarray) -> np.ndarray:
    """(B, 2n, 2n) path-length Hessian with clamped segment norms."""
    _, s, norms = clamped_segments(sc, T)
    return hessian_from_segments(sc, s, norms)
