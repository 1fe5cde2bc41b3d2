"""Stacked-array view of many path specs sharing the same interaction count.

The batch layout mirrors the single-path types: basis (B, n, 3, 2),
anchor (B, n, 3), start/end (B, 3). All batched kernels operate on these
arrays with einsum contractions whose reduction order does not depend on
the batch size, so a batch of one reproduces the scalar path bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NonUniformBatch, ShapeMismatch
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


def gradient_batch(sc: BatchScene, T: np.ndarray) -> np.ndarray:
    """(B, n, 2) path-length gradient with clamped segment norms.

    Clamping keeps batch control flow uniform when a path degenerates
    mid-iteration; such paths surface as unconverged, never as exceptions.
    """
    _, s, norms = clamped_segments(sc, T)
    u = s / norms[..., None]
    q = u[:, :-1] - u[:, 1:]
    return np.einsum("bnij,bni->bnj", sc.basis, q)


def checked_segments(sc: BatchScene, T: np.ndarray):
    from .errors import DegenerateSegment

    x = embed_batch(sc, T)
    s, norms = segment_norms(x)
    if np.any(norms <= sc.seg_epsilon()[:, None]):
        raise DegenerateSegment("coincident consecutive path points in batch")
    return x, s, norms


def clamped_segments(sc: BatchScene, T: np.ndarray):
    x = embed_batch(sc, T)
    s, norms = segment_norms(x)
    return x, s, np.maximum(norms, sc.seg_epsilon()[:, None])


def path_length_batch(sc: BatchScene, T: np.ndarray) -> np.ndarray:
    x = embed_batch(sc, T)
    _, norms = segment_norms(x)
    return np.einsum("bk->b", norms)
