"""Planar interactors, path specifications, and the parametric embedding.

Every interaction surface stores a 3x2 basis matrix and an anchor point.
Straight edges keep an exactly-zero second basis column so that every path
with n interactions has a uniform n x 2 unknown shape, regardless of the
mix of reflections and diffractions.

The constructors run once per surface of every generated or loaded scene,
on 3-vectors, where numpy's wrappers cost more than the arithmetic. So
they take a norm as `sqrt(v.dot(v))` on a contiguous vector, which is
what `np.linalg.norm` computes internally, and a cross product with the
float operations `np.cross` performs. The dot product must stay the BLAS
`dot`: summing the three products in Python floats rounds differently
(OpenBLAS fuses multiply and add), and that would change which random
scenes `bench.gen_scenes` accepts. `params_from_points`, the inverse of
`embed`, works on the stacked arrays: one masked pseudo-inverse solve for
all surfaces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DegenerateBasis, ShapeMismatch

# Relative cross-product threshold below which a plane basis is rejected.
PLANE_DEGENERACY_TOL = 1e-9
# Minimum start/end separation.
MIN_ENDPOINT_SEPARATION = 1e-9
# Upper bound on interactions per path.
MAX_INTERACTIONS = 64


class SurfaceKind(Enum):
    PLANE = "plane"
    EDGE = "edge"


def norm3(v: np.ndarray) -> float:
    """`np.linalg.norm` of a contiguous float vector, bitwise: its BLAS dot and sqrt."""
    return math.sqrt(v.dot(v))


def row_norms(v: np.ndarray) -> np.ndarray:
    """`norm3` of each row of a C-contiguous (k, 3) array, bitwise.

    A stacked (k, 1, 3) @ (k, 3, 1) matmul makes one BLAS dot per row, the
    call `norm3` makes; `einsum` or a sum of squares would round differently.
    """
    return np.sqrt((v[:, None, :] @ v[:, :, None])[:, 0, 0])


def cross3(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """`np.cross` of two float 3-vectors, bitwise: the same products and differences."""
    (a0, a1, a2), (b0, b1, b2) = a.tolist(), b.tolist()
    return np.array([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0])


def _all_finite(a: np.ndarray) -> bool:
    return all(map(math.isfinite, a.ravel().tolist()))


def _as_vec3(v, name: str) -> np.ndarray:
    """A validated, read-only float copy of a 3-vector."""
    a = np.array(v, dtype=float)
    if a.shape != (3,):
        raise ShapeMismatch(f"{name} must have shape (3,), got {a.shape}")
    if not _all_finite(a):
        raise ShapeMismatch(f"{name} has non-finite components")
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Surface:
    """One planar interactor: x(t) = basis @ t + anchor."""

    basis: np.ndarray  # (3, 2), read-only
    anchor: np.ndarray  # (3,), read-only
    kind: SurfaceKind

    def __post_init__(self):
        basis = np.array(self.basis, dtype=float)
        if basis.shape != (3, 2):
            raise ShapeMismatch(f"basis must have shape (3, 2), got {basis.shape}")
        if not _all_finite(basis):
            raise DegenerateBasis("basis has non-finite entries")
        anchor = _as_vec3(self.anchor, "anchor")
        u, v = basis.T.copy()  # contiguous, as `np.linalg.norm` copies them
        nu, nv = norm3(u), norm3(v)
        if self.kind is SurfaceKind.PLANE:
            if nu == 0.0 or nv == 0.0:
                raise DegenerateBasis("plane basis column is zero")
            if norm3(cross3(u, v)) <= PLANE_DEGENERACY_TOL * nu * nv:
                raise DegenerateBasis("plane basis columns are (near-)parallel")
        else:
            if nu == 0.0:
                raise DegenerateBasis("edge direction is zero")
            if nv != 0.0:
                raise DegenerateBasis("edge second basis column must be exactly zero")
        basis.setflags(write=False)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "anchor", anchor)

    @property
    def active(self) -> np.ndarray:
        """Boolean mask over the two parametric coordinates."""
        return np.linalg.norm(self.basis, axis=0) > 0.0


def make_plane(anchor, u, v) -> Surface:
    """Plane through `anchor` spanned by direction vectors `u` and `v`."""
    basis = np.empty((3, 2))
    basis[:, 0] = _as_vec3(u, "u")
    basis[:, 1] = _as_vec3(v, "v")
    return Surface(basis=basis, anchor=anchor, kind=SurfaceKind.PLANE)


def make_edge(anchor, direction) -> Surface:
    """Straight edge through `anchor` along `direction` (inert second coordinate)."""
    basis = np.zeros((3, 2))
    basis[:, 0] = _as_vec3(direction, "direction")
    return Surface(basis=basis, anchor=anchor, kind=SurfaceKind.EDGE)


def segment_floor(start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """(B,) float64 segment-norm floor 1e-12 (1 + |end - start|) of (B, 3) endpoints."""
    scale = np.linalg.norm(end.astype(np.float64) - start.astype(np.float64), axis=1)
    return 1e-12 * (1.0 + scale)


@dataclass(frozen=True)
class PathSpec:
    """Start point, end point, and an ordered candidate interaction sequence."""

    start: np.ndarray
    end: np.ndarray
    surfaces: tuple[Surface, ...]

    def __post_init__(self):
        start = _as_vec3(self.start, "start")
        end = _as_vec3(self.end, "end")
        if norm3(end - start) <= MIN_ENDPOINT_SEPARATION:
            raise ShapeMismatch("start and end points (nearly) coincide")
        surfaces = tuple(self.surfaces)
        if len(surfaces) > MAX_INTERACTIONS:
            raise ShapeMismatch(f"too many interactions: {len(surfaces)}")
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "end", end)
        object.__setattr__(self, "surfaces", surfaces)
        # Stacked once; every derivative reads these read-only arrays.
        n = len(surfaces)
        basis = np.stack([s.basis for s in surfaces]) if n else np.zeros((0, 3, 2))
        anchor = np.stack([s.anchor for s in surfaces]) if n else np.zeros((0, 3))
        active = np.linalg.norm(basis, axis=1) > 0.0  # each surface's `active`
        # The segment-norm floor `BatchScene.eps` carries, as a float.
        object.__setattr__(self, "_eps", float(segment_floor(start[None], end[None])[0]))
        for name, a in (("_basis", basis), ("_anchor", anchor), ("_active", active)):
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    @property
    def n(self) -> int:
        return len(self.surfaces)

    @property
    def basis_tensor(self) -> np.ndarray:
        """(n, 3, 2) stack of basis matrices, read-only."""
        return self._basis

    @property
    def anchor_tensor(self) -> np.ndarray:
        """(n, 3) stack of anchors, read-only."""
        return self._anchor

    @property
    def active_mask(self) -> np.ndarray:
        """(n, 2) read-only boolean mask of non-inert parametric coordinates."""
        return self._active

    @property
    def scene_scale(self) -> float:
        return float(np.linalg.norm(self.end - self.start))


def check_params(spec: PathSpec, T) -> np.ndarray:
    """Validate an n x 2 parameter array against its spec and return it as float."""
    T = np.asarray(T, dtype=float)
    if T.shape != (spec.n, 2):
        raise ShapeMismatch(f"params must have shape ({spec.n}, 2), got {T.shape}")
    if not np.all(np.isfinite(T)):
        raise ShapeMismatch("params have non-finite entries")
    return T


def embed(spec: PathSpec, T) -> np.ndarray:
    """Map parameters to the n+2 path points [start, A_i t_i + b_i ..., end].

    Returns an (n+2, 3) array. Affine in T; inert edge coordinates have no
    effect because their basis column is exactly zero.
    """
    T = check_params(spec, T)
    pts = np.empty((spec.n + 2, 3))
    pts[0] = spec.start
    pts[-1] = spec.end
    if spec.n:
        pts[1:-1] = np.einsum("nij,nj->ni", spec.basis_tensor, T) + spec.anchor_tensor
    return pts


def params_from_points(spec: PathSpec, points) -> np.ndarray:
    """Least-squares parametric coordinates of given interaction points.

    `points` is an (n, 3) array; inert coordinates come back as +0.0. One
    stacked pseudo-inverse, an SVD solve like `lstsq`, projects every
    point, so nearly parallel plane bases stay accurate.
    """
    points = np.asarray(points, dtype=float)
    if points.shape != (spec.n, 3):
        raise ShapeMismatch(f"points must have shape ({spec.n}, 3), got {points.shape}")
    rhs = (points - spec.anchor_tensor)[..., None]
    return np.where(spec.active_mask, (np.linalg.pinv(spec.basis_tensor) @ rhs)[..., 0], 0.0)
