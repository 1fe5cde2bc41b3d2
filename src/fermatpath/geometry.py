"""Planar interactors, path specifications, and the parametric embedding.

Every interaction surface stores a 3x2 basis matrix and an anchor point.
Straight edges keep an exactly-zero second basis column so that every path
with n interactions has a uniform n x 2 unknown shape, regardless of the
mix of reflections and diffractions.
"""

from __future__ import annotations

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


def _as_vec3(v, name: str) -> np.ndarray:
    a = np.asarray(v, dtype=float)
    if a.shape != (3,):
        raise ShapeMismatch(f"{name} must have shape (3,), got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ShapeMismatch(f"{name} has non-finite components")
    a = a.copy()
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Surface:
    """One planar interactor: x(t) = basis @ t + anchor."""

    basis: np.ndarray  # (3, 2), read-only
    anchor: np.ndarray  # (3,), read-only
    kind: SurfaceKind

    def __post_init__(self):
        basis = np.asarray(self.basis, dtype=float)
        if basis.shape != (3, 2):
            raise ShapeMismatch(f"basis must have shape (3, 2), got {basis.shape}")
        if not np.all(np.isfinite(basis)):
            raise DegenerateBasis("basis has non-finite entries")
        anchor = _as_vec3(self.anchor, "anchor")
        u, v = basis[:, 0], basis[:, 1]
        nu, nv = np.linalg.norm(u), np.linalg.norm(v)
        if self.kind is SurfaceKind.PLANE:
            if nu == 0.0 or nv == 0.0:
                raise DegenerateBasis("plane basis column is zero")
            if np.linalg.norm(np.cross(u, v)) <= PLANE_DEGENERACY_TOL * nu * nv:
                raise DegenerateBasis("plane basis columns are (near-)parallel")
        else:
            if nu == 0.0:
                raise DegenerateBasis("edge direction is zero")
            if nv != 0.0:
                raise DegenerateBasis("edge second basis column must be exactly zero")
        basis = basis.copy()
        basis.setflags(write=False)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "anchor", anchor)

    @property
    def active(self) -> np.ndarray:
        """Boolean mask over the two parametric coordinates."""
        return np.linalg.norm(self.basis, axis=0) > 0.0


def make_plane(anchor, u, v) -> Surface:
    """Plane through `anchor` spanned by direction vectors `u` and `v`."""
    basis = np.stack([_as_vec3(u, "u"), _as_vec3(v, "v")], axis=1)
    return Surface(basis=basis, anchor=anchor, kind=SurfaceKind.PLANE)


def make_edge(anchor, direction) -> Surface:
    """Straight edge through `anchor` along `direction` (inert second coordinate)."""
    d = _as_vec3(direction, "direction")
    basis = np.stack([d, np.zeros(3)], axis=1)
    return Surface(basis=basis, anchor=anchor, kind=SurfaceKind.EDGE)


@dataclass(frozen=True)
class PathSpec:
    """Start point, end point, and an ordered candidate interaction sequence."""

    start: np.ndarray
    end: np.ndarray
    surfaces: tuple[Surface, ...]

    def __post_init__(self):
        start = _as_vec3(self.start, "start")
        end = _as_vec3(self.end, "end")
        if np.linalg.norm(end - start) <= MIN_ENDPOINT_SEPARATION:
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

    `points` is an (n, 3) array; inert coordinates come back as zero.
    """
    points = np.asarray(points, dtype=float)
    if points.shape != (spec.n, 3):
        raise ShapeMismatch(f"points must have shape ({spec.n}, 3), got {points.shape}")
    T = np.zeros((spec.n, 2))
    for i, surf in enumerate(spec.surfaces):
        act = surf.active
        A = surf.basis[:, act]
        rhs = points[i] - surf.anchor
        T[i, act] = np.linalg.lstsq(A, rhs, rcond=None)[0]
    return T
