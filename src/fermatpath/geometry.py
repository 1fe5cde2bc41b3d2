"""Planar interactors, path specifications, and their stacked batch form.

Every interaction surface stores a 3x2 basis matrix and an anchor point.
Straight edges keep an exactly-zero second basis column so that every path
with n interactions has a uniform n x 2 unknown shape, regardless of the
mix of reflections and diffractions.

Generated scenes, and scenes read from `bench.save_scenes`' layout, are
built as arrays: `specs_from_arrays` takes the stacked endpoints, bases,
anchors and plane mask of B paths, tests every rule of `Surface` and
`PathSpec` on the whole stack at once, and gives each accepted member its
arrays as read-only views of member-major stacks. The scalar constructors
(`Surface`, `make_plane`, `make_edge`, `PathSpec`) build every other
scene, and they are the only error path: the first member the stacked
checks refuse is built again by them, so its error is theirs. They work
on 3-vectors, where numpy's wrappers cost more than the arithmetic. Both
paths take a norm as `sqrt(v.dot(v))` on a contiguous vector, which is
what `np.linalg.norm` computes internally (`norm3`, and `row_norms` per
row), and a cross product with the float operations `np.cross` performs
(`cross3`, and `cross_rows` elementwise). The dot product must stay the
BLAS `dot`: summing the three products in Python floats rounds
differently (OpenBLAS fuses multiply and add), and that would change
which random scenes `bench.gen_scenes` accepts.

A `PathSpec` carries its surfaces' arrays, stacked once, as a
`BatchScene` of one (`spec.batch`), the one array form that every
derivative and solver reads; `BatchScene.from_specs` concatenates the
members' batches. A `BatchScene` keeps the batch axis last: every array is
C-contiguous with the coordinate axes (length 3 and 2) leading and the
batch innermost, so each contraction over the coordinates streams over
the batch instead of running one short inner loop per member and segment.
A sum over the coordinates then adds its terms in order, as
((x0 y0 + x1 y1) + x2 y2), for every batch size. The inverse of the
embedding is a least-squares projection by each basis' pseudo-inverse
(`basis_pinv`), built in closed form by Gram-Schmidt: with
w = b - (a.b / a.a) a orthogonal to the first column a, row 2 is
w / (w.w) and row 1 is a / (a.a) - (a.b / a.a) row 2. An edge's row 2 is
exactly zero. Unlike the normal equations, this does not square the
condition number of a nearly parallel plane basis.
`params_from_points_batch` builds a batch's pseudo-inverses on each call
and applies them in one contraction; `params_from_points` is its batch of
one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from enum import Enum
from typing import Sequence

import numpy as np
from numpy._core.multiarray import c_einsum as einsum

from .errors import DegenerateBasis, NonUniformBatch, ShapeMismatch

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


def cross_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """`cross3` of each pair of rows of two (..., 3) arrays, bitwise: its products elementwise."""
    i, j = [1, 2, 0], [2, 0, 1]
    return a[..., i] * b[..., j] - a[..., j] * b[..., i]


def _all_finite(a: np.ndarray) -> bool:
    return all(map(math.isfinite, a.ravel().tolist()))


def _holds_bool(items) -> bool:
    """Whether nested lists and tuples hold a bool or a bool array; floats and arrays,
    the usual entries, are passed first."""
    for x in items:
        kind = type(x)
        if kind is float:
            continue
        if kind is np.ndarray:
            if x.dtype.kind == "b":
                return True
        elif kind is list or kind is tuple:
            if _holds_bool(x):
                return True
        elif isinstance(x, (bool, np.bool_)):
            return True
    return False


def float_array(a, name: str) -> np.ndarray:
    """`a` as a float array, not copied when it is one; anything a float cast would
    change or cannot make raises ShapeMismatch.

    Complex values (the cast drops the imaginary part), booleans and strings
    raise, also a boolean or boolean array that numpy would fold into the
    numbers of a list; so do a ragged list and an object that is no number.
    """
    try:
        arr = np.asarray(a)
        if arr.dtype.kind in "bcSU":
            raise ShapeMismatch(f"{name} must be real numbers, got {arr.dtype}")
        if isinstance(a, (list, tuple)) and _holds_bool(a):
            raise ShapeMismatch(f"{name} must be real numbers, got a bool")
        return arr.astype(float, copy=False)
    except (TypeError, ValueError) as exc:
        raise ShapeMismatch(f"{name} must be a float array: {exc}") from exc


def _as_vec3(v, name: str) -> np.ndarray:
    """A validated, read-only float copy of a 3-vector."""
    a = float_array(v, name).copy()
    if a.shape != (3,):
        raise ShapeMismatch(f"{name} must have shape (3,), got {a.shape}")
    if not _all_finite(a):
        raise ShapeMismatch(f"{name} has non-finite components")
    a.setflags(write=False)
    return a


@dataclass(frozen=True, slots=True)
class Surface:
    """One planar interactor: x(t) = basis @ t + anchor."""

    basis: np.ndarray  # (3, 2), read-only
    anchor: np.ndarray  # (3,), read-only
    kind: SurfaceKind

    def __post_init__(self):
        try:
            kind = SurfaceKind(self.kind)
        except ValueError:
            raise ShapeMismatch(f"kind must be 'plane' or 'edge', got {self.kind!r}")
        basis = float_array(self.basis, "basis").copy()
        if basis.shape != (3, 2):
            raise ShapeMismatch(f"basis must have shape (3, 2), got {basis.shape}")
        if not _all_finite(basis):
            raise DegenerateBasis("basis has non-finite entries")
        anchor = _as_vec3(self.anchor, "anchor")
        u, v = basis.T.copy()  # contiguous, as `np.linalg.norm` copies them
        nu, nv = norm3(u), norm3(v)
        if kind is SurfaceKind.PLANE:
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
        object.__setattr__(self, "kind", kind)

    @property
    def active(self) -> np.ndarray:
        """Boolean mask over the two parametric coordinates: an edge's second is inert."""
        return np.array([True, self.kind is SurfaceKind.PLANE])


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
    """(B,) float64 segment-norm floor 1e-12 (1 + |end - start|) of (3, B) endpoints."""
    scale = np.linalg.norm(end.astype(np.float64) - start.astype(np.float64), axis=0)
    return 1e-12 * (1.0 + scale)


@dataclass(frozen=True, slots=True)
class BatchScene:
    """Stacked arrays of B paths sharing the same interaction count n, batch axis last.

    Every array is C-contiguous with the batch axis innermost, so a
    contraction over the coordinates runs its inner loop over the batch.
    """

    basis: np.ndarray  # (3, 2, n, B)
    anchor: np.ndarray  # (3, n, B)
    start: np.ndarray  # (3, B)
    end: np.ndarray  # (3, B)
    eps: np.ndarray  # (B,) segment-norm floor 1e-12 (1 + |end - start|), in dtype
    active: np.ndarray  # (2, n, B) bool: coordinates whose basis column is nonzero

    @classmethod
    def from_specs(cls, specs: Sequence[PathSpec]) -> BatchScene:
        """The members' batches of one, concatenated."""
        if not specs:
            raise NonUniformBatch("empty batch")
        n = specs[0].n
        if any(s.n != n for s in specs):
            raise NonUniformBatch("batch members have differing interaction counts")
        batches = [s.batch for s in specs]
        return cls(
            *(np.concatenate([getattr(b, f.name) for b in batches], axis=-1) for f in fields(cls))
        )

    @property
    def size(self) -> int:
        return self.eps.shape[0]

    @property
    def n(self) -> int:
        return self.basis.shape[2]

    @property
    def dtype(self):
        return self.basis.dtype

    def astype(self, dtype) -> BatchScene:
        """The batch in `dtype`.

        The floor is recomputed from the cast endpoints, as it always was:
        casting the float64 floor to float32 instead changes its last bit
        for about one member in six.
        """
        if self.dtype == dtype:
            return self
        basis, anchor = self.basis.astype(dtype), self.anchor.astype(dtype)
        start, end = self.start.astype(dtype), self.end.astype(dtype)
        eps = segment_floor(start, end).astype(dtype)
        return BatchScene(basis, anchor, start, end, eps, self.active)

    def take(self, idx) -> BatchScene:
        """The members selected by an index array or boolean mask, C-contiguous."""
        idx = np.asarray(idx)
        if idx.dtype == bool:
            if idx.shape != (self.size,):
                raise IndexError(f"mask of shape {idx.shape} for {self.size} members")
            idx = np.flatnonzero(idx)
        return BatchScene(*(np.take(getattr(self, f.name), idx, axis=-1) for f in fields(self)))


@dataclass(frozen=True, slots=True)
class PathSpec:
    """Start point, end point, and an ordered candidate interaction sequence."""

    start: np.ndarray
    end: np.ndarray
    surfaces: tuple[Surface, ...]
    # Stacked once and read-only. `batch` is the path as a batch of one that
    # every derivative reads; these (n, ...) tensors hold its arrays' values,
    # as transposed views of them or, from `specs_from_arrays`, as views of
    # its member-major stacks.
    basis_tensor: np.ndarray = field(init=False, repr=False, compare=False)  # (n, 3, 2)
    anchor_tensor: np.ndarray = field(init=False, repr=False, compare=False)  # (n, 3)
    active_mask: np.ndarray = field(init=False, repr=False, compare=False)  # (n, 2) non-inert
    batch: BatchScene = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        start = _as_vec3(self.start, "start")
        end = _as_vec3(self.end, "end")
        with np.errstate(over="ignore"):
            separation = norm3(end - start)
        if not math.isfinite(separation):
            raise ShapeMismatch("start and end points are so far apart that their separation overflows")
        if separation <= MIN_ENDPOINT_SEPARATION:
            raise ShapeMismatch("start and end points (nearly) coincide")
        try:
            surfaces = tuple(self.surfaces)
        except TypeError as exc:
            raise ShapeMismatch(f"surfaces must be a sequence of Surface objects: {exc}") from exc
        for s in surfaces:
            if not isinstance(s, Surface):
                raise ShapeMismatch(f"surfaces must be Surface objects, got {type(s).__name__}")
        if len(surfaces) > MAX_INTERACTIONS:
            raise ShapeMismatch(f"too many interactions: {len(surfaces)}")
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "end", end)
        object.__setattr__(self, "surfaces", surfaces)
        n = len(surfaces)
        # The batch-last arrays of a batch of one: (3, 2, n, 1), (3, n, 1) and (2, n, 1).
        basis, anchor = np.empty((3, 2, n, 1)), np.empty((3, n, 1))
        if n:
            basis[..., 0] = np.array([s.basis for s in surfaces]).transpose(1, 2, 0)
            anchor[..., 0] = np.array([s.anchor for s in surfaces]).T
        # Each surface's `active`: construction rejects every zero column but an edge's second.
        active = np.ones((2, n, 1), dtype=bool)
        active[1, :, 0] = [s.kind is SurfaceKind.PLANE for s in surfaces]
        eps = segment_floor(start[:, None], end[:, None])
        for a in (basis, anchor, active, eps):
            a.setflags(write=False)
        tensors = (
            ("basis_tensor", basis[..., 0].transpose(2, 0, 1)),
            ("anchor_tensor", anchor[..., 0].T),
            ("active_mask", active[..., 0].T),
        )
        for name, a in tensors:
            object.__setattr__(self, name, a)
        batch = BatchScene(basis, anchor, start[:, None], end[:, None], eps, active)
        object.__setattr__(self, "batch", batch)

    @property
    def n(self) -> int:
        return len(self.surfaces)


def specs_from_arrays(start, end, basis, anchor, plane) -> list[PathSpec]:
    """The `PathSpec`s of B paths of n interactions each, from their stacked arrays.

    start and end are (B, 3), basis (B, n, 3, 2) and anchor (B, n, 3); plane
    (B, n) is true where a surface is a plane and false where it is an edge.
    Every rule of `Surface` and `PathSpec` is tested on the whole stack at
    once, in their arithmetic: `row_norms` for `norm3` and `cross3`'s products
    elementwise. The first member that a rule refuses is built again by
    `Surface` and `PathSpec`, which raise its error. An accepted member is
    not checked again: its batch of one, its tensors and its surfaces' arrays
    are read-only views of C-contiguous member-major stacks.
    """
    start, end = np.array(start, dtype=float), np.array(end, dtype=float)
    basis, anchor = np.array(basis, dtype=float), np.array(anchor, dtype=float)
    plane = np.array(plane, dtype=bool)
    B, n = plane.shape if plane.ndim == 2 else (-1, -1)
    shapes = start.shape, end.shape, basis.shape, anchor.shape
    if B < 0 or shapes != ((B, 3), (B, 3), (B, n, 3, 2), (B, n, 3)):
        raise ShapeMismatch(f"inconsistent stacked scene shapes {shapes} and plane {plane.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        # The columns as contiguous rows, so that each norm is `norm3`'s BLAS dot.
        nu, nv = row_norms(basis.transpose(3, 0, 1, 2).reshape(-1, 3)).reshape(2, B, n)
        cross = cross_rows(basis[..., 0], basis[..., 1]).reshape(-1, 3)
        parallel = row_norms(cross).reshape(B, n) <= PLANE_DEGENERACY_TOL * nu * nv
        separation = row_norms(end - start)
    values = np.concatenate([start, end, basis.reshape(B, -1), anchor.reshape(B, -1)], axis=1)
    surfaces_held = (nu != 0.0) & np.where(plane, (nv != 0.0) & ~parallel, nv == 0.0)
    ok = (
        np.isfinite(values).all(axis=1) & surfaces_held.all(axis=1) & np.isfinite(separation)
        & (separation > MIN_ENDPOINT_SEPARATION) & (n <= MAX_INTERACTIONS)
    )
    kinds = [SurfaceKind.EDGE, SurfaceKind.PLANE]
    if not ok.all():
        b = int(np.argmin(ok))
        surfaces = zip(basis[b], anchor[b], plane[b].tolist())
        PathSpec(
            start=start[b], end=end[b],
            surfaces=[Surface(basis=x, anchor=a, kind=kinds[p]) for x, a, p in surfaces],
        )
        raise RuntimeError(f"member {b}'s stacked checks refused what the constructors accept")

    # The member-major stacks: the (n, ...) tensors and the batch-of-one layouts.
    mask = np.ones((B, n, 2), dtype=bool)
    mask[..., 1] = plane
    batch_basis = np.ascontiguousarray(basis.transpose(0, 2, 3, 1))[..., None]  # (B, 3, 2, n, 1)
    batch_anchor = np.ascontiguousarray(anchor.transpose(0, 2, 1))[..., None]  # (B, 3, n, 1)
    batch_active = np.ascontiguousarray(mask.transpose(0, 2, 1))[..., None]  # (B, 2, n, 1)
    eps = segment_floor(start.T, end.T)
    for a in (start, end, basis, anchor, mask, batch_basis, batch_anchor, batch_active, eps):
        a.setflags(write=False)
    put = object.__setattr__
    specs = []
    for b, planes in enumerate(plane.tolist()):
        surfaces = []
        for x, a, p in zip(basis[b], anchor[b], planes):
            surface = object.__new__(Surface)
            put(surface, "basis", x)
            put(surface, "anchor", a)
            put(surface, "kind", kinds[p])
            surfaces.append(surface)
        batch = BatchScene(
            batch_basis[b], batch_anchor[b], start[b, :, None], end[b, :, None], eps[b:b + 1],
            batch_active[b],
        )
        spec = object.__new__(PathSpec)
        put(spec, "start", start[b])
        put(spec, "end", end[b])
        put(spec, "surfaces", tuple(surfaces))
        put(spec, "basis_tensor", basis[b])
        put(spec, "anchor_tensor", anchor[b])
        put(spec, "active_mask", mask[b])
        put(spec, "batch", batch)
        specs.append(spec)
    return specs


def check_params(spec: PathSpec, T, name: str = "params") -> np.ndarray:
    """Validate an n x 2 array (parameters, or the `name`d cotangent) and return it as float."""
    T = float_array(T, name)
    if T.shape != (spec.n, 2):
        raise ShapeMismatch(f"{name} must have shape ({spec.n}, 2), got {T.shape}")
    if not np.isfinite(T).all():
        raise ShapeMismatch(f"{name} must be finite")
    return T


def basis_pinv(basis: np.ndarray, active: np.ndarray) -> np.ndarray:
    """(3, 2, ...) transposed pseudo-inverses of (3, 2, ...) bases with (2, ...) active masks.

    Closed-form Gram-Schmidt: with a and b the columns and w = b - (a.b / a.a) a,
    row 2 is w / (w.w) and row 1 is a / (a.a) - (a.b / a.a) row 2. The rows
    are stored as columns, in the layout of the basis, so the projection is
    applied as A^T is. An inert second column (an edge's) gets a row 2 of
    exactly zero. w.w is summed in order: a one-interaction batch of one
    would otherwise sum it as a contiguous reduction, which rounds
    differently.
    """
    a, b = basis[:, 0], basis[:, 1]
    aa, ab = einsum("ki...,k...->i...", basis, a)
    c = ab / aa
    w = b - c * a
    w2 = w * w
    # An inert w is zero; dividing it by infinity keeps its row 2 zero.
    ww = np.where(active[1], (w2[0] + w2[1]) + w2[2], np.inf)
    pinv = np.empty_like(basis)
    row2 = np.divide(w, ww, out=pinv[:, 1])
    np.subtract(a / aa, c * row2, out=pinv[:, 0])
    return pinv


def params_from_points_batch(sc: BatchScene, points: np.ndarray) -> np.ndarray:
    """(2, n, B) least-squares parametric coordinates of points that broadcast to (3, n, B).

    The batch's closed-form pseudo-inverses (`basis_pinv`) project every
    point, so nearly parallel plane bases stay accurate; each member equals
    its own batch of one bitwise, and inert coordinates are +0.0.
    """
    pinv = basis_pinv(sc.basis, sc.active)
    # An inert coordinate is a zero row times the point, possibly -0.0; `+ 0.0` makes it +0.0.
    return einsum("ijnb,inb->jnb", pinv, points - sc.anchor) + 0.0


def params_from_points(spec: PathSpec, points) -> np.ndarray:
    """`params_from_points_batch` of one path's (n, 3) points."""
    points = float_array(points, "points")
    if points.shape != (spec.n, 3):
        raise ShapeMismatch(f"points must have shape ({spec.n}, 3), got {points.shape}")
    return params_from_points_batch(spec.batch, points.T[..., None])[..., 0].T
