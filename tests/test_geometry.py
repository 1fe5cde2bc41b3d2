"""Surface/path construction, the parametric embedding, and its exactness."""

import math
from dataclasses import fields
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermatpath import (
    DegenerateBasis,
    FermatPathError,
    Kinds,
    PathSpec,
    ShapeMismatch,
    Surface,
    SurfaceKind,
    bfgs_solve,
    embed,
    gen_scenes,
    make_edge,
    make_plane,
    params_from_points,
)
from fermatpath.batching import BatchScene
from fermatpath.geometry import (
    MAX_INTERACTIONS,
    basis_pinv,
    check_params,
    cross3,
    cross_rows,
    norm3,
    row_norms,
    specs_from_arrays,
)

import _oracles as oracle


_each_non_real_cast = pytest.mark.parametrize(
    "cast", oracle.NON_REAL_CASTS.values(), ids=oracle.NON_REAL_CASTS.keys()
)


def _simple_spec():
    return PathSpec(
        start=[-1.0, 1.0, 0.0],
        end=[1.0, 1.0, 0.5],
        surfaces=(
            make_plane([0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]),
            make_edge([0.5, 0.5, 0.0], [0.0, 1.0, 1.0]),
        ),
    )


class TestSurface:
    def test_plane_constructor(self):
        s = make_plane([0, 0, 0], [1, 0, 0], [0, 1, 0])
        assert s.kind is SurfaceKind.PLANE
        assert np.array_equal(s.active, [True, True])

    def test_edge_second_column_exactly_zero(self):
        s = make_edge([1, 2, 3], [0, 0, 2])
        assert np.all(s.basis[:, 1] == 0.0)
        assert np.array_equal(s.active, [True, False])

    def test_parallel_plane_columns_rejected(self):
        with pytest.raises(DegenerateBasis):
            make_plane([0, 0, 0], [1, 0, 0], [2.0, 1e-12, 0])

    def test_zero_plane_column_rejected(self):
        with pytest.raises(DegenerateBasis):
            make_plane([0, 0, 0], [0, 0, 0], [0, 1, 0])

    def test_zero_edge_direction_rejected(self):
        with pytest.raises(DegenerateBasis):
            make_edge([0, 0, 0], [0, 0, 0])

    def test_edge_with_nonzero_second_column_rejected(self):
        basis = np.array([[1.0, 0.1], [0.0, 0.0], [0.0, 0.0]])
        with pytest.raises(DegenerateBasis):
            Surface(basis=basis, anchor=[0, 0, 0], kind=SurfaceKind.EDGE)

    def test_bad_anchor_shape_rejected(self):
        with pytest.raises(ShapeMismatch):
            make_plane([0, 0], [1, 0, 0], [0, 1, 0])

    @pytest.mark.parametrize("kind", ["edge", "plane"])
    def test_kind_given_by_its_value_is_the_kind(self, kind):
        basis = [[1.0, 0.0], [0.0, float(kind == "plane")], [0.0, 0.0]]
        s = Surface(basis=basis, anchor=[0, 0, 0], kind=kind)
        assert s.kind is SurfaceKind(kind)

    @pytest.mark.filterwarnings("error")
    @_each_non_real_cast
    def test_non_real_basis_rejected(self, cast):
        basis = cast(np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(ShapeMismatch, match="basis must be real"):
            Surface(basis=basis, anchor=[0, 0, 0], kind=SurfaceKind.PLANE)

    @pytest.mark.parametrize(
        "build",
        [lambda: make_plane([0, 0, 0], [1, 0, 0], object()),
         lambda: make_edge([[1, 2], [3]], [1, 0, 0]),
         lambda: Surface(basis=[[1.0, 0.0], [0.0]], anchor=[0, 0, 0], kind=SurfaceKind.EDGE)],
        ids=["object-column", "ragged-anchor", "ragged-basis"],
    )
    def test_input_that_is_no_float_array_rejected(self, build):
        # Before, the float cast's TypeError or ValueError escaped untyped.
        with pytest.raises(ShapeMismatch, match="must be a float array"):
            build()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ShapeMismatch, match="kind"):
            Surface(basis=[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]], anchor=[0, 0, 0], kind="wedge")

    def test_surfaces_are_immutable(self):
        s = make_plane([0, 0, 0], [1, 0, 0], [0, 1, 0])
        with pytest.raises(ValueError):
            s.basis[0, 0] = 2.0


class TestPathSpec:
    def test_coincident_endpoints_rejected(self):
        with pytest.raises(ShapeMismatch):
            PathSpec(start=[0, 0, 0], end=[0, 0, 1e-12], surfaces=())

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "start, end",
        [([1e200, 0, 0], [0, 0, 1]), ([1.7e308, 0, 0], [-1.7e308, 0, 0])],
        ids=["squares", "difference"],
    )
    def test_endpoints_whose_separation_overflows_rejected(self, start, end):
        # Before, the floor read inf and a solve reported coincident path points.
        plane = make_plane([1, 0, 0], [1, 0, 0], [0, 1, 0])
        with pytest.raises(ShapeMismatch, match="separation overflows"):
            PathSpec(start=start, end=end, surfaces=(plane,))

    @pytest.mark.filterwarnings("error")
    def test_a_large_finite_separation_is_kept(self):
        spec = PathSpec(start=[1e150, 0, 0], end=[0, 0, 1], surfaces=())
        assert np.isfinite(spec.batch.eps).all()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "start",
        [[0, 0, 1j], [True, False, True], [True, 0, 0], [0.5, True, 0.0], ["1", "0", "0"],
         ["1.5", 0, 0], np.array([b"1", b"0", b"0"])],
        ids=["complex", "bools", "bool-among-ints", "bool-among-floats", "strings",
             "string-among-ints", "bytes"],
    )
    def test_non_real_point_rejected(self, start):
        # Every 3-vector (start, end, anchors and plane or edge directions) is checked
        # alike; a float cast would read True as 1 and "1.5" as 1.5.
        with pytest.raises(ShapeMismatch, match="start must be real"):
            PathSpec(start=start, end=[1, 1, 1], surfaces=())

    @pytest.mark.parametrize(
        "surfaces, message",
        [([1], "got int"), ([None], "got NoneType"), (["plane"], "got str"),
         ((make_edge([0, 0, 0], [1, 0, 0]), 2.0), "got float"), (5, "a sequence of Surface")],
        ids=["int", "none", "str", "after-a-surface", "not-a-sequence"],
    )
    def test_surfaces_that_are_no_surfaces_rejected(self, surfaces, message):
        # Before, these raised AttributeError or TypeError.
        with pytest.raises(ShapeMismatch, match=message):
            PathSpec(start=[0, 0, 0], end=[1, 1, 1], surfaces=surfaces)

    def test_ragged_point_rejected(self):
        with pytest.raises(ShapeMismatch, match="^start must be a float array"):
            PathSpec(start=[[1, 2], [3]], end=[1, 1, 1], surfaces=())

    def test_interaction_limit(self):
        edge = make_edge([0, 0, 0], [1, 0, 0])
        with pytest.raises(ShapeMismatch):
            PathSpec(
                start=[0, 0, 0],
                end=[1, 1, 1],
                surfaces=(edge,) * (MAX_INTERACTIONS + 1),
            )

    def test_tensors_and_mask(self):
        spec = _simple_spec()
        assert spec.n == 2
        assert spec.basis_tensor.shape == (2, 3, 2)
        assert spec.anchor_tensor.shape == (2, 3)
        assert np.array_equal(spec.active_mask, [[True, True], [True, False]])

    def test_stacked_arrays_are_stored_read_only(self):
        spec = _simple_spec()
        for a in (spec.basis_tensor, spec.anchor_tensor, spec.active_mask):
            assert not a.flags.writeable
        # Stacked once at construction, not on every access.
        assert spec.basis_tensor is spec.basis_tensor
        assert spec.anchor_tensor is spec.anchor_tensor
        assert spec.active_mask is spec.active_mask

    @pytest.mark.parametrize("n", [1, 5, 64])
    @pytest.mark.parametrize("kinds", list(Kinds))
    def test_mask_from_the_kinds_is_the_norm_rule(self, kinds, n):
        # Construction rejects every zero basis column but an edge's second,
        # so the mask built from the kinds is the nonzero-norm rule.
        for spec in gen_scenes(13, n, kinds, 10 if n < 64 else 3):
            norm_rule = np.linalg.norm(spec.basis_tensor, axis=1) > 0.0
            assert _bytes(spec.active_mask) == _bytes(norm_rule)
            assert _bytes(spec.batch.active) == _bytes(norm_rule.T[..., None])
            for surface, row in zip(spec.surfaces, norm_rule):
                assert _bytes(surface.active) == _bytes(row)


class TestCheckParams:
    def test_wrong_shape(self):
        with pytest.raises(ShapeMismatch):
            check_params(_simple_spec(), np.zeros((3, 2)))

    def test_non_finite(self):
        T = np.zeros((2, 2))
        T[0, 0] = np.nan
        with pytest.raises(ShapeMismatch):
            check_params(_simple_spec(), T)

    @pytest.mark.filterwarnings("error")
    @_each_non_real_cast
    def test_non_real(self, cast):
        with pytest.raises(ShapeMismatch, match="params must be real"):
            check_params(_simple_spec(), cast(np.ones((2, 2))))

    def test_non_numeric(self):
        with pytest.raises(ShapeMismatch):
            check_params(_simple_spec(), "abc")
        with pytest.raises(ShapeMismatch):
            bfgs_solve(_simple_spec(), "abc")


class TestEmbed:
    def test_endpoints_fixed(self):
        spec = _simple_spec()
        pts = embed(spec, np.zeros((2, 2)))
        assert np.array_equal(pts[0], spec.start)
        assert np.array_equal(pts[-1], spec.end)

    def test_points_on_surfaces(self):
        spec = _simple_spec()
        T = np.array([[0.3, -0.7], [1.2, 0.0]])
        pts = embed(spec, T)
        for i, s in enumerate(spec.surfaces):
            assert np.allclose(pts[i + 1], s.basis @ T[i] + s.anchor)

    @given(
        lam=st.floats(0.0, 1.0),
        t=st.lists(st.floats(-5.0, 5.0), min_size=4, max_size=4),
    )
    @settings(max_examples=50, deadline=None)
    def test_affine_in_params(self, lam, t):
        spec = _simple_spec()
        T1 = np.array(t).reshape(2, 2)
        T2 = -T1[::-1].copy()
        mix = lam * T1 + (1 - lam) * T2
        expect = lam * embed(spec, T1) + (1 - lam) * embed(spec, T2)
        assert np.allclose(embed(spec, mix), expect, atol=1e-12)

    def test_inert_coordinate_has_no_effect_bitwise(self):
        spec = _simple_spec()
        T = np.array([[0.3, -0.7], [1.2, 0.0]])
        T2 = T.copy()
        T2[1, 1] = 1e6  # inert: edge's zero basis column kills it exactly
        assert np.array_equal(embed(spec, T), embed(spec, T2))


class TestParamsFromPoints:
    def test_roundtrip(self):
        spec = _simple_spec()
        T = np.array([[0.3, -0.7], [1.2, 0.0]])
        pts = embed(spec, T)
        back = params_from_points(spec, pts[1:-1])
        assert np.allclose(back, T, atol=1e-12)

    def test_inert_coordinates_zero(self):
        spec = _simple_spec()
        back = params_from_points(spec, embed(spec, np.ones((2, 2)))[1:-1])
        assert back[1, 1] == 0.0

    def test_bad_shape(self):
        with pytest.raises(ShapeMismatch):
            params_from_points(_simple_spec(), np.zeros((3, 3)))

    @pytest.mark.filterwarnings("error")
    @_each_non_real_cast
    def test_non_real_points_rejected(self, cast):
        with pytest.raises(ShapeMismatch, match="points must be real"):
            params_from_points(_simple_spec(), cast(np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])))

    def test_matches_per_surface_lstsq(self):
        rng = np.random.default_rng(17)
        near_parallel = PathSpec(
            start=[0.0, 0.0, 1.0],
            end=[1.0, 0.0, 1.0],
            surfaces=(
                make_plane([0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 2e-9, 0.0]),
                make_edge([2.0, 0.0, 0.0], [0.0, 1.0, 0.0]),
            ),
        )
        specs = [near_parallel] + [
            spec
            for kinds in (Kinds.MIXED, Kinds.DIFFRACTIONS)
            for n in (1, 2, 5, 64)
            for spec in gen_scenes(17, n, kinds, 10)
        ]
        for spec in specs:
            for pts in (rng.normal(size=(spec.n, 3)) * 5.0, spec.anchor_tensor + 0.25):
                T = params_from_points(spec, pts)
                want = oracle.per_surface_params_from_points(spec, pts)
                assert np.linalg.norm(T - want) <= 1e-12 * np.linalg.norm(want)
                inert = T[~spec.active_mask]
                assert inert.tobytes() == np.zeros_like(inert).tobytes()  # +0.0

    @pytest.mark.parametrize("kinds", list(Kinds))
    def test_basis_pinv_is_a_left_inverse_with_zero_inert_rows(self, kinds):
        for spec in gen_scenes(29, 5, kinds, 20) + [_simple_spec()]:
            # Transposed pseudo-inverses, in the (3, 2, n) layout of the basis.
            pinv = basis_pinv(spec.basis_tensor.transpose(1, 2, 0), spec.active_mask.T)
            assert pinv.shape == (3, 2, spec.n)
            eye = np.einsum("kin,nkj->nij", pinv, spec.basis_tensor)  # (n, 2, 2)
            for i, act in enumerate(spec.active_mask):
                np.testing.assert_allclose(eye[i][np.ix_(act, act)], np.eye(act.sum()), atol=1e-12)
            inert = pinv[:, 1].T[~spec.active_mask[:, 1]]  # an edge's row 2 is exactly zero
            assert np.all(inert == 0.0)

    @pytest.mark.parametrize("e", [3e-8, 1e-6])
    def test_accurate_on_rotated_nearly_parallel_plane_bases(self, e):
        # Columns R x and R (x + e y) for 200 random rotations R. Each
        # projected point is compared with the exact least-squares point of
        # the stored basis (`oracle.exact_lstsq`). Rounding the basis tilts
        # its plane by about eps / e, so the error is bounded by
        # 8 eps |p - anchor| / e. On these bases the SVD projection
        # `np.linalg.pinv` reaches 2.96 (e = 3e-8) and 2.88 (e = 1e-6) of
        # the unit eps |p - anchor| / e, and the closed form 1.56 and 1.84.
        rng = np.random.default_rng(41)
        eps = np.finfo(float).eps
        for _ in range(25):
            rotations = np.linalg.qr(rng.normal(size=(8, 3, 3)))[0]
            u, v = rotations @ [1.0, 0.0, 0.0], rotations @ [1.0, e, 0.0]
            anchors = rng.normal(size=(8, 3))
            planes = tuple(map(make_plane, anchors, u, v))
            spec = PathSpec(start=[20.0, 0.0, 0.0], end=[-20.0, 0.0, 0.0], surfaces=planes)
            points = anchors + rng.normal(size=(8, 3)) * 5.0
            T = params_from_points(spec, points)
            for A, t, r in zip(spec.basis_tensor, T, points - anchors):
                exact = oracle.exact_lstsq(A, r)
                d = [Fraction(float(ti)) - si for ti, si in zip(t, exact)]
                err = math.sqrt(sum((Fraction(float(a)) * d[0] + Fraction(float(b)) * d[1]) ** 2
                                    for a, b in A))
                assert err <= 8.0 * eps * np.linalg.norm(r) / e


def _bytes(*arrays):
    return [(a.dtype, a.shape, a.tobytes()) for a in arrays]


def _same_outcome(call, oracle_call):
    """The library call raises the oracle's exception type or returns its arrays' bytes."""
    try:
        expected = oracle_call()
    except Exception as exc:
        with pytest.raises(type(exc)):
            call()
        return
    assert _bytes(*call()) == _bytes(*expected)


_SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e-170, 1e-155, 1e300, np.inf, -np.inf, np.nan]
_element = st.one_of(
    st.floats(-10.0, 10.0),
    st.floats(width=64),
    st.integers(-3, 3),
    st.sampled_from(_SPECIAL),
)
_triple = st.lists(_element, min_size=3, max_size=3)
# Mostly 3-vectors, as lists or arrays (integer arrays when every entry is
# an int); sometimes the wrong length or nesting.
_vec_input = st.one_of(
    _triple,
    _triple.map(np.array),
    st.lists(_element, min_size=0, max_size=5),
    st.lists(_triple, min_size=1, max_size=2),
)
_finite3 = st.lists(st.floats(-10.0, 10.0), min_size=3, max_size=3).map(np.array)


@st.composite
def _near_parallel(draw):
    """Plane columns u and v = c u + delta w around the degeneracy threshold."""
    u, w = draw(_finite3), draw(_finite3)
    c = draw(st.floats(0.1, 10.0)) * draw(st.sampled_from([1.0, -1.0]))
    delta = 10.0 ** draw(st.floats(-12.0, -6.0))
    return u, c * u + delta * w


def _surface_arrays(s):
    return s.basis, s.anchor


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestConstructorsMatchOracle:
    """The scalar fast paths agree with `np.linalg.norm`, `np.cross` and `np.stack`."""

    @given(anchor=_vec_input, u=_vec_input, v=_vec_input)
    @settings(max_examples=300, deadline=None)
    def test_make_plane(self, anchor, u, v):
        _same_outcome(
            lambda: _surface_arrays(make_plane(anchor, u, v)),
            lambda: oracle.make_plane(anchor, u, v),
        )

    @given(anchor=_finite3, cols=_near_parallel())
    @settings(max_examples=300, deadline=None)
    def test_make_plane_near_parallel(self, anchor, cols):
        u, v = cols
        _same_outcome(
            lambda: _surface_arrays(make_plane(anchor, u, v)),
            lambda: oracle.make_plane(anchor, u, v),
        )

    @given(anchor=_vec_input, direction=_vec_input)
    @settings(max_examples=300, deadline=None)
    def test_make_edge(self, anchor, direction):
        _same_outcome(
            lambda: _surface_arrays(make_edge(anchor, direction)),
            lambda: oracle.make_edge(anchor, direction),
        )

    @given(
        cols=st.lists(_vec_input, min_size=2, max_size=2),
        shape=st.sampled_from(["(3, 2)", "(2, 3)", "(6,)"]),
        anchor=_vec_input,
        kind=st.sampled_from(list(SurfaceKind)),
    )
    @settings(max_examples=300, deadline=None)
    def test_surface(self, cols, shape, anchor, kind):
        try:
            basis = np.array(cols, dtype=float)
        except (ValueError, TypeError):
            basis = cols
        else:
            if basis.size == 6:
                basis = {"(3, 2)": basis.T, "(2, 3)": basis, "(6,)": basis.ravel()}[shape]
        _same_outcome(
            lambda: _surface_arrays(Surface(basis=basis, anchor=anchor, kind=kind)),
            lambda: oracle.surface(basis, anchor, kind),
        )

    @given(
        start=_vec_input,
        offset=st.one_of(_vec_input, _finite3.map(lambda d: d * 1e-9)),
        count=st.sampled_from([0, 1, 2, 5, MAX_INTERACTIONS, MAX_INTERACTIONS + 1]),
    )
    @settings(max_examples=200, deadline=None)
    def test_path_spec(self, start, offset, count):
        try:
            end = np.asarray(start, dtype=float) + np.asarray(offset, dtype=float)
        except (ValueError, TypeError):
            end = offset
        pool = [
            make_plane([0.0, 1.0, 2.0], [1.0, 0.0, 0.0], [0.0, 1e-3, 1.0]),
            make_edge([1.0, 1.0, 0.0], [0.0, 2.0, -1.0]),
            Surface(basis=np.array([[1.0, 1e-170]] * 3), anchor=[0.0, 0.0, 1.0], kind=SurfaceKind.EDGE),
        ]
        surfaces = [pool[i % len(pool)] for i in range(count)]

        def built():
            spec = PathSpec(start=start, end=end, surfaces=surfaces)
            arrays = (spec.start, spec.end, spec.basis_tensor, spec.anchor_tensor)
            return *arrays, spec.active_mask, spec.batch.eps

        _same_outcome(built, lambda: oracle.path_spec(start, end, surfaces))

    def test_helpers_match_numpy_bitwise(self):
        rng = np.random.default_rng(3)
        v = rng.normal(size=(4000, 3)) * 10.0 ** rng.uniform(-3, 3, size=(4000, 1))
        w = rng.normal(size=(4000, 3))
        norms = np.array([np.linalg.norm(r) for r in v])
        assert _bytes(row_norms(v)) == _bytes(norms)
        assert _bytes(np.array([norm3(r) for r in v])) == _bytes(norms)
        crosses = np.array([cross3(a, b) for a, b in zip(v, w)])
        assert _bytes(crosses) == _bytes(np.cross(v, w))
        assert _bytes(cross_rows(v.reshape(40, 100, 3), w.reshape(40, 100, 3))) == _bytes(
            crosses.reshape(40, 100, 3)
        )


_FLAWS = ["zero column", "near-parallel", "edge second column", "non-finite", "coincident",
          "overflowing separation"]


@st.composite
def _stacked_member(draw, n):
    """(start, end, basis (n, 3, 2), anchor (n, 3), plane (n,)): a valid member, or one
    with one of `_FLAWS`. The valid values come from a drawn seed."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    start, anchor = rng.normal(size=3) * 5.0, rng.normal(size=(n, 3)) * 5.0
    end = start + rng.normal(size=3) + 20.0
    plane = rng.integers(2, size=n).astype(bool)
    basis = np.zeros((n, 3, 2))
    basis[..., 0] = rng.normal(size=(n, 3))
    basis[plane, :, 1] = np.cross(basis[plane, :, 0], rng.normal(size=(plane.sum(), 3)))
    flaw = draw(st.sampled_from([None, None, None, *_FLAWS]))
    i = draw(st.integers(0, max(n - 1, 0)))
    if flaw == "zero column" and n:
        basis[i, :, draw(st.integers(0, int(plane[i])))] = 0.0
    elif flaw == "near-parallel" and n:
        plane[i] = True
        basis[i, :, 0], basis[i, :, 1] = draw(_near_parallel())
    elif flaw == "edge second column" and n:
        plane[i] = False
        basis[i, :, 1] = draw(st.sampled_from([1e-170, 1e-150, 1.0]))
    elif flaw == "non-finite":
        targets = [start, end] + ([basis[i], anchor[i]] if n else [])
        target = targets[draw(st.integers(0, len(targets) - 1))]
        target.flat[draw(st.integers(0, target.size - 1))] = draw(
            st.sampled_from([np.inf, -np.inf, np.nan])
        )
    elif flaw == "coincident":
        end = start + rng.normal(size=3) * 1e-10
    elif flaw == "overflowing separation":
        start = np.array([1.7e308, 0.0, 0.0])
        end = np.array(draw(st.sampled_from([[-1.7e308, 0.0, 0.0], [0.0, 1e200, 0.0]])))
    return start, end, basis, anchor, plane


def _scalar_spec(start, end, basis, anchor, plane):
    kinds = [SurfaceKind.PLANE if p else SurfaceKind.EDGE for p in plane]
    surfaces = [Surface(basis=b, anchor=a, kind=k) for b, a, k in zip(basis, anchor, kinds)]
    return PathSpec(start=start, end=end, surfaces=surfaces)


def _spec_arrays(spec):
    """Every array of a spec, with its read-only flag, and its surfaces' kinds."""
    arrays = [spec.start, spec.end, spec.basis_tensor, spec.anchor_tensor, spec.active_mask]
    arrays += [getattr(spec.batch, f.name) for f in fields(spec.batch)]
    arrays += [a for s in spec.surfaces for a in (s.basis, s.anchor)]
    return _bytes(*arrays), [a.flags.writeable for a in arrays], [s.kind for s in spec.surfaces]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestArrayConstructorMatchesTheScalarOnes:
    """`specs_from_arrays` accepts exactly what `Surface` and `PathSpec` accept, and
    `make_plane` and `make_edge` where they apply; its first refused member raises their
    error, and every accepted array has their bytes and read-only flag."""

    @given(
        data=st.data(), B=st.integers(1, 6), n=st.sampled_from([0, 1, 2, 5, MAX_INTERACTIONS + 1])
    )
    @settings(max_examples=300, deadline=None)
    def test_stack(self, data, B, n):
        members = [data.draw(_stacked_member(n)) for _ in range(B)]
        outcomes = []
        for start, end, basis, anchor, plane in members:
            try:
                outcomes.append(_scalar_spec(start, end, basis, anchor, plane))
            except FermatPathError as exc:
                outcomes.append(exc)
                continue
            # Where `make_plane` and `make_edge` can express a surface, they accept it too.
            for b, a, p in zip(basis, anchor, plane):
                if p:
                    make_plane(a, b[:, 0], b[:, 1])
                else:
                    make_edge(a, b[:, 0])
        stacks = [np.array(x) for x in zip(*members)]
        stacks[2], stacks[3] = stacks[2].reshape(B, n, 3, 2), stacks[3].reshape(B, n, 3)
        stacks[4] = stacks[4].reshape(B, n)
        errors = [o for o in outcomes if isinstance(o, Exception)]
        if errors:
            with pytest.raises(type(errors[0])) as info:
                specs_from_arrays(*stacks)
            assert str(info.value) == str(errors[0])
            return
        specs = specs_from_arrays(*stacks)
        assert [_spec_arrays(s) for s in specs] == [_spec_arrays(s) for s in outcomes]
        for spec in specs:
            assert all(getattr(spec.batch, f.name).flags.c_contiguous for f in fields(spec.batch))

    def test_inconsistent_shapes_rejected(self):
        start, end = np.zeros((2, 3)), np.ones((2, 3))
        basis, anchor, plane = np.zeros((2, 1, 3, 2)), np.zeros((2, 1, 3)), np.ones((2, 1), bool)
        for bad in (
            (start[:1], end, basis, anchor, plane),
            (start, end, basis[:, :, :2], anchor, plane),
            (start, end, basis, anchor, plane[0]),
        ):
            with pytest.raises(ShapeMismatch, match="inconsistent stacked scene shapes"):
                specs_from_arrays(*bad)

    def test_members_are_views_of_read_only_stacks(self):
        specs = gen_scenes(3, 4, Kinds.MIXED, 5)
        for spec in specs:
            arrays = [spec.start, spec.basis_tensor, spec.batch.basis, spec.surfaces[0].basis]
            assert all(a.base is not None and not a.flags.writeable for a in arrays)
        assert specs[0].batch.basis.base is specs[4].batch.basis.base


class TestBatchLastLayout:
    """Every batch array is C-contiguous, with the batch axis last."""

    @staticmethod
    def _assert_layout(sc, n, B, dtype=np.float64):
        shapes = {
            "basis": (3, 2, n, B), "anchor": (3, n, B), "start": (3, B), "end": (3, B),
            "eps": (B,), "active": (2, n, B),
        }
        for name, shape in shapes.items():
            a = getattr(sc, name)
            assert a.shape == shape and a.flags.c_contiguous, name
            assert a.dtype == (bool if name == "active" else dtype), name
        assert (sc.size, sc.n) == (B, n)

    @pytest.mark.parametrize("n", [0, 1, 5, 64])
    def test_spec_batch_from_specs_take_and_astype(self, n):
        if n:
            specs = gen_scenes(7, n, Kinds.MIXED, 9)
        else:
            specs = [PathSpec(start=[0, 0, 0], end=[1, 2, k + 1.0], surfaces=()) for k in range(9)]
        for spec in specs:
            self._assert_layout(spec.batch, n, 1)
        sc = BatchScene.from_specs(specs)
        self._assert_layout(sc, n, 9)
        self._assert_layout(sc.take([4, 0, 7]), n, 3)
        self._assert_layout(sc.take(np.arange(9) % 2 == 0), n, 5)
        self._assert_layout(sc.astype(np.float32), n, 9, np.float32)
        self._assert_layout(sc.astype(np.float32).take([2]), n, 1, np.float32)
        for bad in (np.ones(8, dtype=bool), [9]):
            with pytest.raises(IndexError):
                sc.take(bad)
        # Member b of the batch is spec b's batch of one, and its tensors.
        for b, spec in enumerate(specs):
            member = sc.take([b])
            assert _bytes(member.basis[..., 0].transpose(2, 0, 1)) == _bytes(spec.basis_tensor)
            assert _bytes(member.anchor[..., 0].T) == _bytes(spec.anchor_tensor)
            assert _bytes(member.active[..., 0].T) == _bytes(spec.active_mask)
            assert _bytes(member.start[:, 0], member.end[:, 0]) == _bytes(spec.start, spec.end)


class TestBatchSceneCarriesFloorAndMask:
    """`eps` and `active` are carried, equal to their formula byte for byte."""

    @staticmethod
    def _assert_carried(sc):
        assert _bytes(sc.eps) == _bytes(oracle.seg_epsilon(sc.start.T, sc.end.T, sc.dtype))
        assert _bytes(sc.active) == _bytes(np.linalg.norm(sc.basis, axis=0) > 0.0)

    def test_batch_of_one_from_specs_take_and_astype(self):
        specs = gen_scenes(5, 3, Kinds.MIXED, 40)
        for sc in (specs[7].batch, BatchScene.from_specs(specs)):
            self._assert_carried(sc)
            self._assert_carried(sc.take(np.arange(sc.size)[::-2]))
            self._assert_carried(sc.take(np.arange(sc.size) % 3 == 0))
            single = sc.astype(np.float32)
            assert single.eps.dtype == np.float32
            self._assert_carried(single)
            self._assert_carried(single.take([0]))
            self._assert_carried(single.astype(np.float64))
