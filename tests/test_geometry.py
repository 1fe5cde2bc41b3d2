"""Surface/path construction, the parametric embedding, and its exactness."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermatpath import (
    DegenerateBasis,
    Kinds,
    PathSpec,
    ShapeMismatch,
    Surface,
    SurfaceKind,
    embed,
    gen_scenes,
    make_edge,
    make_plane,
    params_from_points,
)
from fermatpath.batching import BatchScene
from fermatpath.geometry import (
    MAX_INTERACTIONS,
    check_params,
    cross3,
    norm3,
    row_norms,
)

import _oracles as oracle


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

    def test_surfaces_are_immutable(self):
        s = make_plane([0, 0, 0], [1, 0, 0], [0, 1, 0])
        with pytest.raises(ValueError):
            s.basis[0, 0] = 2.0


class TestPathSpec:
    def test_coincident_endpoints_rejected(self):
        with pytest.raises(ShapeMismatch):
            PathSpec(start=[0, 0, 0], end=[0, 0, 1e-12], surfaces=())

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


class TestCheckParams:
    def test_wrong_shape(self):
        with pytest.raises(ShapeMismatch):
            check_params(_simple_spec(), np.zeros((3, 2)))

    def test_non_finite(self):
        T = np.zeros((2, 2))
        T[0, 0] = np.nan
        with pytest.raises(ShapeMismatch):
            check_params(_simple_spec(), T)


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
            return *arrays, spec.active_mask, np.array([spec._eps])

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


class TestBatchSceneCarriesFloorAndMask:
    """`eps` and `active` are carried, equal to their formula byte for byte."""

    @staticmethod
    def _assert_carried(sc):
        assert _bytes(sc.eps) == _bytes(oracle.seg_epsilon(sc.start, sc.end, sc.dtype))
        assert _bytes(sc.active) == _bytes(np.linalg.norm(sc.basis, axis=2) > 0.0)

    def test_of_from_specs_take_and_astype(self):
        specs = gen_scenes(5, 3, Kinds.MIXED, 40)
        for sc in (BatchScene.of(specs[7]), BatchScene.from_specs(specs)):
            self._assert_carried(sc)
            self._assert_carried(sc.take(np.arange(sc.size)[::-2]))
            self._assert_carried(sc.take(np.arange(sc.size) % 3 == 0))
            single = sc.astype(np.float32)
            assert single.eps.dtype == np.float32
            self._assert_carried(single)
            self._assert_carried(single.take([0]))
            self._assert_carried(single.astype(np.float64))
