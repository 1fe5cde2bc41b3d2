"""Surface/path construction, the parametric embedding, and its exactness."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermatpath import (
    DegenerateBasis,
    PathSpec,
    ShapeMismatch,
    Surface,
    SurfaceKind,
    embed,
    make_edge,
    make_plane,
    params_from_points,
)
from fermatpath.geometry import MAX_INTERACTIONS, check_params


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

    def test_scene_scale(self):
        spec = _simple_spec()
        assert spec.scene_scale == pytest.approx(np.linalg.norm([2.0, 0.0, 0.5]))


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
