"""Closed-form derivatives of the path length against finite differences."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermatpath import (
    DegenerateSegment,
    Kinds,
    PathSpec,
    gen_scenes,
    init_params,
    make_edge,
    make_plane,
    param_vjp,
    path_length,
)
from fermatpath.batching import (
    BatchScene,
    checked_segments,
    gradient_batch,
    hessian_batch,
    hessian_from_segments,
    length_param_gradient_from_segments,
    param_vjp_from_segments,
    path_length_batch,
)
from fermatpath.objective import (
    SceneGradient,
    gradient,
    hessian,
    length_param_gradient,
)

from _oracles import (
    fd_gradient,
    fd_hessian,
    looped_hessian_from_segments,
    perturb_params,
    perturb_scene,
    scene_coords,
)


def _cases(seed=13, per_cell=4):
    rng = np.random.default_rng(seed)
    for kinds in (Kinds.REFLECTIONS, Kinds.DIFFRACTIONS, Kinds.MIXED):
        for n in (1, 2, 3, 4):
            for spec in gen_scenes(seed, n, kinds, per_cell):
                yield spec, perturb_params(spec, rng, 0.1)


class TestGradient:
    def test_matches_finite_differences(self):
        for spec, T in _cases():
            g = gradient(spec, T)
            assert np.allclose(g, fd_gradient(spec, T), atol=1e-6)

    def test_inert_entries_zero(self):
        for spec, T in _cases():
            assert np.all(gradient(spec, T)[~spec.active_mask] == 0.0)

    def test_degenerate_segment_raises(self):
        # Plane through the start point; T = 0 collapses the first segment.
        spec = PathSpec(
            start=[0.0, 0.0, 0.0],
            end=[0.0, 0.0, 2.0],
            surfaces=(make_plane([0.0, 0.0, 0.0], [1, 0, 0], [0, 1, 0]),),
        )
        with pytest.raises(DegenerateSegment):
            gradient(spec, np.zeros((1, 2)))


class TestHessian:
    def test_matches_finite_differences(self):
        for spec, T in _cases(per_cell=2):
            H = hessian(spec, T)
            assert np.allclose(H, fd_hessian(spec, T), atol=1e-5)

    def test_symmetric(self):
        for spec, T in _cases(per_cell=2):
            H = hessian(spec, T)
            assert np.allclose(H, H.T, atol=1e-12)

    def test_block_tridiagonal(self):
        for spec, T in _cases(per_cell=2):
            H = hessian(spec, T)
            n = spec.n
            for i in range(n):
                for j in range(n):
                    if abs(i - j) > 1:
                        blk = H[2 * i : 2 * i + 2, 2 * j : 2 * j + 2]
                        assert np.all(blk == 0.0)

    def test_positive_semidefinite(self):
        for spec, T in _cases(per_cell=2):
            w = np.linalg.eigvalsh(hessian(spec, T))
            assert w.min() >= -1e-10


def _hessian_batches():
    """(label, specs, T): 3 kinds x n in {0, 1, 2, 4, 5, 64} x B in {1, 20, 200}, and (5, 1000)."""
    rng = np.random.default_rng(29)
    for kinds in Kinds:
        for n in (0, 1, 2, 4, 5, 64):
            if n == 0:
                ends = rng.uniform(1.0, 2.0, size=(200, 3))
                pool = [PathSpec(start=[0.0, 0.0, 0.0], end=e, surfaces=()) for e in ends]
            else:
                pool = gen_scenes(29, n, kinds, 200)
            T = np.stack([perturb_params(s, rng, 0.1) for s in pool])
            for B in (1, 20, 200):
                yield f"{kinds.value}-{n}-{B}", pool[:B], T[:B]
        big = gen_scenes(30, 5, kinds, 1000)
        yield f"{kinds.value}-5-1000", big, np.stack([perturb_params(s, rng, 0.1) for s in big])


class TestHessianMatchesLoopOracle:
    """The loop-free Hessian equals the per-block loop byte for byte."""

    @pytest.mark.filterwarnings("error")
    def test_bytes(self):
        for label, specs, T in _hessian_batches():
            for dtype in (np.float64, np.float32):
                sc = BatchScene.from_specs(specs).astype(dtype)
                _, s, norms = checked_segments(sc, T.astype(dtype))
                H = hessian_from_segments(sc, s, norms)
                want = looped_hessian_from_segments(sc, s, norms)
                assert (H.dtype, H.shape) == (want.dtype, want.shape), (label, dtype)
                assert H.tobytes() == want.tobytes(), (label, dtype)


class TestBatchOfOne:
    """The scalar calls run the batched kernels on a batch of one."""

    def test_scalar_equals_batched_kernels_bitwise(self):
        cases = list(_cases(per_cell=5))
        groups = [cases[k : k + 5] for k in range(0, len(cases), 5)]
        empty = PathSpec(start=[0.0, 0.0, 0.0], end=[1.0, 2.0, 2.0], surfaces=())
        groups.append([(empty, np.zeros((0, 2)))])
        rng = np.random.default_rng(14)
        for group in groups:
            specs, Ts = zip(*group)
            sc = BatchScene.from_specs(specs)
            T = np.stack(Ts)
            u = rng.normal(size=T.shape)
            _, s, norms = checked_segments(sc, T)
            G, H, L = gradient_batch(sc, T), hessian_batch(sc, T), path_length_batch(sc, T)
            dL = length_param_gradient_from_segments(T, s, norms)
            vjp = param_vjp_from_segments(sc, T, s, norms, u)
            for b, (spec, Tb) in enumerate(group):
                assert gradient(spec, Tb).tobytes() == G[b].tobytes()
                assert hessian(spec, Tb).tobytes() == H[b].tobytes()
                assert path_length(spec, Tb) == float(L[b])
                for sg, parts in ((length_param_gradient(spec, Tb), dL),
                                  (param_vjp(spec, Tb, u[b]), vjp)):
                    fields = (sg.basis, sg.anchor, sg.start, sg.end)
                    assert [f.tobytes() for f in fields] == [p[b].tobytes() for p in parts]
        assert path_length(empty, np.zeros((0, 2))) == 3.0


class TestLengthProperties:
    @given(st.lists(st.floats(-3.0, 3.0), min_size=8, max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_convex_in_params(self, vals):
        spec = gen_scenes(1, 2, Kinds.MIXED, 1)[0]
        T1 = np.array(vals[:4]).reshape(2, 2)
        T2 = np.array(vals[4:]).reshape(2, 2)
        mid = 0.5 * (T1 + T2)
        lhs = path_length(spec, mid)
        rhs = 0.5 * (path_length(spec, T1) + path_length(spec, T2))
        assert lhs <= rhs + 1e-10

    def test_translation_invariance(self):
        spec = gen_scenes(2, 3, Kinds.MIXED, 1)[0]
        rng = np.random.default_rng(0)
        T = perturb_params(spec, rng, 0.2)
        shift = np.array([0.7, -1.3, 2.1])
        moved = PathSpec(
            start=spec.start + shift,
            end=spec.end + shift,
            surfaces=tuple(
                type(s)(basis=s.basis, anchor=s.anchor + shift, kind=s.kind)
                for s in spec.surfaces
            ),
        )
        assert path_length(moved, T) == pytest.approx(path_length(spec, T), rel=1e-14)


class TestSceneDerivatives:
    def test_length_param_gradient_matches_fd(self):
        rng = np.random.default_rng(5)
        for kinds in (Kinds.REFLECTIONS, Kinds.MIXED):
            spec = gen_scenes(4, 2, kinds, 1)[0]
            T = perturb_params(spec, rng, 0.1)
            sg = length_param_gradient(spec, T)
            h = 1e-6
            for coord in scene_coords(spec):
                fd = (
                    path_length(perturb_scene(spec, coord, +h), T)
                    - path_length(perturb_scene(spec, coord, -h), T)
                ) / (2 * h)
                assert _entry(sg, coord) == pytest.approx(fd, abs=1e-6)

    def test_param_vjp_matches_fd(self):
        rng = np.random.default_rng(6)
        spec = gen_scenes(4, 3, Kinds.MIXED, 1)[0]
        T = perturb_params(spec, rng, 0.1)
        u = rng.normal(size=(3, 2))
        sg = param_vjp(spec, T, u)
        h = 1e-6
        for coord in scene_coords(spec):
            fd = (
                np.sum(gradient(perturb_scene(spec, coord, +h), T) * u)
                - np.sum(gradient(perturb_scene(spec, coord, -h), T) * u)
            ) / (2 * h)
            assert _entry(sg, coord) == pytest.approx(fd, abs=1e-5)

    def test_scene_gradient_container(self):
        z = SceneGradient(np.zeros((3, 3, 2)), np.zeros((3, 3)), np.zeros(3), np.zeros(3))
        assert z.flat().shape == (3 * 6 + 3 * 3 + 6,)
        assert z.norm() == 0.0


def _entry(sg: SceneGradient, coord) -> float:
    if coord[0] == "start":
        return float(sg.start[coord[1]])
    if coord[0] == "end":
        return float(sg.end[coord[1]])
    if coord[0] == "anchor":
        return float(sg.anchor[coord[1], coord[2]])
    return float(sg.basis[coord[1], coord[2], coord[3]])
