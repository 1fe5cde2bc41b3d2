"""Image method, gradient descent, damped Newton, and the reference solver."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermatpath import (
    Kinds,
    NoIntersection,
    NotAllPlanes,
    PathSpec,
    SolveOptions,
    gen_scenes,
    gradient_descent,
    image_method,
    init_params,
    make_edge,
    make_plane,
    newton_solve,
    path_length,
    reference_solve,
    reference_solve_batch,
)
from fermatpath.baselines import hessian_batch
from fermatpath.batching import BatchScene
from fermatpath.objective import embed, gradient, hessian

from _oracles import perturb_params


class TestImageMethod:
    def test_v_path(self):
        spec = PathSpec(
            start=[-1.0, 1.0, 0.0],
            end=[1.0, 1.0, 0.0],
            surfaces=(make_plane([0.0, 0.0, 0.0], [1, 0, 0], [0, 0, 1]),),
        )
        pts = image_method(spec)
        assert np.allclose(pts, [[0.0, 0.0, 0.0]], atol=1e-14)

    def test_corner_reflector(self):
        # Two perpendicular mirrors: the double reflection reverses the ray
        # direction, so the outgoing leg is parallel to the incoming one.
        spec = PathSpec(
            start=[-2.0, 1.0, 0.0],
            end=[-2.0, 2.0, 0.0],
            surfaces=(
                make_plane([0.0, 0.0, 0.0], [0, 1, 0], [0, 0, 1]),  # x = 0
                make_plane([0.0, 0.0, 0.0], [1, 0, 0], [0, 0, 1]),  # y = 0
            ),
        )
        pts = image_method(spec)
        leg_in = pts[0] - np.array(spec.start)
        leg_out = np.array(spec.end) - pts[1]
        assert np.allclose(np.cross(leg_in, -leg_out), 0.0, atol=1e-12)

    def test_matches_reference_on_random_scenes(self):
        specs = gen_scenes(19, 3, Kinds.REFLECTIONS, 10)
        Tref, conv = reference_solve_batch(specs)
        assert np.all(conv)
        for spec, T in zip(specs, Tref):
            pts = image_method(spec)
            assert np.allclose(pts, embed(spec, T)[1:-1], atol=1e-8)

    def test_rejects_edges(self):
        spec = PathSpec(
            start=[0, 0, 1],
            end=[1, 0, 1],
            surfaces=(make_edge([0.5, 0, 0], [0, 1, 0]),),
        )
        with pytest.raises(NotAllPlanes):
            image_method(spec)

    def test_parallel_sight_line(self):
        # The mirrored sight line runs parallel to the plane it must cross.
        spec = PathSpec(
            start=[0.0, 0.0, 1.0],
            end=[1.0, 0.0, -1.0],
            surfaces=(make_plane([0.0, 0.0, 0.0], [1, 0, 0], [0, 1, 0]),),
        )
        with pytest.raises(NoIntersection):
            image_method(spec)


class TestGradientDescent:
    def test_decreases_length(self):
        rng = np.random.default_rng(1)
        for spec in gen_scenes(20, 2, Kinds.MIXED, 5):
            T0 = perturb_params(spec, rng, 0.3)
            rep = gradient_descent(spec, T0, SolveOptions(iterations=100))
            assert rep.final_length < path_length(spec, T0)


class TestNewton:
    def test_converges_to_stationary_point(self):
        for spec in gen_scenes(21, 3, Kinds.MIXED, 5):
            rep = newton_solve(spec, init_params(spec), SolveOptions(iterations=30))
            assert rep.final_grad_norm < 1e-10 * (1 + rep.final_length)

    def test_hessian_batch_matches_scalar(self):
        # Each member of a batch equals its own scalar Hessian bitwise.
        rng = np.random.default_rng(2)
        specs = gen_scenes(22, 3, Kinds.MIXED, 5)
        Ts = [perturb_params(spec, rng, 0.1) for spec in specs]
        Hb = hessian_batch(BatchScene.from_specs(specs), np.stack(Ts))
        for spec, T, H in zip(specs, Ts, Hb):
            assert H.tobytes() == hessian(spec, T).tobytes()


class TestReference:
    def test_stationary_to_tolerance(self):
        for kinds in (Kinds.REFLECTIONS, Kinds.DIFFRACTIONS, Kinds.MIXED):
            specs = gen_scenes(23, 3, kinds, 5)
            Tref, conv = reference_solve_batch(specs)
            assert np.all(conv)
            for spec, T in zip(specs, Tref):
                g = gradient(spec, T)
                L = path_length(spec, T)
                assert np.linalg.norm(g) < 1e-12 * (1 + L)

    def test_scalar_entry_point(self):
        spec = gen_scenes(23, 2, Kinds.MIXED, 1)[0]
        T = reference_solve(spec)
        assert np.linalg.norm(gradient(spec, T)) < 1e-12 * (1 + path_length(spec, T))

    def test_restart_is_stable(self):
        spec = gen_scenes(24, 2, Kinds.MIXED, 1)[0]
        T1 = reference_solve(spec)
        T2 = reference_solve(spec, T1)
        assert np.allclose(T1, T2, atol=1e-10)


BATCH = 4


class TestReferenceBatchProperties:
    @given(
        seed=st.integers(0, 2**16),
        n=st.integers(1, 4),
        kinds=st.sampled_from(list(Kinds)),
        order=st.permutations(range(BATCH)),
    )
    @settings(max_examples=12, deadline=None)
    def test_permuting_members_permutes_results(self, seed, n, kinds, order):
        specs = gen_scenes(seed, n, kinds, BATCH)
        T, conv = reference_solve_batch(specs)
        Tp, convp = reference_solve_batch([specs[i] for i in order])
        assert np.array_equal(Tp, T[order])
        assert np.array_equal(convp, conv[order])
        # A batch of one is the scalar solve, and equals its member above.
        b = order[0]
        T1, conv1 = reference_solve_batch([specs[b]])
        assert np.array_equal(T1[0], T[b])
        assert conv1[0] == conv[b]
        if conv[b]:
            assert np.array_equal(reference_solve(specs[b]), T[b])
