"""Image method, gradient descent, damped Newton, and the reference solver."""

import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermatpath import (
    Kinds,
    NoIntersection,
    NotAllPlanes,
    PathSpec,
    Precision,
    SolveOptions,
    batch_solve,
    bfgs_solve,
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
from fermatpath import baselines, batching
from fermatpath.batching import (
    BatchScene,
    checked_segments,
    embed_batch,
    hessian_from_segments,
    segment_norms,
    stationary_from_segments,
    unit_directions,
)
from fermatpath.geometry import params_from_points
from fermatpath.objective import embed, gradient, hessian
from fermatpath.solver import _bfgs_kernel

from _oracles import fixed_schedule_bfgs, iterations_to_exit, perturb_params


def _count_calls(monkeypatch, *names):
    """Count calls of the named `batching` functions through every module that holds them."""
    counts = dict.fromkeys(names, 0)
    modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "fermatpath"]
    for name in names:
        real = getattr(batching, name)

        def counting(*args, _name=name, _real=real):
            counts[_name] += 1
            return _real(*args)

        for module in modules:
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counting)
    return counts


def _count_embeddings(monkeypatch, kernel):
    """`_count_calls` of embed_batch and path_length_batch, and the list of
    embed_batch counts at each return of `baselines.<kernel>`."""
    counts = _count_calls(monkeypatch, "embed_batch", "path_length_batch")
    at_return = []
    real = getattr(baselines, kernel)

    def counting(*args):
        out = real(*args)
        at_return.append(counts["embed_batch"])
        return out

    monkeypatch.setattr(baselines, kernel, counting)
    return counts, at_return


def _stationary(sc, T, tol):
    """(B,) |g| < tol (1 + L) at (B, n, 2) T from a fresh embedding, L from the raw norms."""
    s, norms = segment_norms(embed_batch(sc, T.T))
    _, q = unit_directions(s, np.maximum(norms, sc.eps))
    return stationary_from_segments(sc, q, norms, tol)


REFERENCE_OPTIONS = SolveOptions(
    iterations=baselines.REFERENCE_BFGS_ITERS, fixed_point_iters=baselines.REFERENCE_FP_ITERS
)


def _near_parallel_batch():
    """Five near-parallel plane bases, interleaved with reflections.

    At e <= 1e-6 the solution's |t| is of order 1/e, and rounding leaves |g|
    above the reference tolerance; e = 1e-4 converges.
    """
    mirrors = gen_scenes(7, 1, Kinds.REFLECTIONS, 5)
    specs = []
    for e, mirror in zip((2e-9, 3e-8, 1e-7, 1e-6, 1e-4), mirrors):
        plane = make_plane([0.0, 0.0, 0.0], [1, 0, 0], [1, e, 0])
        specs += [PathSpec(start=[0.3, 0.7, 1.0], end=[1.0, 0.2, 1.5], surfaces=(plane,)), mirror]
    return specs


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

    @pytest.mark.parametrize("iterations", [1, 6])
    def test_one_embedding_per_iterate(self, monkeypatch, iterations):
        # The start and each step's iterate are embedded once; the report
        # takes the last one's length from the kernel, embedding nothing.
        counts, at_return = _count_embeddings(monkeypatch, "_gd_kernel")
        spec = gen_scenes(20, 3, Kinds.MIXED, 1)[0]
        rep = gradient_descent(spec, init_params(spec), SolveOptions(iterations=iterations))
        assert counts["embed_batch"] == iterations + 1
        assert at_return == [counts["embed_batch"]]
        assert rep.final_length == path_length(spec, rep.solution)


class TestNewton:
    def test_converges_to_stationary_point(self):
        for spec in gen_scenes(21, 3, Kinds.MIXED, 5):
            rep = newton_solve(spec, init_params(spec), SolveOptions(iterations=30))
            assert rep.final_grad_norm < 1e-10 * (1 + rep.final_length)

    def test_batched_hessian_matches_scalar(self):
        # Each member of a batch equals its own scalar Hessian bitwise.
        rng = np.random.default_rng(2)
        specs = gen_scenes(22, 3, Kinds.MIXED, 5)
        Ts = [perturb_params(spec, rng, 0.1) for spec in specs]
        sc = BatchScene.from_specs(specs)
        _, s, norms = checked_segments(sc, np.stack(Ts).T)
        Hb = hessian_from_segments(sc, unit_directions(s, norms)[0], norms)
        for spec, T, H in zip(specs, Ts, Hb):
            assert H.tobytes() == hessian(spec, T).tobytes()

    @pytest.mark.parametrize("iterations", [1, 6])
    def test_one_embedding_per_iterate(self, monkeypatch, iterations):
        # Each iterate is embedded once for g, H and the length; the rest
        # are the step-halving trial lengths, and the report embeds nothing.
        counts, at_return = _count_embeddings(monkeypatch, "_newton_kernel")
        spec = gen_scenes(21, 3, Kinds.MIXED, 1)[0]
        rep = newton_solve(spec, perturb_params(spec, np.random.default_rng(3), 0.3),
                           SolveOptions(iterations=iterations))
        assert counts["embed_batch"] - counts["path_length_batch"] == iterations + 1
        assert at_return == [counts["embed_batch"]]
        assert rep.final_length == path_length(spec, rep.solution)


class TestReference:
    @pytest.mark.parametrize("batch", ["near-parallel", "reference"])
    def test_equals_the_fixed_schedule_where_each_member_stopped(self, batch):
        # Each member's result is the whole schedule's after the steps it took.
        specs = (
            _near_parallel_batch() if batch == "near-parallel"
            else gen_scenes(105, 5, Kinds.MIXED, 20)
        )
        sc = BatchScene.from_specs(specs)
        T0 = np.stack([init_params(s) for s in specs])
        ran = _bfgs_kernel(sc, T0, REFERENCE_OPTIONS)[-1]
        want = T0.copy()
        # Members that stopped at the noise floor rather than at a bitwise fixed point.
        floor_stops = 0
        for k in np.unique(ran).tolist():
            T_k, _, _, still_at, floor_at = fixed_schedule_bfgs(
                sc, T0, replace(REFERENCE_OPTIONS, iterations=max(k, 1))
            )
            # The fixed schedule's first exit of each such member is at iterate k.
            assert np.all(iterations_to_exit(still_at, floor_at, k)[ran == k] == k)
            if k:
                want[ran == k] = T_k[ran == k]
            floor_stops += np.count_nonzero((ran == k) & (floor_at == k))
        assert floor_stops > 0
        T, conv = reference_solve_batch(specs)
        assert T.tobytes() == want.tobytes()
        assert conv.tolist() == _stationary(sc, T, baselines.REFERENCE_GRAD_TOL).tolist()
        if batch == "near-parallel":
            assert conv.tolist() == [False, True] * 4 + [True, True]
        else:
            assert conv.all()

    def test_one_embedding_per_pass(self, monkeypatch):
        # The start and each iteration run are embedded once; the converged
        # flags come from the kernel's g and L, without embedding T again.
        specs = gen_scenes(105, 5, Kinds.MIXED, 20)
        sc = BatchScene.from_specs(specs)
        ran = _bfgs_kernel(sc, np.stack([init_params(s) for s in specs]), REFERENCE_OPTIONS)[-1]
        counts, at_return = _count_embeddings(monkeypatch, "_bfgs_kernel")
        reference_solve_batch(specs)
        assert counts["embed_batch"] == ran.max() + 1
        assert at_return == [counts["embed_batch"]]

    def test_stop_ends_a_member_that_never_repeats_bitwise(self, monkeypatch):
        # A member that never reaches a bitwise fixed point runs the whole
        # schedule without the stop. Which generated member does so depends
        # on the step-size arithmetic, so the test finds a batch with one,
        # from the midpoint projections, among the reference shape's seeds.
        for seed in range(1, 13):
            specs = gen_scenes(seed, 5, Kinds.MIXED, 20)
            T0s = [
                params_from_points(s, np.broadcast_to(0.5 * (s.start + s.end), (s.n, 3)))
                for s in specs
            ]
            still_at = fixed_schedule_bfgs(BatchScene.from_specs(specs), T0s, REFERENCE_OPTIONS)[3]
            if np.any(still_at < 0):
                break
        assert np.any(still_at < 0)
        counts = _count_calls(monkeypatch, "checked_segments", "clamped_segments")
        _, conv = reference_solve_batch(specs, T0s)
        # One embedding at the start and one per iteration of the longest member.
        assert counts["checked_segments"] == 1
        assert counts["clamped_segments"] <= 50
        assert conv.all()

    def test_single_edge_matches_the_closed_form(self):
        # Evidence that does not come from the BFGS kernel: unfolding a path
        # about its edge makes it straight (Keller's law of edge diffraction).
        # With s and e the endpoints' positions along the edge and r_s and r_e
        # their distances from it, the point is at t* = s + (e - s) r_s / (r_s + r_e).
        specs = gen_scenes(5, 1, Kinds.DIFFRACTIONS, 1000)
        sc = BatchScene.from_specs(specs)
        T, conv = reference_solve_batch(specs)
        assert conv.all()
        u, anchor = sc.basis[:, 0, 0].T, sc.anchor[:, 0].T

        def along_and_off(p):
            t = np.einsum("bi,bi->b", p - anchor, u) / np.einsum("bi,bi->b", u, u)
            return t, np.linalg.norm(p - anchor - t[:, None] * u, axis=1)

        (s, r_s), (e, r_e) = along_and_off(sc.start.T), along_and_off(sc.end.T)
        t_star = s + (e - s) * r_s / (r_s + r_e)
        err = np.abs(T[:, 0, 0] - t_star) * np.linalg.norm(u, axis=1)
        assert err.mean() <= 1e-14 and err.max() <= 1e-12

    @pytest.mark.parametrize("kinds", list(Kinds))
    def test_restart_from_a_converged_solution_returns_it(self, kinds):
        for spec in gen_scenes(24, 2, kinds, 10):
            T1 = reference_solve(spec)
            assert reference_solve(spec, T1).tobytes() == T1.tobytes()

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


@pytest.mark.filterwarnings("error")
class TestZeroInteractions:
    """A path with no interactions: every solver returns the straight segment."""

    SPEC = PathSpec(start=[0.0, 0.0, 0.0], end=[1.0, 2.0, 2.0], surfaces=())
    ITERATIONS = 4

    @pytest.mark.parametrize("precision", list(Precision))
    def test_iterative_solvers(self, precision):
        T0 = np.zeros((0, 2))
        opts = SolveOptions(iterations=self.ITERATIONS, precision=precision, record_trace=True)
        traced = [bfgs_solve(self.SPEC, T0, opts)] + batch_solve([self.SPEC] * 2, [T0] * 2, opts)
        untraced = [solve(self.SPEC, T0, opts) for solve in (newton_solve, gradient_descent)]
        for rep in traced + untraced:
            assert rep.solution.shape == (0, 2)
            assert rep.final_length == 3.0
            assert rep.final_grad_norm == 0.0
        for rep in traced:
            assert rep.trace == [(it, 3.0, 0.0) for it in range(self.ITERATIONS)]

    def test_reference(self):
        T, conv = reference_solve_batch([self.SPEC] * 3)
        assert T.shape == (3, 0, 2)
        assert conv.tolist() == [True] * 3
        assert reference_solve(self.SPEC).shape == (0, 2)

    def test_image_method(self):
        assert image_method(self.SPEC).shape == (0, 3)
