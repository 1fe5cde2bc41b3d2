"""BFGS solver, fixed-point line search, and batch/scalar agreement."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermatpath import (
    DegenerateSegment,
    Kinds,
    PathSpec,
    Precision,
    ShapeMismatch,
    SolveOptions,
    ZeroDirection,
    batch_solve,
    bfgs_solve,
    gen_scenes,
    init_params,
    line_search_alpha,
    make_edge,
    make_plane,
    params_from_points,
    path_length,
    reference_solve_batch,
)
from fermatpath import batching
from fermatpath.batching import BatchScene, clamped_segments
from fermatpath import solver as solver_module
from fermatpath.solver import _bfgs_kernel, _fixed_point_alpha
from fermatpath.objective import gradient

from _oracles import (
    fixed_point_alpha,
    fixed_schedule_bfgs,
    golden_alpha,
    per_surface_init_params,
    perturb_params,
)


def _v_spec():
    """Single mirror below a symmetric start/end pair."""
    return PathSpec(
        start=[-1.0, 0.0, 0.0],
        end=[1.0, 0.0, 0.0],
        surfaces=(make_plane([0.0, 0.0, 0.0], [1, 0, 0], [0, 1, 0]),),
    )


class TestOptions:
    def test_validation(self):
        with pytest.raises(ValueError):
            SolveOptions(iterations=0)
        with pytest.raises(ValueError):
            SolveOptions(fixed_point_iters=0)

    def test_precision_dtypes(self):
        assert Precision.SINGLE.dtype == np.float32
        assert Precision.DOUBLE.dtype == np.float64


class TestInitParams:
    def test_plane_projection(self):
        spec = _v_spec()
        T0 = init_params(spec)
        # Midpoint of start/end is the origin, already on the plane.
        assert np.allclose(T0, 0.0, atol=1e-14)

    def test_edge_inert_coordinate_zero(self):
        spec = PathSpec(
            start=[0, -1, 0],
            end=[0, 1, 0],
            surfaces=(make_edge([1.0, 0.0, 0.0], [0.0, 0.0, 1.0]),),
        )
        T0 = init_params(spec)
        assert T0[0, 1] == 0.0

    def test_singular_gram_matrix_falls_back_to_the_projection(self):
        # The plane passes the degeneracy check, but A^T A rounds to singular.
        spec = PathSpec(
            start=[0.0, 0.0, 1.0],
            end=[1.0, 0.0, 1.0],
            surfaces=(
                make_plane([0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 2e-9, 0.0]),
                make_edge([2.0, 0.0, 0.0], [0.0, 1.0, 0.0]),
            ),
        )
        T0 = init_params(spec)
        assert np.all(np.isfinite(T0))
        assert T0[1, 1] == 0.0 and not np.signbit(T0[1, 1])
        mid = 0.5 * (spec.start + spec.end)
        assert T0.tobytes() == params_from_points(spec, np.broadcast_to(mid, (2, 3))).tobytes()

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 16, 64])
    @pytest.mark.parametrize("kinds", list(Kinds))
    def test_matches_per_surface_oracle_bitwise(self, kinds, n):
        for spec in gen_scenes(23, n, kinds, 40 if n < 64 else 8):
            assert init_params(spec).tobytes() == per_surface_init_params(spec).tobytes()


class TestLineSearch:
    def test_exact_symmetric_instance(self):
        # Interaction at (0, 2, 0); direction moves it straight toward the
        # collinear optimum at the origin. The denominators are symmetric,
        # so one fixed-point iteration lands exactly on alpha = 2.
        spec = _v_spec()
        T = np.array([[0.0, 2.0]])
        P = np.array([[0.0, -1.0]])
        assert line_search_alpha(spec, T, P, k=1) == pytest.approx(2.0, abs=1e-12)

    def test_matches_golden_section_near_optimum(self):
        spec = gen_scenes(8, 3, Kinds.MIXED, 1)[0]
        rep = bfgs_solve(spec, init_params(spec), SolveOptions(iterations=60, fixed_point_iters=64))
        rng = np.random.default_rng(1)
        T = rep.solution + rng.normal(size=(3, 2)) * 1e-3 * spec.active_mask
        g = gradient(spec, T)
        P = -g / np.linalg.norm(g)
        astar = golden_alpha(spec, T, P)
        a64 = line_search_alpha(spec, T, P, k=64)
        assert a64 == pytest.approx(astar, abs=1e-6 * (1 + abs(astar)))

    def test_zero_direction_raises(self):
        with pytest.raises(ZeroDirection):
            line_search_alpha(_v_spec(), np.array([[0.0, 2.0]]), np.zeros((1, 2)))

    def test_iterate_on_neighbouring_point_raises(self):
        # The mirror point (3, 0, 0) moves along -x toward the start at the
        # origin; with the end at (0, 4, 0) the first iterate is alpha = -3,
        # which puts it on the start, so the next trial segment collapses.
        spec = PathSpec(
            start=[0.0, 0.0, 0.0],
            end=[0.0, 4.0, 0.0],
            surfaces=(make_plane([3.0, 0.0, 0.0], [1, 0, 0], [0, 1, 0]),),
        )
        T, P = np.zeros((1, 2)), np.array([[1.0, 0.0]])
        assert line_search_alpha(spec, T, P, k=1) == pytest.approx(-3.0, abs=1e-12)
        with pytest.raises(DegenerateSegment):
            line_search_alpha(spec, T, P, k=2)

    def test_bad_k(self):
        with pytest.raises(ValueError):
            line_search_alpha(_v_spec(), np.zeros((1, 2)), np.ones((1, 2)), k=0)


def _step_size_batch(dtype):
    """An n=3 batch reaching every branch of the step-size loop.

    Members 0-5 are generated scenes: 0-1 move along random directions,
    2-3 along random directions scaled by 1e6, 4 along a zero direction,
    and 5 along one so short that it counts as zero but gives a finite
    step. Member 6 moves the points of a straight path across it, so
    the exact step is -0.0. Member 7's first iterate puts its first point
    on the start point, so the next trial segment collapses.
    """
    straight = PathSpec(
        start=[-2.0, 0.0, 0.0],
        end=[2.0, 0.0, 0.0],
        surfaces=tuple(make_plane([x, 0.0, 0.0], [0, 1, 0], [0, 0, 1]) for x in (-1.0, 0.0, 1.0)),
    )
    onto_start = PathSpec(
        start=[0.0, 0.0, 0.0],
        end=[0.0, 12.0, 0.0],
        surfaces=(
            make_plane([3.0, 0.0, 0.0], [1, 0, 0], [0, 1, 0]),
            make_plane([0.0, 4.0, 0.0], [1, 0, 0], [0, 0, 1]),
            make_plane([0.0, 8.0, 0.0], [1, 0, 0], [0, 0, 1]),
        ),
    )
    specs = gen_scenes(43, 3, Kinds.MIXED, 6) + [straight, onto_start]
    T = np.stack([init_params(s) for s in specs])
    T[6:] = 0.0  # points on their anchors
    rng = np.random.default_rng(43)
    P = rng.normal(size=T.shape) * np.stack([s.active_mask for s in specs])
    P[2:4] *= 1e6
    P[4] = 0.0
    P[5] *= 0.1 * np.sqrt(np.finfo(dtype).tiny)
    P[6] = [[1.0, 0.5], [-0.3, 1.0], [0.2, -1.0]]
    P[7] = [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]
    sc = BatchScene.from_specs(specs).astype(dtype)
    _, s, _ = clamped_segments(sc, T.astype(dtype))
    return sc, s, P.astype(dtype), sc.eps


class TestStepSizeLoop:
    """The step-size loop equals the plain loop of the oracle byte for byte."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("stop_when_still", [True, False])
    @pytest.mark.parametrize("k", [1, 7, 64])
    @pytest.mark.parametrize("precision", list(Precision))
    def test_matches_oracle_bytes(self, precision, k, stop_when_still):
        sc, s, P, eps = _step_size_batch(precision.dtype)
        got = _fixed_point_alpha(sc, s, P, k, eps, stop_when_still=stop_when_still)
        want = fixed_point_alpha(sc, s, P, k, eps)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype
            assert a.tobytes() == b.tobytes()
        alpha, zero, clamped = got
        assert np.array_equal(zero, np.arange(8) // 2 == 2)
        assert alpha[6] == 0.0 and np.signbit(alpha[6])
        assert clamped[7] == (k > 1)


class TestSolver:
    def test_v_path_solution(self):
        rep = bfgs_solve(_v_spec(), np.array([[0.5, 1.5]]))
        # Start, mirror point, end are collinear on the plane: length 2.
        assert rep.final_length == pytest.approx(2.0, abs=1e-9)
        assert rep.final_grad_norm < 1e-9

    def test_monotone_descent_with_converged_steps(self):
        for spec in gen_scenes(14, 3, Kinds.REFLECTIONS, 5):
            rep = bfgs_solve(
                spec,
                init_params(spec),
                SolveOptions(iterations=40, fixed_point_iters=64, record_trace=True),
            )
            lengths = [l for _, l, _ in rep.trace]
            assert all(b <= a + 1e-10 for a, b in zip(lengths, lengths[1:]))

    @pytest.mark.parametrize("extra", [{}, {"record_trace": True}], ids=["plain", "trace"])
    def test_one_embedding_per_iteration(self, monkeypatch, extra):
        spec = gen_scenes(3, 8, Kinds.MIXED, 1)[0]
        calls = []
        real = batching.embed_batch
        monkeypatch.setattr(batching, "embed_batch", lambda *a: calls.append(1) or real(*a))
        rep = bfgs_solve(spec, init_params(spec), SolveOptions(iterations=100, **extra))
        assert rep.iterations == 100
        # The start is checked and embedded once, each iteration embeds once,
        # and the report takes the final length.
        assert len(calls) == 103

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_batch_entry_points_reject_non_finite_guesses(self, bad):
        specs = gen_scenes(8, 2, Kinds.MIXED, 4)
        T0s = [init_params(s) for s in specs]
        T0s[2][1, 0] = bad
        for solve in (batch_solve, reference_solve_batch):
            with pytest.raises(ShapeMismatch, match="batch member 2 "):
                solve(specs, T0s)

    def test_batch_matches_scalar_bitwise(self):
        for kinds in (Kinds.REFLECTIONS, Kinds.DIFFRACTIONS, Kinds.MIXED):
            specs = gen_scenes(15, 3, kinds, 8)
            T0s = [init_params(s) for s in specs]
            opts = SolveOptions(iterations=50, fixed_point_iters=4)
            batch_reports = batch_solve(specs, T0s, opts)
            for spec, T0, br in zip(specs, T0s, batch_reports):
                sr = bfgs_solve(spec, T0, opts)
                assert np.array_equal(sr.solution, br.solution)

    def test_single_precision_tracks_double(self):
        specs = gen_scenes(16, 2, Kinds.REFLECTIONS, 5)
        for spec in specs:
            T0 = init_params(spec)
            d = bfgs_solve(spec, T0, SolveOptions(iterations=100, fixed_point_iters=64))
            s = bfgs_solve(
                spec,
                T0,
                SolveOptions(iterations=100, fixed_point_iters=64, precision=Precision.SINGLE),
            )
            assert np.all(np.isfinite(s.solution))
            assert np.linalg.norm(s.solution - d.solution) < 1e-2

    def test_inert_coordinates_never_move(self):
        specs = gen_scenes(17, 3, Kinds.DIFFRACTIONS, 5)
        rng = np.random.default_rng(0)
        for spec in specs:
            T0 = init_params(spec)
            T0[:, 1] = rng.normal(size=3)  # nonzero inert values
            rep = bfgs_solve(spec, T0, SolveOptions(iterations=50))
            assert np.array_equal(rep.solution[:, 1], T0[:, 1])

    def test_descent_from_random_starts(self):
        rng = np.random.default_rng(3)
        for spec in gen_scenes(18, 4, Kinds.MIXED, 5):
            T0 = perturb_params(spec, rng, 0.5)
            rep = bfgs_solve(spec, T0, SolveOptions(iterations=100, fixed_point_iters=64))
            assert rep.final_length <= path_length(spec, T0) + 1e-12
            assert rep.final_grad_norm < 1e-6


BATCH = 5


def _report_bytes(rep):
    return (
        rep.solution.tobytes(),
        np.float64(rep.final_length).tobytes(),
        np.float64(rep.final_grad_norm).tobytes(),
    )


class TestBatchProperties:
    @given(
        seed=st.integers(0, 2**16),
        n=st.integers(1, 5),
        kinds=st.sampled_from(list(Kinds)),
        fp=st.sampled_from([1, 8]),
        order=st.permutations(range(BATCH)),
    )
    @settings(max_examples=12, deadline=None)
    def test_permuting_members_permutes_reports(self, seed, n, kinds, fp, order):
        specs = gen_scenes(seed, n, kinds, BATCH)
        T0s = [init_params(s) for s in specs]
        opts = SolveOptions(iterations=60, fixed_point_iters=fp)
        reports = batch_solve(specs, T0s, opts)
        permuted = batch_solve([specs[i] for i in order], [T0s[i] for i in order], opts)
        assert [_report_bytes(r) for r in permuted] == [_report_bytes(reports[i]) for i in order]
        # A batch of one is the single-path solve, and equals its member above.
        b = order[0]
        (single,) = batch_solve([specs[b]], [T0s[b]], opts)
        assert _report_bytes(single) == _report_bytes(reports[b])
        assert _report_bytes(bfgs_solve(specs[b], T0s[b], opts)) == _report_bytes(reports[b])


def _half_warm_batch(kinds, n, B=12):
    """Half the members start from init_params, half at a converged solution.

    The warm half reaches an exact fixed point within a few iterations and
    retires; most of the cold half keeps moving for the whole schedule.
    """
    specs = gen_scenes(41, n, kinds, B)
    T0s = [init_params(s) for s in specs]
    warm = batch_solve(specs[B // 2 :], T0s[B // 2 :], SolveOptions(iterations=200, fixed_point_iters=64))
    T0s[B // 2 :] = [r.solution for r in warm]
    return BatchScene.from_specs(specs), np.stack(T0s)


def _assert_kernel_matches_fixed_schedule(sc, T0, opts):
    T, g, traces = _bfgs_kernel(sc, T0, opts)
    T_ref, g_ref, traces_ref, still_at = fixed_schedule_bfgs(sc, T0, opts)
    bits = f"u{T.itemsize}"
    assert np.array_equal(T.view(bits), T_ref.view(bits))
    assert np.array_equal(g.view(bits), g_ref.view(bits))
    assert traces == traces_ref
    return still_at


class TestFixedPointExits:
    """Retiring members and ending the step-size loop change no result bit."""

    @pytest.mark.parametrize("record_trace", [False, True])
    @pytest.mark.parametrize("precision", list(Precision))
    @pytest.mark.parametrize("fp", [1, 64])
    @pytest.mark.parametrize("n", [1, 3, 8])
    @pytest.mark.parametrize("kinds", list(Kinds))
    def test_kernel_matches_fixed_schedule(self, kinds, n, fp, precision, record_trace):
        sc, T0 = _half_warm_batch(kinds, n)
        opts = SolveOptions(
            iterations=40, fixed_point_iters=fp, precision=precision, record_trace=record_trace
        )
        still_at = _assert_kernel_matches_fixed_schedule(sc, T0, opts)
        assert np.any(still_at >= 0)  # the retirement path ran

    def test_retiring_and_running_members_in_one_batch(self):
        sc, T0 = _half_warm_batch(Kinds.MIXED, 8)
        opts = SolveOptions(iterations=40, fixed_point_iters=1, record_trace=True)
        still_at = _assert_kernel_matches_fixed_schedule(sc, T0, opts)
        assert np.any(still_at >= 0) and np.any(still_at < 0)

    def test_all_members_retire_before_the_schedule_ends(self):
        sc, T0 = _half_warm_batch(Kinds.REFLECTIONS, 2)
        opts = SolveOptions(iterations=300, fixed_point_iters=64, record_trace=True)
        still_at = _assert_kernel_matches_fixed_schedule(sc, T0, opts)
        assert np.all((still_at >= 0) & (still_at < 299))

    def test_single_path_solve_computes_the_whole_schedule(self, monkeypatch):
        _, T0 = _half_warm_batch(Kinds.REFLECTIONS, 2)
        spec = gen_scenes(41, 2, Kinds.REFLECTIONS, 12)[-1]  # a warm member
        sc = BatchScene.from_specs([spec])
        opts = SolveOptions(iterations=300, fixed_point_iters=64)
        calls = []
        real = solver_module.clamped_segments
        monkeypatch.setattr(
            solver_module, "clamped_segments", lambda *a: calls.append(1) or real(*a)
        )
        T, _, _ = _bfgs_kernel(sc, T0[-1:], opts)
        assert len(calls) < opts.iterations  # the batch kernel retires it
        calls.clear()
        rep = bfgs_solve(spec, T0[-1], opts)
        assert len(calls) == opts.iterations + 1  # the start plus one per update
        assert np.array_equal(rep.solution.view("u8"), T[0].view("u8"))
        assert rep.iterations == opts.iterations
