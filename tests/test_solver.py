"""BFGS solver, fixed-point line search, and batch/scalar agreement."""

import tracemalloc

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
    init_params_batch,
    line_search_alpha,
    make_edge,
    make_plane,
    params_from_points,
    path_length,
    reference_solve_batch,
)
from fermatpath import batching
from fermatpath.batching import (
    BatchScene,
    clamped_segments,
    embed_batch,
    path_length_batch,
    segment_norms,
    stationary_from_segments,
    unit_directions,
)
from fermatpath.implicit_diff import STATIONARITY_TOL
from fermatpath import solver as solver_module
from fermatpath.solver import _bfgs_kernel, _fixed_point_alpha, _inverse_hessian_update
from fermatpath.objective import embed, gradient

from _oracles import (
    NON_REAL_CASTS,
    bisection_alpha,
    direction_segments,
    dot3,
    fixed_point_alpha,
    fixed_point_map_alpha,
    fixed_schedule_bfgs,
    inverse_hessian_update,
    iterations_to_exit,
    per_surface_params_from_points,
    perturb_params,
    rows,
    step_slope,
    stopped_schedule_bfgs,
    three_term_inverse_hessian_update,
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
        with pytest.raises(ValueError):
            SolveOptions(iterations=2.5)
        with pytest.raises(ValueError):
            SolveOptions(fixed_point_iters=2.0)
        # bool is an Integral, but True is no count.
        with pytest.raises(ValueError):
            SolveOptions(iterations=True)
        with pytest.raises(ValueError):
            SolveOptions(fixed_point_iters=True)
        with pytest.raises(ValueError):
            SolveOptions(precision="bogus")

    def test_precision_from_its_value(self):
        assert SolveOptions(precision="single").precision is Precision.SINGLE
        spec = _v_spec()
        report = bfgs_solve(spec, init_params(spec), SolveOptions(precision="single"))
        expected = bfgs_solve(spec, init_params(spec), SolveOptions(precision=Precision.SINGLE))
        assert report.solution.tobytes() == expected.solution.tobytes()

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

    def test_plane_with_a_singular_gram_matrix_gets_the_projection(self):
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
    def test_is_the_midpoint_projection_bitwise(self, kinds, n):
        for spec in gen_scenes(23, n, kinds, 40 if n < 64 else 8):
            mid = 0.5 * (spec.start + spec.end)
            want = params_from_points(spec, np.broadcast_to(mid, (n, 3)))
            assert init_params(spec).tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [1, 5, 64])
    @pytest.mark.parametrize("B", [1, 20, 1000])
    def test_batch_form_equals_each_spec_bitwise(self, B, n):
        specs = gen_scenes(31, n, Kinds.MIXED, B)
        want = np.stack([init_params(s) for s in specs])
        assert init_params_batch(BatchScene.from_specs(specs)).tobytes() == want.tobytes()

    @pytest.mark.parametrize("e", [3e-8, 1e-7, 1e-6])
    def test_accurate_on_a_nearly_parallel_plane_basis(self, e):
        # The basis is ill-conditioned; the guess must still be the
        # projection that one `lstsq` per surface finds.
        plane = make_plane([0.0, 0.0, 0.0], [1, 0, 0], [1, e, 0])
        spec = PathSpec(start=[0.3, 0.7, 1.0], end=[1.0, 0.2, 1.5], surfaces=(plane,))
        mid = 0.5 * (spec.start + spec.end)
        want = embed(spec, per_surface_params_from_points(spec, mid[None]))
        assert np.max(np.abs(embed(spec, init_params(spec)) - want)) <= 1e-8


class TestLineSearch:
    def test_exact_symmetric_instance(self):
        # Interaction at (0, 2, 0); direction moves it straight toward the
        # collinear optimum at the origin. The denominators are symmetric,
        # so one fixed-point iteration lands exactly on alpha = 2.
        spec = _v_spec()
        T = np.array([[0.0, 2.0]])
        P = np.array([[0.0, -1.0]])
        assert line_search_alpha(spec, T, P, k=1) == pytest.approx(2.0, abs=1e-12)

    def test_matches_the_exact_step_near_optimum(self):
        spec = gen_scenes(8, 3, Kinds.MIXED, 1)[0]
        rep = bfgs_solve(spec, init_params(spec), SolveOptions(iterations=60, fixed_point_iters=64))
        rng = np.random.default_rng(1)
        T = rep.solution + rng.normal(size=(3, 2)) * 1e-3 * spec.active_mask
        g = gradient(spec, T)
        P = -g / np.linalg.norm(g)
        astar = bisection_alpha(spec, T, P)
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
        for k in (0, 1.5, True):
            with pytest.raises(ValueError):
                line_search_alpha(_v_spec(), np.zeros((1, 2)), np.ones((1, 2)), k=k)

    @pytest.mark.parametrize(
        "P, message",
        [(np.zeros((2, 2)), r"direction must have shape \(1, 2\)"),
         (np.full((1, 2), np.nan), "direction must be finite")],
        ids=["shape", "finiteness"],
    )
    def test_bad_direction_is_named(self, P, message):
        with pytest.raises(ShapeMismatch, match=message):
            line_search_alpha(_v_spec(), np.zeros((1, 2)), P)


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
    _, s, norms = clamped_segments(sc, T.astype(dtype).T)
    return sc, s, np.ascontiguousarray(norms.T), np.ascontiguousarray(P.astype(dtype).T), sc.eps


class TestStepSizeLoop:
    """The step-size loop equals the plain loop of the oracle byte for byte."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("k", [1, 2, 7, 64])
    @pytest.mark.parametrize("precision", list(Precision))
    def test_matches_oracle_bytes(self, precision, k):
        sc, s, den, P, eps = _step_size_batch(precision.dtype)
        got = _fixed_point_alpha(sc, s, den, P, k)
        want = fixed_point_alpha(sc, s, P, k, eps)[:3]
        for a, b in zip(got, want, strict=True):
            assert a.dtype == b.dtype
            assert a.tobytes() == b.tobytes()
        alpha, zero, clamped = got
        assert np.array_equal(zero, np.arange(8) // 2 == 2)
        assert alpha[6] == 0.0 and np.signbit(alpha[6])
        assert clamped[7] == (k > 1)

    @pytest.mark.parametrize(
        "precision, k",
        [(Precision.DOUBLE, 1)] + [(Precision.SINGLE, k) for k in (1, 2, 7, 64)],
    )
    def test_is_the_fixed_point_map_where_newton_does_not_run(self, precision, k):
        # fp=1 and single precision keep the paper's loop, bitwise.
        sc, s, den, P, eps = _step_size_batch(precision.dtype)
        got = _fixed_point_alpha(sc, s, den, P, k)
        want = fixed_point_map_alpha(sc, s, P, k, eps)
        for a, b in zip(got, want, strict=True):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("precision", list(Precision))
    def test_direction_segments_match_oracle_bytes(self, precision):
        # The one segment change along a direction, shared by the step size
        # and the scene VJP.
        sc, _, _, P, _ = _step_size_batch(precision.dtype)
        got = batching.direction_segments(sc, P)
        want = direction_segments(sc, P)
        assert got.dtype == want.dtype == precision.dtype
        assert got.tobytes() == want.tobytes()

    def test_each_member_stops_on_its_own(self):
        # Members 0-3 converge in a few evaluations; the zero directions
        # (4-5) stop after the first, and so do members 6-7 after the second:
        # 6 sits at its root, and 7's trial segment collapses onto the floor.
        sc, s, den, P, eps = _step_size_batch(np.float64)
        evaluations = fixed_point_alpha(sc, s, P, 64, eps)[3]
        assert evaluations.tolist() == [6, 7, 6, 6, 1, 1, 2, 2]
        batch = _fixed_point_alpha(sc, s, den, P, 64)
        for b in range(8):
            one = _fixed_point_alpha(
                sc.take([b]), s[..., b : b + 1].copy(), den[b : b + 1], P[..., b : b + 1].copy(), 64
            )
            assert [a.tobytes() for a in one] == [a[b : b + 1].tobytes() for a in batch]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @given(
        seed=st.integers(0, 2**16),
        B=st.integers(1, 64),
        n=st.integers(1, 64),
        iters=st.sampled_from([1, 2, 7]),
        precision=st.sampled_from(list(Precision)),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_a_member_equals_its_batch_of_one(self, seed, B, n, iters, precision, data):
        # The contractions and reductions run on stacked operands; neither may
        # round a member differently at another batch size.
        dtype = precision.dtype
        specs = gen_scenes(seed, n, Kinds.MIXED, B)
        sc = BatchScene.from_specs(specs)
        T = init_params_batch(sc)
        rng = np.random.default_rng(seed)
        scale = 10.0 ** rng.uniform(-2, 2, size=(B, 1, 1))
        P = rng.normal(size=T.shape) * np.stack([s.active_mask for s in specs]) * scale
        sc = sc.astype(dtype)
        _, s, norms = clamped_segments(sc, T.astype(dtype).T)
        den, P = np.ascontiguousarray(norms.T), np.ascontiguousarray(P.astype(dtype).T)
        b = data.draw(st.integers(0, B - 1), label="member")
        batch = _fixed_point_alpha(sc, s, den, P, iters)
        one = _fixed_point_alpha(
            sc.take([b]), s[..., b : b + 1].copy(), den[b : b + 1].copy(), P[..., b : b + 1].copy(),
            iters,
        )
        assert [a.tobytes() for a in one] == [a[b : b + 1].tobytes() for a in batch]


EPS64 = np.finfo(np.float64).eps


def _record_step_sizes(monkeypatch):
    """Record (sc, s, den, P, iters, (alpha, zero, clamped)) of each of the kernel's step sizes."""
    calls = []
    real = solver_module._fixed_point_alpha

    def recording(sc, s, den, P, iters):
        out = real(sc, s, den, P, iters)
        calls.append((sc, s, den, P, iters, out))
        return out

    monkeypatch.setattr(solver_module, "_fixed_point_alpha", recording)
    return calls


class TestStepSizeAccuracy:
    """Newton after the first step is never less accurate than the fixed-point map at its cap.

    Every recorded call also equals the oracle `fixed_point_alpha` bitwise, at
    the workloads' shapes: B=1000 at n=5, and B=1 at n=8 to 64; and at the
    kernel-phase grid's B=100 at n=16 and 64.
    """

    def _check(self, calls):
        """Compare every recorded call with the oracle and the fixed-point map.

        Each call's (alpha, zero, clamped) equals the oracle's bytes, and the
        norms it was given are the clamped norms of its segments. Returns
        (members, capped calls).
        """
        members = capped = 0
        for sc, s, den, P, iters, out in calls:
            clamped = np.maximum(np.sqrt(dot3(rows(s), rows(s))), sc.eps[:, None])
            assert den.tobytes() == clamped.tobytes()
            *plain, evaluations = fixed_point_alpha(sc, s, P, iters, sc.eps)
            assert [a.tobytes() for a in out] == [b.tobytes() for b in plain]
            alpha, zero, _ = out
            fixed = fixed_point_map_alpha(sc, s, P, iters, sc.eps)[0]
            got, scale = step_slope(sc, s, P, alpha, sc.eps)
            want = step_slope(sc, s, P, fixed, sc.eps)[0]
            # |phi'| / sum_k |d_k| <= max(the fixed point's, 8 eps), unscaled.
            assert np.all((np.abs(got) <= np.maximum(np.abs(want), 8 * EPS64 * scale))[~zero])
            members += int(np.count_nonzero(~zero))
            capped += bool(np.any(evaluations == iters))
        return members, capped

    @pytest.mark.parametrize("kinds", list(Kinds))
    def test_batch_of_a_thousand(self, monkeypatch, kinds):
        calls = _record_step_sizes(monkeypatch)
        specs = gen_scenes(5, 5, kinds, 1000)
        batch_solve(specs, init_params_batch(BatchScene.from_specs(specs)),
                    SolveOptions(iterations=30, fixed_point_iters=64))
        members, capped = self._check(calls)
        print(f"step sizes at B=1000 ({kinds.value}): {len(calls)} calls, {members} members, "
              f"{capped} calls at the cap")
        assert members > 10000 and capped == 0

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_deep_file_scenes(self, monkeypatch, seed):
        # The solves `fermatpath solve` runs on a deep scene file.
        calls = _record_step_sizes(monkeypatch)
        for n in (8, 16, 32, 64):
            spec = gen_scenes(seed, n, Kinds.MIXED, 1)[0]
            bfgs_solve(spec, init_params(spec), SolveOptions(iterations=100, fixed_point_iters=64))
        members, capped = self._check(calls)
        assert members == len(calls) > 100 and capped == 0

    @pytest.mark.parametrize("n", [16, 64])
    def test_kernel_phase_grid_cells(self, monkeypatch, n):
        # The MIXED seed-5 cells of `scripts/kernel_phases.py` at B=100, fp=64.
        calls = _record_step_sizes(monkeypatch)
        specs = gen_scenes(5, n, Kinds.MIXED, 100)
        batch_solve(specs, init_params_batch(BatchScene.from_specs(specs)),
                    SolveOptions(iterations=20, fixed_point_iters=64))
        members, capped = self._check(calls)
        assert members > 1000 and capped == 0

    def test_a_trial_segment_near_a_kink(self):
        # The first step of DIFFRACTIONS seed 5, member 520: at the root one
        # trial segment is 0.038 long, so phi'' changes fast across the
        # bracket. A Newton loop that falls back to the fixed-point image
        # before the bracket's midpoint stalls there at a normalised |phi'|
        # of 0.43 after 64 evaluations; bracketed Newton does not.
        spec = gen_scenes(5, 5, Kinds.DIFFRACTIONS, 1000)[520]
        sc = spec.batch
        T = init_params(spec)
        _, s, norms = clamped_segments(sc, T.T[..., None])
        P = -gradient(spec, T)  # the first BFGS direction, H = I
        alpha, _, clamped, evaluations = fixed_point_alpha(sc, s, P.T[..., None], 64, sc.eps)
        got = _fixed_point_alpha(sc, s, norms.T.copy(), P.T[..., None].copy(), 64)[0]
        assert got.tobytes() == alpha.tobytes()
        exact = bisection_alpha(spec, T, P)
        seg = s + alpha * direction_segments(sc, P.T[..., None])
        assert 0.03 < np.linalg.norm(seg, axis=0).min() < 0.04 and not clamped[0]
        assert abs(alpha[0] - exact) <= 4 * EPS64 * exact
        slope, scale = step_slope(sc, s, P.T[..., None], alpha, sc.eps)
        assert abs(slope[0]) <= 8 * EPS64 * scale[0]
        assert evaluations[0] <= 12


def _spd_update_inputs(rng, B, n, dtype):
    """(H, step, y) with SPD H and positive curvature, y = M step for SPD M."""
    m = 2 * n

    def spd():
        A = rng.normal(size=(B, m, m))
        S = A @ np.swapaxes(A, 1, 2) / m + np.eye(m)
        return (S + np.swapaxes(S, 1, 2)) / 2  # bitwise symmetric

    step = rng.normal(size=(B, m))
    y = np.einsum("bij,bj->bi", spd(), step)
    return spd().astype(dtype), step.astype(dtype), y.astype(dtype)


class TestInverseHessianUpdate:
    """The rank-two update, its gate and its finiteness rule."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("precision", list(Precision))
    def test_matches_entrywise_rule_bytes(self, precision):
        dtype = precision.dtype
        info = np.finfo(dtype)
        H = np.broadcast_to(np.eye(4, dtype=dtype), (4, 4, 4)).copy()
        step = np.zeros((4, 4), dtype=dtype)
        y = np.zeros((4, 4), dtype=dtype)
        # 0: finite entries whose sum overflows; the update stands.
        H[0, 0, 0] = H[0, 1, 1] = dtype(0.6) * info.max
        step[0, 2], y[0, 2:] = 0.5, (1.0, 0.25)
        # 1: near-zero curvature; rho t, about rho^2, overflows, so H stays.
        step[1, 0], y[1, 0] = dtype(0.01) * np.sqrt(info.tiny), 1.0
        # 2: negative curvature fails the gate.
        step[2, 0], y[2, 0] = 1.0, -1.0
        # 3: an ordinary update.
        rng = np.random.default_rng(3)
        step[3] = rng.normal(size=4)
        y[3] = step[3] + 0.1 * rng.normal(size=4)

        got = _inverse_hessian_update(H, step, y, np.empty_like(H))
        want, updated = inverse_hessian_update(H, step, y)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
        with np.errstate(over="ignore"):
            assert np.isfinite(updated[0]).all() and not np.isfinite(updated[0].sum())
        assert not np.isfinite(updated[1]).all()
        assert [np.array_equal(got[b], H[b]) for b in range(4)] == [False, True, True, False]

    @pytest.mark.parametrize("n", [1, 5, 64])
    @pytest.mark.parametrize("precision", list(Precision))
    def test_equals_the_three_term_form_to_rounding(self, precision, n):
        # The rank-two product and the three-term form round differently;
        # on well-scaled states they agree to a few ulps of each member's
        # largest entry (at most 4.2 ulps seen, at n=1).
        dtype = precision.dtype
        H, step, y = _spd_update_inputs(np.random.default_rng(n), 50, n, dtype)
        got = _inverse_hessian_update(H, step, y, np.empty_like(H))
        want = three_term_inverse_hessian_update(H, step, y)
        scale = np.max(np.abs(want), axis=(1, 2), keepdims=True)
        assert got.dtype == want.dtype
        assert np.all(np.abs(got - want) <= 32 * np.finfo(dtype).eps * scale)
        assert not np.any([np.array_equal(got[b], H[b]) for b in range(50)])

    @given(
        seed=st.integers(0, 2**16),
        B=st.integers(1, 64),
        n=st.integers(1, 64),
        precision=st.sampled_from(list(Precision)),
        offsets=st.tuples(st.integers(0, 7), st.integers(0, 7)),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_a_member_equals_its_batch_of_one(self, seed, B, n, precision, offsets, data):
        # The product runs one BLAS call per member; neither the batch size
        # nor where `out` sits in a larger buffer may change a member's bits.
        H, step, y = _spd_update_inputs(np.random.default_rng(seed), B, n, precision.dtype)
        b = data.draw(st.integers(0, B - 1), label="member")
        batch_buf = np.empty((B + offsets[0],) + H.shape[1:], dtype=H.dtype)
        one_buf = np.empty((1 + offsets[1],) + H.shape[1:], dtype=H.dtype)
        got = _inverse_hessian_update(H, step, y, batch_buf[offsets[0] :])
        one = _inverse_hessian_update(
            H[b : b + 1].copy(), step[b : b + 1].copy(), y[b : b + 1].copy(), one_buf[offsets[1] :]
        )
        assert one.tobytes() == got[b : b + 1].tobytes()
        # A symmetric H stays bitwise symmetric.
        assert np.array_equal(got, np.swapaxes(got, 1, 2))

    @pytest.mark.parametrize("precision", list(Precision))
    def test_kernel_keeps_every_inverse_hessian_symmetric(self, monkeypatch, precision):
        # Near the noise floor rho = 1 / (s.y) is huge, and an update whose
        # (i, j) and (j, i) entries round differently grows an antisymmetric
        # part as large as H itself in single precision.
        real = solver_module._inverse_hessian_update
        asymmetric = []

        def update(H, step, y, out):
            out = real(H, step, y, out)
            asymmetric.append(not np.array_equal(out, np.swapaxes(out, 1, 2)))
            return out

        monkeypatch.setattr(solver_module, "_inverse_hessian_update", update)
        specs = gen_scenes(1, 5, Kinds.MIXED, 50)
        sc = BatchScene.from_specs(specs)
        T0 = np.stack([init_params(s) for s in specs])
        _bfgs_kernel(sc, T0, SolveOptions(iterations=300, fixed_point_iters=1, precision=precision))
        assert len(asymmetric) > 100 and not any(asymmetric)


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
        assert rep.iterations < 100
        # The start is embedded once and each iteration run once; the report
        # takes the final length from the kernel, not a further embedding.
        assert len(calls) == rep.iterations + 1

    def test_kernel_holds_two_inverse_hessian_arrays(self):
        # H and the spare buffer the update and the compaction write into.
        B, n, m = 100, 64, 128
        specs = gen_scenes(5, n, Kinds.MIXED, B)
        sc = BatchScene.from_specs(specs)
        T0 = np.stack([init_params(s) for s in specs])
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            ran = _bfgs_kernel(sc, T0, SolveOptions(iterations=5))[-1]
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert ran.max() == 5
        assert peak < 2.5 * B * m * m * 8

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_batch_entry_points_reject_non_finite_guesses(self, bad):
        specs = gen_scenes(8, 2, Kinds.MIXED, 4)
        T0s = [init_params(s) for s in specs]
        T0s[2][1, 0] = bad
        for solve in (batch_solve, reference_solve_batch):
            with pytest.raises(ShapeMismatch, match="batch member 2 "):
                solve(specs, T0s)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("cast", NON_REAL_CASTS.values(), ids=NON_REAL_CASTS.keys())
    def test_batch_entry_points_reject_non_real_guesses(self, cast):
        specs = gen_scenes(8, 2, Kinds.MIXED, 4)
        T0s = [cast(init_params(s)) for s in specs]
        for solve in (batch_solve, reference_solve_batch):
            with pytest.raises(ShapeMismatch, match="real"):
                solve(specs, T0s)

    def test_batch_entry_points_reject_one_bool_guess(self):
        # np.array folds one bool array among float arrays into floats.
        specs = gen_scenes(8, 2, Kinds.MIXED, 4)
        T0s = [init_params(s) for s in specs]
        T0s[2] = T0s[2] != 0.0
        for solve in (batch_solve, reference_solve_batch):
            with pytest.raises(ShapeMismatch, match="params must be real"):
                solve(specs, T0s)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("cast", NON_REAL_CASTS.values(), ids=NON_REAL_CASTS.keys())
    def test_scalar_entry_point_rejects_non_real_guesses(self, cast):
        spec = gen_scenes(8, 2, Kinds.MIXED, 1)[0]
        with pytest.raises(ShapeMismatch, match="params must be real"):
            bfgs_solve(spec, cast(np.ones((2, 2))))

    @pytest.mark.parametrize(
        "bad",
        [lambda T0s: T0s[:2] + [T0s[2][:1]] + T0s[3:], lambda T0s: []],
        ids=["one-member-misshapen", "empty"],
    )
    def test_batch_entry_points_reject_malformed_guesses(self, bad):
        specs = gen_scenes(8, 2, Kinds.MIXED, 4)
        T0s = bad([init_params(s) for s in specs])
        for solve in (batch_solve, reference_solve_batch):
            with pytest.raises(ShapeMismatch):
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
        rep.iterations,
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
    """The kernel equals the fixed schedule run to each member's exit; returns the iterations."""
    T, g, L, traces, ran = _bfgs_kernel(sc, T0, opts)
    T_ref, g_ref, traces_ref, ran_ref, _, _ = stopped_schedule_bfgs(sc, T0, opts)
    bits = f"u{T.itemsize}"
    assert np.array_equal(T.view(bits), T_ref.view(bits))
    assert np.array_equal(g.view(bits), g_ref.view(bits))
    # L is each result's length, summed from its clamped segment norms.
    norms = clamped_segments(sc.astype(T.dtype), T_ref.T)[2]
    L_ref = np.einsum("bk->b", np.ascontiguousarray(norms.T))
    assert np.array_equal(L.view(bits), L_ref.view(bits))
    assert traces == traces_ref
    # Each member stops where the floor test first passes, or after its first still step.
    assert np.array_equal(ran, ran_ref)
    return ran


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
        ran = _assert_kernel_matches_fixed_schedule(sc, T0, opts)
        assert np.any(ran < opts.iterations)  # the retirement path ran

    def test_retiring_and_running_members_in_one_batch(self):
        sc, T0 = _half_warm_batch(Kinds.MIXED, 8)
        opts = SolveOptions(iterations=40, fixed_point_iters=1, record_trace=True)
        ran = _assert_kernel_matches_fixed_schedule(sc, T0, opts)
        assert np.any(ran < opts.iterations) and np.any(ran == opts.iterations)

    def test_all_members_retire_before_the_schedule_ends(self):
        sc, T0 = _half_warm_batch(Kinds.REFLECTIONS, 2)
        opts = SolveOptions(iterations=300, fixed_point_iters=64, record_trace=True)
        ran = _assert_kernel_matches_fixed_schedule(sc, T0, opts)
        assert np.all(ran < opts.iterations)

    def test_a_member_already_below_the_stop_takes_no_step(self):
        # A mirror through the origin spanned by x and z, under a symmetric
        # start/end pair: g is exactly 0 at the projected midpoint.
        mirror = PathSpec(
            start=[-1.0, 1.0, 0.0],
            end=[1.0, 1.0, 0.0],
            surfaces=(make_plane([0.0, 0.0, 0.0], [1, 0, 0], [0, 0, 1]),),
        )
        specs = [mirror, gen_scenes(41, 1, Kinds.REFLECTIONS, 1)[0]]
        sc = BatchScene.from_specs(specs)
        T0 = np.stack([init_params(s) for s in specs])
        opts = SolveOptions(iterations=5, fixed_point_iters=1, record_trace=True)
        T, g, _, traces, ran = _bfgs_kernel(sc, T0, opts)
        T_ref, g_ref, traces_ref, _, floor_at = fixed_schedule_bfgs(sc, T0, opts)
        assert ran.tolist() == [0, opts.iterations] and floor_at.tolist() == [0, -1]
        assert T[0].tobytes() == T0[0].tobytes() and not g[0].any()
        assert traces[0] == [(it, path_length(mirror, T0[0]), 0.0) for it in range(5)]
        # The other member runs the whole schedule, as if alone.
        assert T[1].tobytes() == T_ref[1].tobytes() and g[1].tobytes() == g_ref[1].tobytes()
        assert traces[1] == traces_ref[1]

    def test_single_path_solve_retires_the_warm_member(self, monkeypatch):
        _, T0 = _half_warm_batch(Kinds.REFLECTIONS, 2)
        spec = gen_scenes(41, 2, Kinds.REFLECTIONS, 12)[-1]  # a warm member
        sc = BatchScene.from_specs([spec])
        opts = SolveOptions(iterations=300, fixed_point_iters=64)
        T, _, _, ran, _, _ = stopped_schedule_bfgs(sc, T0[-1:], opts)
        calls = []
        for name in ("checked_segments", "clamped_segments"):
            real = getattr(solver_module, name)
            monkeypatch.setattr(
                solver_module, name, lambda *a, _real=real: calls.append(1) or _real(*a)
            )
        rep = bfgs_solve(spec, T0[-1], opts)
        # The start plus one per update run, short of the whole schedule.
        assert len(calls) == rep.iterations + 1 < opts.iterations + 1
        assert rep.iterations == ran[0]
        assert np.array_equal(rep.solution.view("u8"), T[0].view("u8"))

    @pytest.mark.parametrize("n", [8, 16, 32, 64])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_single_path_solve_matches_fixed_schedule_at_depth(self, seed, n):
        # The shapes `fermatpath solve` runs on a deep scene file.
        spec = gen_scenes(seed, n, Kinds.MIXED, 1)[0]
        sc = BatchScene.from_specs([spec])
        T0 = init_params(spec)
        opts = SolveOptions(iterations=100, fixed_point_iters=64, record_trace=True)
        T_ref, g_ref, (trace_ref,), ran, _, _ = stopped_schedule_bfgs(sc, T0[None], opts)
        length_ref = path_length_batch(sc, T_ref.T)[0]
        gnorm_ref = np.linalg.norm(g_ref.reshape(-1))
        for record_trace in (False, True):
            rep = bfgs_solve(spec, T0, SolveOptions(
                iterations=100, fixed_point_iters=64, record_trace=record_trace
            ))
            assert np.array_equal(rep.solution.view("u8"), T_ref[0].view("u8"))
            assert np.float64(rep.final_length).view("u8") == length_ref.view("u8")
            assert np.float64(rep.final_grad_norm).view("u8") == gnorm_ref.view("u8")
            assert rep.iterations == ran[0]
            if record_trace:
                got = np.array(rep.trace).view("u8")
                assert np.array_equal(got, np.array(trace_ref).view("u8"))
            else:
                assert rep.trace is None


class TestBatchOfOne:
    """Each member of a batch-last kernel run equals its own batch of one, bitwise.

    Every sum over a member's segments or interactions runs on a contiguous
    (B, k) copy, so the reduction is the same at every batch size; a sum
    over the coordinate axes adds its terms in order at every batch size.
    """

    @pytest.mark.parametrize("precision", list(Precision))
    @pytest.mark.parametrize("fp", [1, 2, 64])
    @pytest.mark.parametrize("n", [1, 2, 5, 8, 16, 64])
    @pytest.mark.parametrize("kinds", list(Kinds))
    def test_kernel(self, kinds, n, fp, precision):
        specs = gen_scenes(47, n, kinds, 5)
        sc = BatchScene.from_specs(specs)
        T0 = np.stack([init_params(s) for s in specs])
        opts = SolveOptions(iterations=40, fixed_point_iters=fp, precision=precision)
        T, g, L, _, ran = _bfgs_kernel(sc, T0, opts)
        assert T.flags.c_contiguous and T.shape == T0.shape == g.shape
        for b in range(len(specs)):
            Tb, gb, Lb, _, ran_b = _bfgs_kernel(sc.take([b]), T0[b : b + 1], opts)
            assert Tb.tobytes() == T[b : b + 1].tobytes()
            assert gb.tobytes() == g[b : b + 1].tobytes()
            assert Lb.tobytes() == L[b : b + 1].tobytes()
            assert ran_b.tolist() == [ran[b]]


def _failed_stationarity(sc, T):
    """(B,) members whose |g| is not below STATIONARITY_TOL (1 + L) at T."""
    s, norms = segment_norms(embed_batch(sc, T.T))
    _, q = unit_directions(s, np.maximum(norms, sc.eps))
    return ~stationary_from_segments(sc, q, norms, STATIONARITY_TOL)


class TestNoiseFloorStop:
    """The noise-floor exit moves no verdict and no single-precision bit."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_keeps_every_stationarity_verdict(self, seed):
        specs = gen_scenes(seed, 5, Kinds.MIXED, 200)
        sc = BatchScene.from_specs(specs)
        T0 = init_params_batch(sc)
        opts = SolveOptions(fixed_point_iters=1)
        T = np.stack([r.solution for r in batch_solve(specs, T0, opts)])
        T_ref, _, _, _, floor_at = fixed_schedule_bfgs(sc, T0, opts)
        failed = _failed_stationarity(sc, T)
        assert failed.any() and np.any(floor_at >= 0)  # some members fail, some stop at the floor
        assert np.array_equal(failed, _failed_stationarity(sc, T_ref))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_single_precision_equals_the_fixed_schedule(self, seed):
        # 1e-15 (1 + L) is below any |g| float32 reaches, except g == 0, which
        # the fixed schedule keeps: its next step is zero.
        specs = gen_scenes(seed, 5, Kinds.MIXED, 200)
        sc = BatchScene.from_specs(specs)
        T0 = init_params_batch(sc)
        opts = SolveOptions(precision=Precision.SINGLE)
        reports = batch_solve(specs, T0, opts)
        T_ref, g_ref, _, still_at, floor_at = fixed_schedule_bfgs(sc, T0, opts)
        T = np.stack([r.solution for r in reports])
        assert np.array_equal(T.view("u8"), T_ref.astype(float).view("u8"))
        gnorms = np.linalg.norm(g_ref.reshape(len(specs), -1), axis=1).astype(float)
        assert [r.final_grad_norm for r in reports] == gnorms.tolist()
        ran = [r.iterations for r in reports]
        assert ran == iterations_to_exit(still_at, floor_at, opts.iterations).tolist()
        assert not g_ref[floor_at >= 0].any()


class TestFailureCounts:
    """The benchmark's shapes leave at most the recorded number of members unstationary.

    Counts by `stationary_from_segments` at `STATIONARITY_TOL`, the rule
    |g| < tol (1 + L) that the benchmark's checks apply, so a change that
    adds failing members fails here before it reaches the benchmark. The
    default options leave none on the `bulk-mixed` shape; the paper's step
    alone (fp=1) is bounded by its recorded counts. The reference shape
    (B=20, n=5) converges every member at its own tolerance.
    """

    @staticmethod
    def _bulk_mixed_failures(seed, opts):
        specs = gen_scenes(seed, 5, Kinds.MIXED, 1000)
        sc = BatchScene.from_specs(specs)
        T = np.stack([r.solution for r in batch_solve(specs, init_params_batch(sc), opts)])
        return np.count_nonzero(_failed_stationarity(sc, T))

    @pytest.mark.parametrize("seed", range(1, 13))
    def test_bulk_mixed_shape(self, seed):
        assert self._bulk_mixed_failures(seed, SolveOptions()) == 0

    @pytest.mark.parametrize(
        "seed, most",
        [(1, 26), (2, 40), (3, 26), (4, 38), (5, 33), (6, 45), (7, 34), (8, 27),
         (9, 36), (10, 35), (11, 32), (12, 38)],
    )
    def test_bulk_mixed_shape_at_the_papers_step(self, seed, most):
        assert self._bulk_mixed_failures(seed, SolveOptions(fixed_point_iters=1)) <= most

    @pytest.mark.parametrize("seed", range(1, 13))
    def test_grad_batch_shape(self, seed):
        specs = gen_scenes(seed, 4, Kinds.MIXED, 200)
        sc = BatchScene.from_specs(specs)
        opts = SolveOptions(iterations=16, fixed_point_iters=64)
        T = np.stack([r.solution for r in batch_solve(specs, init_params_batch(sc), opts)])
        assert not _failed_stationarity(sc, T).any()

    @pytest.mark.parametrize("seed", range(1, 13))
    def test_reference_shape(self, seed):
        _, converged = reference_solve_batch(gen_scenes(seed, 5, Kinds.MIXED, 20))
        assert converged.all()
