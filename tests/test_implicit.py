"""Implicit differentiation of the solution and of the optimal length."""

import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fermatpath import (
    Kinds,
    NotStationary,
    ShapeMismatch,
    SolveOptions,
    bfgs_solve,
    gen_scenes,
    grad_length_wrt_params,
    gradient_descent,
    init_params,
    newton_solve,
    path_length,
    reference_solve,
    reference_solve_batch,
    solve_stationary_system,
    vjp_solution,
)
from fermatpath import batching, implicit_diff
from fermatpath.batching import (
    BatchScene,
    checked_segments,
    hessian_from_segments,
    member_rows,
    solve_active,
    unit_directions,
)
from fermatpath.bench import fd_resolve_vjp, _scene_vector
from fermatpath.objective import gradient, hessian, param_vjp

from _oracles import NON_REAL_CASTS, perturb_params, perturb_scene, where_pinned


@pytest.fixture(scope="module")
def stationary_cases():
    out = []
    for kinds in (Kinds.REFLECTIONS, Kinds.MIXED):
        specs = gen_scenes(25, 2, kinds, 2)
        Tstars, conv = reference_solve_batch(specs)
        assert np.all(conv)
        out.extend(zip(specs, Tstars))
    return out


class TestStationaritySystem:
    def test_residual(self, stationary_cases):
        rng = np.random.default_rng(0)
        for spec, Tstar in stationary_cases:
            v = rng.normal(size=(spec.n, 2)) * spec.active_mask
            u = solve_stationary_system(spec, Tstar, v)
            H = hessian(spec, Tstar)
            act = spec.active_mask.ravel()
            res = H[np.ix_(act, act)] @ u.ravel()[act] + v.ravel()[act]
            assert np.linalg.norm(res) < 1e-8 * (1 + np.linalg.norm(v))
            assert np.all(u[~spec.active_mask] == 0.0)

    def test_rejects_non_stationary_points(self):
        spec = gen_scenes(26, 2, Kinds.MIXED, 1)[0]
        rng = np.random.default_rng(1)
        T = perturb_params(spec, rng, 0.5)
        with pytest.raises(NotStationary):
            solve_stationary_system(spec, T, np.ones((2, 2)))


class TestVjpSolution:
    def test_matches_resolve_oracle(self, stationary_cases):
        rng = np.random.default_rng(2)
        for spec, Tstar in stationary_cases:
            v = rng.normal(size=(spec.n, 2)) * spec.active_mask
            analytic = vjp_solution(spec, Tstar, v).flat()[_scene_vector(spec)[1]]
            fd = fd_resolve_vjp(spec, v)
            assert np.linalg.norm(analytic - fd) < 1e-3 * max(np.linalg.norm(fd), 1e-12)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("cast", NON_REAL_CASTS.values(), ids=NON_REAL_CASTS.keys())
    def test_rejects_a_non_real_cotangent(self, cast):
        # A float cast would drop an imaginary part (a zero gradient), read True as 1
        # and "1.0" as 1.0.
        spec = gen_scenes(1, 2, Kinds.MIXED, 1)[0]
        with pytest.raises(ShapeMismatch, match="cotangent must be real"):
            vjp_solution(spec, reference_solve(spec), cast(np.ones((2, 2))))


class TestCotangentChecks:
    """Each entry point that takes a cotangent names it, not the params, when it is bad."""

    ENTRY_POINTS = {
        "vjp_solution": vjp_solution,
        "solve_stationary_system": solve_stationary_system,
        "param_vjp": param_vjp,
    }

    @pytest.fixture(scope="class")
    def solved(self):
        spec = gen_scenes(1, 2, Kinds.MIXED, 1)[0]
        return spec, reference_solve(spec)

    @pytest.mark.parametrize("entry", ENTRY_POINTS.values(), ids=ENTRY_POINTS.keys())
    def test_non_finite(self, solved, entry):
        v = np.ones((2, 2))
        v[1, 0] = np.nan
        with pytest.raises(ShapeMismatch, match="^cotangent must be finite$"):
            entry(*solved, v)

    @pytest.mark.parametrize("entry", ENTRY_POINTS.values(), ids=ENTRY_POINTS.keys())
    def test_misshapen(self, solved, entry):
        shape = r"^cotangent must have shape \(2, 2\), got \(3, 2\)$"
        with pytest.raises(ShapeMismatch, match=shape):
            entry(*solved, np.ones((3, 2)))


class TestEnvelope:
    def test_correction_term_vanishes(self, stationary_cases):
        for spec, Tstar in stationary_cases:
            g = gradient(spec, Tstar)
            corr = vjp_solution(spec, Tstar, g)
            partial = grad_length_wrt_params(spec, Tstar)
            assert np.linalg.norm(corr.flat()) < 1e-6 * (1 + partial.norm())

    def test_matches_fd_of_optimal_length(self):
        spec = gen_scenes(27, 2, Kinds.MIXED, 1)[0]
        Tstar = reference_solve(spec)
        sg = grad_length_wrt_params(spec, Tstar)
        h = 1e-5
        entries = [
            (("start", 0), sg.start[0]),
            (("end", 2), sg.end[2]),
            (("anchor", 0, 1), sg.anchor[0, 1]),
        ]
        for coord, analytic in entries:
            Lp = path_length(
                perturb_scene(spec, coord, +h),
                reference_solve(perturb_scene(spec, coord, +h)),
            )
            Lm = path_length(
                perturb_scene(spec, coord, -h),
                reference_solve(perturb_scene(spec, coord, -h)),
            )
            fd = (Lp - Lm) / (2 * h)
            assert analytic == pytest.approx(fd, abs=1e-6)

    def test_translation_tangent_is_zero(self, stationary_cases):
        # Translating the whole scene leaves the optimal length unchanged,
        # so endpoint and anchor gradients must cancel along any direction.
        for spec, Tstar in stationary_cases:
            sg = grad_length_wrt_params(spec, Tstar)
            total = sg.start + sg.end + sg.anchor.sum(axis=0)
            assert np.allclose(total, 0.0, atol=1e-9)


class TestOneEmbedding:
    @pytest.mark.parametrize(
        "call",
        [
            lambda spec, T, v: solve_stationary_system(spec, T, v),
            lambda spec, T, v: vjp_solution(spec, T, v),
            lambda spec, T, v: grad_length_wrt_params(spec, T),
        ],
        ids=["solve_stationary_system", "vjp_solution", "grad_length_wrt_params"],
    )
    def test_each_call_embeds_the_path_once(self, stationary_cases, monkeypatch, call):
        # ... and divides its segments by their norms once: every derivative
        # takes the unit directions from one `unit_directions` call.
        real_embed, real_directions = batching.embed_batch, batching.unit_directions
        calls = []

        def counting_embed(sc, T):
            calls.append(("embed", T.shape))
            return real_embed(sc, T)

        def counting_directions(s, norms):
            calls.append(("directions", s.shape))
            return real_directions(s, norms)

        monkeypatch.setattr(batching, "embed_batch", counting_embed)
        for name, module in list(sys.modules.items()):
            if name.startswith("fermatpath") and hasattr(module, "unit_directions"):
                monkeypatch.setattr(module, "unit_directions", counting_directions)
        for spec, Tstar in stationary_cases[-3:]:
            calls.clear()
            call(spec, Tstar, np.ones((spec.n, 2)) * spec.active_mask)
            assert calls == [("embed", (2, spec.n, 1)), ("directions", (3, spec.n + 1, 1))]


def _hessian_batch(B):
    """(H, rhs, active) of B mixed n=4 paths near their optima; the rhs has inert entries."""
    rng = np.random.default_rng(B)
    specs = gen_scenes(31, 4, Kinds.MIXED, B)
    sc = BatchScene.from_specs(specs)
    T = np.stack([perturb_params(s, rng, 0.1) for s in specs])
    _, s, norms = checked_segments(sc, T.T)
    H = hessian_from_segments(sc, unit_directions(s, norms)[0], norms)
    return H, rng.normal(size=(B, 8)), member_rows(sc.active)


class TestSolveActive:
    """Pinning in place solves the `np.where`-pinned matrix, byte for byte."""

    @pytest.mark.parametrize("B", [1, 20])
    def test_plain_and_tikhonov_solves_equal_the_where_pinned_solve(self, B):
        H, rhs, active = _hessian_batch(B)
        inert = ~active[:, :, None] | ~active[:, None, :]
        # The premise: inert entries of the fresh Hessian include -0.0, which
        # the pinned matrix holds as +0.0.
        assert np.signbit(H[inert]).any() and not np.all(active)
        tikhonov = implicit_diff.TIKHONOV_SCALE * np.einsum("bii->b", H)
        pinned = H.copy()
        for shift in (np.zeros(B), tikhonov):
            # The Tikhonov solve reuses the matrix the zero-shift solve pinned.
            x = solve_active(pinned, rhs, active, shift)
            want = where_pinned(H, active, shift)
            rhs0 = np.where(active, rhs, 0.0)[..., None]
            assert x.tobytes() == np.linalg.solve(want, rhs0)[..., 0].tobytes()
            assert pinned.tobytes() == want.tobytes()
            assert not np.signbit(x[~active]).any() and np.all(x[~active] == 0.0)

    def test_the_fallback_solves_the_fresh_hessian_with_the_tikhonov_shift(
        self, stationary_cases, monkeypatch
    ):
        # A negative residual bound fails every gate, so each call retries.
        monkeypatch.setattr(implicit_diff, "RESIDUAL_TOL", -1.0)
        rng = np.random.default_rng(3)
        for spec, Tstar in stationary_cases:
            v = rng.normal(size=(spec.n, 2))
            H = hessian(spec, Tstar)[None]
            active = spec.active_mask.reshape(1, -1)
            shift = implicit_diff.TIKHONOV_SCALE * np.einsum("bii->b", H)
            rhs = np.where(active, -v.reshape(1, -1), 0.0)[..., None]
            want = np.linalg.solve(where_pinned(H, active, shift), rhs)[0, :, 0]
            got = solve_stationary_system(spec, Tstar, v)
            assert got.tobytes() == want.reshape(spec.n, 2).tobytes()


class TestInertCoordinates:
    """Inert edge coordinates stay where they were given, and the adjoint is zero there."""

    @given(
        seed=st.integers(0, 2**16),
        n=st.integers(1, 4),
        inert=st.lists(st.floats(-5.0, 5.0), min_size=4, max_size=4),
    )
    @settings(max_examples=15, deadline=None)
    def test_solvers_keep_and_adjoint_zeroes_inert_coordinates(self, seed, n, inert):
        spec = gen_scenes(seed, n, Kinds.MIXED, 1)[0]
        inert_mask = ~spec.active_mask
        assume(inert_mask.any())
        T0 = init_params(spec)
        T0[inert_mask] = inert[: int(inert_mask.sum())]
        kept = T0[inert_mask]
        opts = SolveOptions(iterations=20)
        # Compared by value: a step of zero turns -0.0 into +0.0.
        for solve in (bfgs_solve, gradient_descent, newton_solve):
            assert np.array_equal(solve(spec, T0, opts).solution[inert_mask], kept)
        Tstar = reference_solve(spec, T0)
        assert np.array_equal(Tstar[inert_mask], kept)

        v = np.random.default_rng(seed).normal(size=(n, 2))  # inert entries too
        u = solve_stationary_system(spec, Tstar, v)
        assert np.all(u[inert_mask] == 0.0)
