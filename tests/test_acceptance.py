"""Acceptance gate: one test per release criterion.

Each test prints a single PASS/FAIL line and then asserts (capture is off
via addopts, so the lines always reach the terminal). Runtime budgets are
asserted where a criterion carries one.
"""

import time

import numpy as np

from fermatpath import (
    BenchConfig,
    Kinds,
    Precision,
    SolveOptions,
    batch_solve,
    bfgs_solve,
    gen_scenes,
    grad_check,
    init_params,
    read_records,
    run_bench,
    write_records,
)
from fermatpath.baselines import image_points_batch, reference_solve_batch
from fermatpath.batching import (
    BatchScene,
    clamped_segments,
    embed_batch,
    gradient_batch,
    gradient_from_segments,
    hessian_from_segments,
    solve_active,
    stack_params,
)
from fermatpath.implicit_diff import grad_length_wrt_params
from fermatpath.objective import gradient, hessian
from fermatpath.solver import _bfgs_kernel, line_search_alpha

from _oracles import bisection_alpha, fd_gradient, fd_hessian, perturb_params, reduced_edge_bfgs


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    tail = f"  [{detail}]" if detail else ""
    print(f"CRITERION {num} ({name}): {status}{tail}", flush=True)


def _solved_points(specs, iterations=100, fp_iters=64, precision=Precision.DOUBLE):
    sc = BatchScene.from_specs(specs)
    T0 = stack_params(specs, [init_params(s) for s in specs])
    T, _, _, _ = _bfgs_kernel(
        sc,
        T0,
        SolveOptions(iterations=iterations, fixed_point_iters=fp_iters, precision=precision),
    )
    pts = embed_batch(sc, np.asarray(T, dtype=np.float64))[:, 1:-1]
    return sc, T0, T, pts


def test_criterion_1_derivative_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(31)
    grad_worst = 0.0
    hess_worst = 0.0
    structural_ok = True
    for n in (1, 2, 3, 4, 5):
        for spec in gen_scenes(31, n, Kinds.MIXED, 20):
            T = perturb_params(spec, rng, 0.1)
            g = gradient(spec, T)
            grad_worst = max(grad_worst, float(np.abs(g - fd_gradient(spec, T)).max()))
            H = hessian(spec, T)
            hess_worst = max(hess_worst, float(np.abs(H - fd_hessian(spec, T)).max()))
            structural_ok &= bool(np.allclose(H, H.T, atol=1e-12))
            for i in range(n):
                for j in range(n):
                    if abs(i - j) > 1:
                        blk = H[2 * i : 2 * i + 2, 2 * j : 2 * j + 2]
                        structural_ok &= bool(np.all(blk == 0.0))
    elapsed = time.perf_counter() - t0
    ok = grad_worst < 1e-6 and hess_worst < 1e-5 and structural_ok and elapsed < 10.0
    _report(1, "gradient/Hessian correctness", ok,
            f"grad {grad_worst:.1e}, hess {hess_worst:.1e}, {elapsed:.1f}s")
    assert grad_worst < 1e-6
    assert hess_worst < 1e-5
    assert structural_ok
    assert elapsed < 10.0


def test_criterion_2_image_method_equivalence():
    t0 = time.perf_counter()
    worst_mean = 0.0
    worst_frac = 1.0
    for n in (1, 2, 3, 4, 5):
        specs = gen_scenes(3, n, Kinds.REFLECTIONS, 1000)
        sc, _, _, pts = _solved_points(specs)
        truth = image_points_batch(sc)
        err_d = np.linalg.norm(pts - truth, axis=2).mean(axis=1)
        worst_mean = max(worst_mean, float(err_d.mean()))
        _, _, _, pts_s = _solved_points(specs, precision=Precision.SINGLE)
        err_s = np.linalg.norm(pts_s - truth, axis=2).mean(axis=1)
        worst_frac = min(worst_frac, float(np.mean(err_s < 1e-3)))
    elapsed = time.perf_counter() - t0
    ok = worst_mean < 1e-6 and worst_frac >= 0.95 and elapsed < 60.0
    _report(2, "image-method equivalence", ok,
            f"double mean {worst_mean:.1e}, single frac {worst_frac:.3f}, {elapsed:.1f}s")
    assert worst_mean < 1e-6
    assert worst_frac >= 0.95
    assert elapsed < 60.0


def test_criterion_3_diffraction_accuracy():
    worst_mean = 0.0
    for n in (1, 2, 3, 4, 5):
        specs = gen_scenes(5, n, Kinds.DIFFRACTIONS, 1000)
        sc, T0, _, pts = _solved_points(specs)
        Tref, conv = reference_solve_batch(specs, list(T0))
        assert np.all(conv)
        ref_pts = embed_batch(sc, Tref)[:, 1:-1]
        err = np.linalg.norm(pts - ref_pts, axis=2).mean(axis=1)
        worst_mean = max(worst_mean, float(err.mean()))

    # d=2 vs d=1 equivalence. The unified solve is exactly insensitive to
    # the inert coordinates: scrambling them changes nothing, bitwise, and
    # they come back untouched. A standalone d=1 solver with the same
    # update rules lands on the same points (to linear-solve roundoff; the
    # contraction order over n vs 2n lanes differs at the ulp level).
    exact_ok = True
    reduced_worst = 0.0
    rng = np.random.default_rng(0)
    opts = SolveOptions(iterations=100, fixed_point_iters=64)
    for n in (1, 3, 5):
        specs = gen_scenes(5, n, Kinds.DIFFRACTIONS, 100)
        sc = BatchScene.from_specs(specs)
        T0 = stack_params(specs, [init_params(s) for s in specs])
        T0_scrambled = T0.copy()
        T0_scrambled[..., 1] = rng.normal(size=T0[..., 1].shape) * 100.0
        Ta, _, _, _ = _bfgs_kernel(sc, T0, opts)
        Tb, _, _, _ = _bfgs_kernel(sc, T0_scrambled, opts)
        exact_ok &= bool(np.array_equal(Ta[..., 0], Tb[..., 0]))
        exact_ok &= bool(np.array_equal(Tb[..., 1], T0_scrambled[..., 1]))
        exact_ok &= bool(np.array_equal(embed_batch(sc, Ta), embed_batch(sc, Tb)))
        Tr = reduced_edge_bfgs(sc, T0[..., 0].copy(), 100, 64)
        pts_full = embed_batch(sc, Ta)[:, 1:-1]
        pts_red = np.einsum("bni,bn->bni", sc.basis[..., 0], Tr) + sc.anchor
        reduced_worst = max(reduced_worst, float(np.abs(pts_full - pts_red).max()))

    ok = worst_mean < 1e-6 and exact_ok and reduced_worst < 1e-9
    _report(3, "diffraction accuracy and d=1/d=2 equivalence", ok,
            f"mean err {worst_mean:.1e}, reduced gap {reduced_worst:.1e}")
    assert worst_mean < 1e-6
    assert exact_ok
    assert reduced_worst < 1e-9


def test_criterion_4_mixed_sequences():
    worst_mean = 0.0
    for n in (1, 2, 3, 4, 5):
        specs = gen_scenes(5, n, Kinds.MIXED, 1000)
        sc, T0, _, pts = _solved_points(specs)
        Tref, conv = reference_solve_batch(specs, list(T0))
        assert np.all(conv)
        ref_pts = embed_batch(sc, Tref)[:, 1:-1]
        err = np.linalg.norm(pts - ref_pts, axis=2).mean(axis=1)
        worst_mean = max(worst_mean, float(err.mean()))

    # Same code path for every kind: the one batch kernel runs a fixed
    # iteration schedule, so traces have identical length regardless of
    # the surface mix.
    opts = SolveOptions(iterations=25, fixed_point_iters=4, record_trace=True)
    trace_lengths = set()
    for kinds in (Kinds.REFLECTIONS, Kinds.DIFFRACTIONS, Kinds.MIXED):
        specs = gen_scenes(6, 3, kinds, 10)
        for report in batch_solve(specs, [init_params(s) for s in specs], opts):
            trace_lengths.add(len(report.trace))
    uniform_ok = trace_lengths == {25}

    ok = worst_mean < 1e-6 and uniform_ok
    _report(4, "mixed sequences via the uniform kernel", ok,
            f"mean err {worst_mean:.1e}, trace lengths {sorted(trace_lengths)}")
    assert worst_mean < 1e-6
    assert uniform_ok


def test_newton_step_estimate_on_the_scenes_of_criteria_3_and_4():
    # Criteria 3 and 4 compare the solve with the reference, which is the
    # same kernel run longer, so an error the two share reads 0 there. The
    # Newton step u = H^-1 g, mapped to point displacements |A_i u_i|,
    # estimates each point's distance from the optimum without the BFGS
    # arithmetic.
    for kinds in (Kinds.DIFFRACTIONS, Kinds.MIXED):
        worst_mean = worst_max = 0.0
        for n in (1, 2, 3, 4, 5):
            specs = gen_scenes(5, n, kinds, 1000)
            sc, _, T, _ = _solved_points(specs)
            _, s, norms = clamped_segments(sc, T)
            g = gradient_from_segments(sc, s, norms).reshape(len(specs), 2 * n)
            H = hessian_from_segments(sc, s, norms)
            active = sc.active.reshape(g.shape)
            u = solve_active(H, g, active, np.zeros(len(specs))).reshape(T.shape)
            est = np.linalg.norm(np.einsum("bnij,bnj->bni", sc.basis, u), axis=2)
            worst_mean = max(worst_mean, float(est.mean()))
            worst_max = max(worst_max, float(est.max()))
        print(f"Newton-step estimate ({kinds.name.lower()}): "
              f"mean {worst_mean:.1e}, max {worst_max:.1e}", flush=True)
        assert worst_mean <= 1e-13
        assert worst_max <= 1e-11


def test_criterion_5_fixed_point_line_search():
    # 1000 instances: states near the optimum (where the fixed-point map is
    # contracting and the one-iteration-within-1% behaviour is claimed),
    # unit-norm descent directions.
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    opts = SolveOptions(iterations=60, fixed_point_iters=64)
    n_instances = 0
    n_within_1pct = 0
    worst64 = 0.0
    for kinds in (Kinds.REFLECTIONS, Kinds.MIXED):
        for n in (1, 2, 3, 4, 5):
            specs = gen_scenes(11, n, kinds, 10)
            reports = batch_solve(specs, [init_params(s) for s in specs], opts)
            for spec, rep in zip(specs, reports):
                scb = BatchScene.from_specs([spec])
                for _ in range(10):
                    T = rep.solution + rng.normal(size=(n, 2)) * 1e-3 * spec.active_mask
                    g = gradient_batch(scb, T[None])[0]
                    P = -g / np.linalg.norm(g)
                    astar = bisection_alpha(spec, T, P)
                    a1 = line_search_alpha(spec, T, P, k=1)
                    a64 = line_search_alpha(spec, T, P, k=64)
                    n_instances += 1
                    worst64 = max(worst64, abs(a64 - astar) / (1 + abs(astar)))
                    if abs(a1 - astar) <= 0.01 * (1 + abs(astar)):
                        n_within_1pct += 1
    elapsed = time.perf_counter() - t0
    frac = n_within_1pct / n_instances
    ok = n_instances == 1000 and worst64 <= 1e-6 and frac >= 0.90 and elapsed < 10.0
    _report(5, "fixed-point line search vs the exact step", ok,
            f"k=64 worst {worst64:.1e}, k=1 within 1%: {frac:.3f}, {elapsed:.1f}s")
    assert n_instances == 1000
    assert worst64 <= 1e-6
    assert frac >= 0.90
    assert elapsed < 10.0


def test_criterion_6_implicit_differentiation():
    t0 = time.perf_counter()
    vjp_worst = 0.0
    env_worst = 0.0
    counts = {1: 13, 2: 13, 3: 12, 4: 12}  # 50 stationary instances
    for n, count in counts.items():
        report = grad_check(21, n, Kinds.MIXED, count)
        vjp_worst = max(vjp_worst, report.vjp_max_rel_error)
        env_worst = max(env_worst, report.envelope_max_rel_error)
    elapsed = time.perf_counter() - t0
    ok = vjp_worst <= 1e-3 and env_worst <= 1e-6 and elapsed < 120.0
    _report(6, "implicit differentiation vs re-solve oracle", ok,
            f"vjp {vjp_worst:.1e}, envelope {env_worst:.1e}, {elapsed:.1f}s")
    assert vjp_worst <= 1e-3
    assert env_worst <= 1e-6
    assert elapsed < 120.0


def test_criterion_7_gradient_cost_independence():
    specs = gen_scenes(9, 4, Kinds.MIXED, 50)
    sc = BatchScene.from_specs(specs)
    T0 = stack_params(specs, [init_params(s) for s in specs])
    solved = {}
    for iters in (16, 128):
        T, _, _, _ = _bfgs_kernel(sc, T0, SolveOptions(iterations=iters, fixed_point_iters=64))
        for spec, Tb in zip(specs[:5], T[:5]):  # warm-up
            grad_length_wrt_params(spec, Tb)
        solved[iters] = T
    # The two depths alternate rep by rep, so a slow stretch of the machine
    # falls on both of them rather than on one.
    reps = {iters: [] for iters in solved}
    for _ in range(5):
        for iters, T in solved.items():
            t0 = time.perf_counter()
            for spec, Tb in zip(specs, T):
                grad_length_wrt_params(spec, Tb)
            reps[iters].append(time.perf_counter() - t0)
    grad_time = {iters: min(r) for iters, r in reps.items()}
    ratio = max(grad_time.values()) / min(grad_time.values())
    ok = ratio < 2.0
    _report(7, "gradient cost independent of solver depth", ok,
            f"t16 {grad_time[16]*1e3:.1f}ms, t128 {grad_time[128]*1e3:.1f}ms, ratio {ratio:.2f}")
    assert ratio < 2.0


def test_criterion_8_ordinal_benchmark(tmp_path):
    config = BenchConfig(
        seed=3,
        batch=200,
        kinds=Kinds.REFLECTIONS,
        solvers=("ours", "ours-64", "gd", "image"),
        iterations=100,
        fixed_point_iters=4,
        precision=Precision.SINGLE,
    )
    csv_path = tmp_path / "gate.csv"
    with open(csv_path, "w", newline="") as fh:
        write_records(run_bench(config, timing_reps=3), fh)
    with open(csv_path) as fh:
        by = {(r.solver, r.n): r for r in read_records(fh)}

    gd_ok = img_ok = o64_ok = True
    for n in config.n_range:
        ours, o64 = by[("ours", n)], by[("ours-64", n)]
        gd, img = by[("gd", n)], by[("image", n)]
        gd_ok &= gd.mean_error >= 10.0 * ours.mean_error
        img_ok &= img.wall_time_ms < ours.wall_time_ms and ours.mean_error <= 1e-3
        o64_ok &= o64.mean_error <= ours.mean_error
    ok = gd_ok and img_ok and o64_ok
    _report(8, "ordinal benchmark shape", ok,
            f"gd>=10x: {gd_ok}, image faster & ours<=1e-3: {img_ok}, ours-64<=ours: {o64_ok}")
    assert gd_ok
    assert img_ok
    assert o64_ok


def test_criterion_9_determinism():
    config = BenchConfig(
        seed=12, batch=50, n_range=(1, 2, 3), kinds=Kinds.MIXED,
        solvers=("ours", "gd", "newton"), iterations=50,
    )
    errs_a = [r.mean_error for r in run_bench(config, timing_reps=1)]
    errs_b = [r.mean_error for r in run_bench(config, timing_reps=1)]
    bench_ok = errs_a == errs_b

    bitwise_ok = True
    opts = SolveOptions(iterations=60, fixed_point_iters=8)
    for kinds in (Kinds.REFLECTIONS, Kinds.DIFFRACTIONS, Kinds.MIXED):
        specs = gen_scenes(13, 3, kinds, 10)
        T0s = [init_params(s) for s in specs]
        for spec, T0, br in zip(specs, T0s, batch_solve(specs, T0s, opts)):
            sr = bfgs_solve(spec, T0, opts)
            bitwise_ok &= bool(np.array_equal(sr.solution, br.solution))

    ok = bench_ok and bitwise_ok
    _report(9, "determinism and batch/scalar bitwise equality", ok,
            f"bench repeatable: {bench_ok}, bitwise: {bitwise_ok}")
    assert bench_ok
    assert bitwise_ok
