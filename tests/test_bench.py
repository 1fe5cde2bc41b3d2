"""Scene generation, file formats, benchmark harness, and the CLI."""

import io
import math
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

from fermatpath import (
    BenchConfig,
    Kinds,
    NoConvergence,
    SingularHessian,
    SurfaceKind,
    gen_scenes,
    grad_check,
    load_scenes,
    read_records,
    run_bench,
    save_scenes,
    write_records,
)
from fermatpath import bench, cli
from fermatpath.bench import BenchRecord, CSV_HEADER, GradCheckReport
from fermatpath.cli import main


def _reference_missing(monkeypatch, members):
    """Make the first reference solve report `members` as unconverged."""
    real = bench.reference_solve_batch
    calls = []

    def reference_solve_batch(specs, T0s=None):
        T, converged = real(specs, T0s)
        if not calls:
            converged = converged.copy()
            converged[members] = False
        calls.append(len(specs))
        return T, converged

    monkeypatch.setattr(bench, "reference_solve_batch", reference_solve_batch)
    return calls


class TestGenScenes:
    def test_deterministic(self):
        a = gen_scenes(7, 3, Kinds.MIXED, 5)
        b = gen_scenes(7, 3, Kinds.MIXED, 5)
        for sa, sb in zip(a, b):
            assert np.array_equal(sa.start, sb.start)
            assert np.array_equal(sa.basis_tensor, sb.basis_tensor)
            assert np.array_equal(sa.anchor_tensor, sb.anchor_tensor)

    def test_seed_changes_scenes(self):
        a = gen_scenes(7, 3, Kinds.MIXED, 1)[0]
        b = gen_scenes(8, 3, Kinds.MIXED, 1)[0]
        assert not np.array_equal(a.start, b.start)

    def test_kind_composition(self):
        for spec in gen_scenes(9, 4, Kinds.REFLECTIONS, 3):
            assert all(s.kind is SurfaceKind.PLANE for s in spec.surfaces)
        for spec in gen_scenes(9, 4, Kinds.DIFFRACTIONS, 3):
            assert all(s.kind is SurfaceKind.EDGE for s in spec.surfaces)
        for spec in gen_scenes(9, 4, Kinds.MIXED, 3):
            kinds = [s.kind for s in spec.surfaces]
            assert all(a is not b for a, b in zip(kinds, kinds[1:]))

    def test_bad_n(self):
        with pytest.raises(ValueError):
            gen_scenes(0, 0, Kinds.MIXED, 1)


class TestSceneFiles:
    def test_yaml_roundtrip_exact(self):
        specs = gen_scenes(10, 2, Kinds.MIXED, 4)
        buf = io.StringIO()
        save_scenes(specs, buf)
        buf.seek(0)
        back = load_scenes(buf)
        assert len(back) == len(specs)
        for a, b in zip(specs, back):
            assert np.array_equal(a.start, b.start)
            assert np.array_equal(a.end, b.end)
            assert np.array_equal(a.basis_tensor, b.basis_tensor)
            assert np.array_equal(a.anchor_tensor, b.anchor_tensor)
            assert [s.kind for s in a.surfaces] == [s.kind for s in b.surfaces]


class TestResultFiles:
    def test_csv_roundtrip_exact(self):
        records = [
            BenchRecord("ours", 3, "mixed", 2, 100, 1, "single", 1.25e-4, 17.125),
            BenchRecord("image", 1, "reflections", 2, 0, 0, "double", float("nan"), 0.5),
        ]
        buf = io.StringIO()
        write_records(records, buf)
        assert buf.getvalue().splitlines()[0] == ",".join(CSV_HEADER)
        buf.seek(0)
        back = read_records(buf)
        assert back[0] == records[0]
        assert math.isnan(back[1].mean_error)

    def test_header_mismatch_rejected(self):
        with pytest.raises(ValueError):
            read_records(io.StringIO("a,b,c\n1,2,3\n"))


class TestBenchConfig:
    def test_unknown_solver(self):
        with pytest.raises(ValueError):
            BenchConfig(seed=0, solvers=("warp",))

    def test_image_requires_reflections(self):
        with pytest.raises(ValueError):
            BenchConfig(seed=0, kinds=Kinds.MIXED, solvers=("image",))

    def test_bad_batch(self):
        with pytest.raises(ValueError):
            BenchConfig(seed=0, batch=0)


def _newton_fails(monkeypatch):
    def _newton_kernel(*args, **kwargs):
        raise SingularHessian("regularized Newton solve failed")

    monkeypatch.setattr(bench, "_newton_kernel", _newton_kernel)


class TestRunBench:
    def test_smoke(self):
        config = BenchConfig(
            seed=1, batch=5, n_range=(1, 2), kinds=Kinds.MIXED,
            solvers=("ours", "gd"), iterations=20,
        )
        records = run_bench(config, timing_reps=1)
        assert len(records) == 4
        for r in records:
            assert r.kinds == "mixed"
            assert r.precision == "single"
            assert r.wall_time_ms > 0.0
            assert r.mean_error >= 0.0

    def test_unconverged_reference_raises(self, monkeypatch):
        _reference_missing(monkeypatch, [1])
        config = BenchConfig(
            seed=1, batch=3, n_range=(1,), kinds=Kinds.MIXED, solvers=("ours",), iterations=5
        )
        with pytest.raises(NoConvergence):
            run_bench(config, timing_reps=1)

    def test_solver_error_propagates(self, monkeypatch):
        _newton_fails(monkeypatch)
        config = BenchConfig(
            seed=1, batch=2, n_range=(1,), kinds=Kinds.MIXED,
            solvers=("ours", "newton"), iterations=5,
        )
        with pytest.raises(SingularHessian):
            run_bench(config, timing_reps=1)


class TestGradCheck:
    def test_smoke(self):
        report = grad_check(2, 1, Kinds.MIXED, 2)
        assert report.count == 2
        assert report.passed
        assert report.vjp_max_rel_error <= report.tolerance

    def test_dropped_instance_fails(self, monkeypatch):
        _reference_missing(monkeypatch, [0])
        report = grad_check(2, 1, Kinds.MIXED, 2)
        assert report.count == 1
        assert report.vjp_max_rel_error <= report.tolerance
        assert not report.passed

    def test_nothing_checked_fails(self, monkeypatch):
        calls = _reference_missing(monkeypatch, slice(None))
        report = grad_check(2, 1, Kinds.MIXED, 2)
        assert report.count == 0
        assert not report.passed
        assert calls == [2]  # no re-solve of an empty batch

    def test_bad_count(self):
        with pytest.raises(ValueError):
            grad_check(2, 1, Kinds.MIXED, 0)


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


class TestCli:
    def test_gen_then_solve(self, tmp_path):
        scene_file = str(tmp_path / "scenes.yaml")
        code, out, _ = _run_cli(
            ["gen", "--seed", "4", "--n", "2", "--kinds", "mixed",
             "--count", "3", "--out", scene_file]
        )
        assert code == 0
        assert "3 scenes" in out

        code, out, _ = _run_cli(["solve", scene_file, "--iterations", "60"])
        assert code == 0
        assert out.count("length=") == 3

    def test_bench_csv(self, tmp_path):
        out_file = str(tmp_path / "results.csv")
        code, _, _ = _run_cli(
            ["bench", "--seed", "1", "--batch", "3", "--n", "1",
             "--kinds", "mixed", "--solvers", "ours", "gd",
             "--iterations", "10", "--out", out_file]
        )
        assert code == 0
        with open(out_file) as fh:
            records = read_records(fh)
        assert {r.solver for r in records} == {"ours", "gd"}

    def test_grad_check_command(self):
        code, out, _ = _run_cli(
            ["grad-check", "--seed", "2", "--n", "1", "--count", "2"]
        )
        assert code == 0
        assert out.startswith("PASS")

    def test_grad_check_failure_exit_code(self, monkeypatch):
        report = GradCheckReport(
            count=1, vjp_max_rel_error=0.0, envelope_max_rel_error=0.0,
            tolerance=1e-3, passed=False,
        )
        monkeypatch.setattr(cli, "grad_check", lambda *args: report)
        code, out, _ = _run_cli(["grad-check", "--n", "1", "--count", "2"])
        assert code == 3
        assert out.startswith("FAIL: 1 of 2 scenes checked")

    def test_bench_reference_failure_exit_code(self, monkeypatch):
        _reference_missing(monkeypatch, [0])
        code, _, err = _run_cli(
            ["bench", "--seed", "1", "--batch", "2", "--n", "1", "--solvers", "ours",
             "--iterations", "5"]
        )
        assert code == 2
        assert "reference solve missed its tolerance" in err

    def test_bench_solver_failure_exit_code(self, monkeypatch):
        _newton_fails(monkeypatch)
        code, out, err = _run_cli(
            ["bench", "--seed", "1", "--batch", "2", "--n", "1", "--solvers", "newton",
             "--iterations", "5"]
        )
        assert code == 2
        assert "regularized Newton solve failed" in err
        assert out == ""

    def test_usage_error_exit_code(self):
        code, _, _ = _run_cli(["bench", "--precision", "half"])
        assert code == 1

    def test_unknown_command_exit_code(self):
        code, _, _ = _run_cli(["warp"])
        assert code == 1

    def test_missing_scene_file(self, tmp_path):
        code, _, err = _run_cli(["solve", str(tmp_path / "missing.yaml")])
        assert code == 1

    def test_solver_failure_exit_code(self, tmp_path):
        # A plane through the start point: the midpoint projects onto the
        # start itself, so the initial path has a zero-length first segment.
        scene_file = tmp_path / "degenerate.yaml"
        scene_file.write_text(
            "start: [0.0, 0.0, 0.0]\n"
            "end: [0.0, 0.0, 2.0]\n"
            "surfaces:\n"
            "- kind: plane\n"
            "  anchor: [0.0, 0.0, 0.0]\n"
            "  basis: [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]\n"
        )
        code, _, err = _run_cli(["solve", str(scene_file)])
        assert code == 2
        assert "solver failed" in err
