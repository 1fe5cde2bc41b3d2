"""Scene generation, file formats, benchmark harness, and the CLI."""

import hashlib
import io
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml

from fermatpath import (
    BenchConfig,
    Kinds,
    NoConvergence,
    SceneFileError,
    ShapeMismatch,
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
from fermatpath import bench, cli, implicit_diff
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


def _scene_digest(specs) -> str:
    h = hashlib.sha256()
    for s in specs:
        for a in (s.start, s.end, s.basis_tensor, s.anchor_tensor):
            h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
        h.update(",".join(x.kind.value for x in s.surfaces).encode())
    return h.hexdigest()


class TestGeneratorStream:
    """The generated scenes are pinned bit for bit across versions.

    The benchmark compares runs on the digests of their inputs, so every
    draw and every rounding of `gen_scenes` is part of its contract. The
    digests were recorded when the generator still called `np.linalg.norm`
    and `np.cross`, so they also show that its 3-vector helpers changed no
    bit.
    """

    @pytest.mark.parametrize(
        "seed, n, kinds, batch, digest",
        [
            (0, 1, Kinds.REFLECTIONS, 40, "3e449e17174b19ca4cd2bd50691fbb1abef46f10baf1bf1459f99cd773cc213a"),
            (7, 5, Kinds.MIXED, 40, "0843cb6deeb44135957fe6329430817ab17c5e0316efe44fa9105f5a0e60b0d9"),
            (201, 5, Kinds.MIXED, 1000, "3a343ddf41543b3caf20e536d77b74c1a7ef58c6c4d0eeeec2eafafe4c6d189d"),
            (3, 64, Kinds.DIFFRACTIONS, 10, "71e4b77095220d44e617f259cc6cb0642ff35d82e756fa8a5fd79ddedecadc9c"),
        ],
    )
    def test_scene_arrays(self, seed, n, kinds, batch, digest):
        assert _scene_digest(gen_scenes(seed, n, kinds, batch)) == digest

    def test_scene_file_text(self):
        buf = io.StringIO()
        save_scenes(gen_scenes(7, 5, Kinds.MIXED, 40), buf)
        digest = hashlib.sha256(buf.getvalue().encode()).hexdigest()
        assert digest == "afc99188ff2c1789cfa841d73be1a5578f882a23b7e1288b9ebbf8216524c8d8"


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

    @pytest.mark.parametrize("n", [8, 16, 32, 64])
    def test_load_equals_pure_python_loader_bitwise(self, n):
        buf = io.StringIO()
        save_scenes(gen_scenes(12, n, Kinds.MIXED, 3), buf)
        text = buf.getvalue()
        got = load_scenes(io.StringIO(text))
        want = [bench.scene_from_dict(d) for d in yaml.load_all(text, Loader=yaml.SafeLoader)]
        assert len(got) == len(want) == 3
        for a, b in zip(got, want):
            for x, y in [(a.start, b.start), (a.end, b.end), (a.basis_tensor, b.basis_tensor),
                         (a.anchor_tensor, b.anchor_tensor)]:
                assert x.dtype == y.dtype and x.tobytes() == y.tobytes()
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

    def test_header_is_the_documented_layout(self):
        header = "solver,n,kinds,d,iterations,fp_iters,precision,mean_error,wall_time_ms"
        buf = io.StringIO()
        write_records([], buf)
        assert buf.getvalue().splitlines() == [header]

    def test_header_mismatch_rejected(self):
        with pytest.raises(ValueError):
            read_records(io.StringIO("a,b,c\n1,2,3\n"))

    @pytest.mark.parametrize("extra", [-1, 1], ids=["short", "long"])
    def test_row_of_wrong_length_rejected(self, extra):
        row = ["ours", "3", "mixed", "2", "100", "1", "single", "0.5", "1.0"]
        row = row[:extra] if extra < 0 else row + ["2.0"]
        text = ",".join(CSV_HEADER) + "\n" + ",".join(row) + "\n"
        with pytest.raises(ValueError, match="fields"):
            read_records(io.StringIO(text))


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

    @pytest.mark.parametrize(
        "bad",
        [{"iterations": 0}, {"fixed_point_iters": 0}, {"n_range": (0,)}, {"n_range": (3, 65)}],
        ids=["iterations", "fp-iters", "n-zero", "n-too-large"],
    )
    def test_bad_counts_rejected_before_any_solve(self, monkeypatch, bad):
        calls = _reference_missing(monkeypatch, [])
        with pytest.raises(ValueError):
            run_bench(BenchConfig(seed=0, batch=2, **bad), timing_reps=1)
        assert calls == []


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


# Command, option, values: each value out of range for that option.
_OUT_OF_RANGE = [
    ["gen", "--n", "0"],
    ["gen", "--n", "65"],
    ["gen", "--count", "0"],
    ["grad-check", "--n", "0"],
    ["grad-check", "--count", "0"],
    ["bench", "--iterations", "0"],
    ["bench", "--fp-iters", "0"],
    ["bench", "--n", "2", "65"],
    ["bench", "--batch", "0"],
    ["solve", "--iterations", "0"],
    ["solve", "--fp-iters", "0"],
]


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

    def test_grad_check_envelope_gap_fails_with_exit_code(self, monkeypatch):
        # A VJP off by 1e-3 in `start` opens an envelope gap far above 1e-6;
        # grad-check must report FAIL, not raise.
        real = implicit_diff.vjp_solution

        def skewed(spec, Tstar, v):
            sg = real(spec, Tstar, v)
            return replace(sg, start=sg.start + 1e-3)

        monkeypatch.setattr(bench, "vjp_solution", skewed)
        monkeypatch.setattr(implicit_diff, "vjp_solution", skewed)
        report = grad_check(2, 1, Kinds.MIXED, 2)
        assert report.count == 2
        assert report.envelope_max_rel_error > 1e-6
        assert not report.passed
        code, out, _ = _run_cli(["grad-check", "--seed", "2", "--n", "1", "--count", "2"])
        assert code == 3
        assert out.startswith("FAIL: 2 of 2 scenes checked")

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

    @pytest.mark.parametrize("argv", _OUT_OF_RANGE, ids=" ".join)
    def test_out_of_range_integer_is_a_usage_error(self, tmp_path, monkeypatch, argv):
        name = argv[1]
        calls = _reference_missing(monkeypatch, [])
        scene_file = tmp_path / "scenes.yaml"
        with open(scene_file, "w") as fh:
            save_scenes(gen_scenes(4, 2, Kinds.MIXED, 1), fh)
        if argv[0] == "gen":
            argv = argv + ["--out", str(tmp_path / "out.yaml")]
        elif argv[0] == "solve":
            argv = ["solve", str(scene_file)] + argv[1:]
        code, out, err = _run_cli(argv)
        assert code == 1
        assert f"argument {name}: " in err
        assert "Traceback" not in err
        assert out == ""
        assert calls == []  # no reference solve started
        assert not (tmp_path / "out.yaml").exists()

    def test_unknown_command_exit_code(self):
        code, _, _ = _run_cli(["warp"])
        assert code == 1

    def test_missing_scene_file(self, tmp_path):
        code, _, err = _run_cli(["solve", str(tmp_path / "missing.yaml")])
        assert code == 1

    @pytest.mark.parametrize(
        "text, index, cause",
        [
            ("start: [0.0, 0.0, 0.0]\nend: [1.0, 0.0, 0.0\n", 0, yaml.YAMLError),
            (
                "start: [0.0, 0.0, 0.0]\nend: [0.0, 0.0, 2.0]\nsurfaces:\n- kind: mirror\n"
                "  anchor: [0.0, 0.0, 1.0]\n  basis: [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]\n",
                0,
                ValueError,
            ),
            ("start: [0.0, 0.0, 0.0]\nend: [1.0, 0.0, 0.0]\n---\nstart: [0.0, 0.0, 0.0]\n", 1, KeyError),
            ("start: [1.0, 2.0, 3.0]\nend: [1.0, 2.0, 3.0]\n", 0, ShapeMismatch),
        ],
        ids=["bad-yaml", "unknown-kind", "missing-end", "coincident-endpoints"],
    )
    def test_malformed_scene_file(self, tmp_path, text, index, cause):
        scene_file = tmp_path / "scenes.yaml"
        scene_file.write_text(text)
        with open(scene_file) as fh, pytest.raises(SceneFileError) as info:
            load_scenes(fh)
        assert isinstance(info.value.__cause__, cause)
        code, out, err = _run_cli(["solve", str(scene_file)])
        assert code == 1
        assert err.startswith(f"fermatpath solve: scene file document {index}: ")
        assert "Traceback" not in err
        assert out == ""

    def test_solve_plane_with_singular_gram_matrix(self, tmp_path):
        # A valid plane whose Gram matrix rounds to singular gets its initial
        # guess from the pseudo-inverse projection instead of a traceback.
        scene_file = tmp_path / "near_parallel.yaml"
        scene_file.write_text(
            "start: [0.0, 0.0, 1.0]\n"
            "end: [1.0, 0.0, 1.0]\n"
            "surfaces:\n"
            "- kind: plane\n"
            "  anchor: [0.0, 0.0, 0.0]\n"
            "  basis: [[1.0, 1.0], [0.0, 2.0e-9], [0.0, 0.0]]\n"
        )
        proc = subprocess.run(
            [sys.executable, "-m", "fermatpath", "solve", str(scene_file)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(Path(bench.__file__).parents[1])},
        )
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "scene 0: length=" in proc.stdout

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
