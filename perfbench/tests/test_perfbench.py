"""Tests of the benchmark itself: small runs, digests, span arithmetic.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import compare  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SMALL = {
    "bulk-mixed": lambda: workloads.BulkMixed(batch=8),
    "deep-file": lambda: workloads.DeepFile(ns=(2, 3)),
    "grad-batch": lambda: workloads.GradBatch(batch=6),
    "reference": lambda: workloads.Reference(batch=3),
}
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def quick(monkeypatch):
    monkeypatch.setattr(worker, "SETUPS", 1)
    monkeypatch.setattr(worker, "MIN_REQUESTS", 2)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_small_run_completes_with_checks(name, quick, tmp_path):
    result = worker.run(name, 0, 0.0, False, tmp_path, SMALL[name]())
    assert result["requests"] >= 2
    assert result["attempted"] == result["members"] * result["requests"]
    assert 0 <= result["wrong"] <= result["failed"] <= result["attempted"]
    assert result["setup_s"] > 0 and result["paths_per_s"] > 0
    assert result["record"]["digest"]["scenes"]


def test_traced_run_reports_every_per_layer_metric(quick, tmp_path):
    result = worker.run("grad-batch", 0, 0.0, True, tmp_path, SMALL["grad-batch"]())
    layers = result["per_layer"]
    assert {m["name"] for m in SPEC["per_layer"]} <= set(layers)
    assert layers["implicit_diff.vjp_solution.calls"] == 6
    assert layers["solver.batch_solve.calls"] == 1
    assert layers["solver.member_iters"] == 6 * workloads.GRAD_ITERATIONS
    assert layers["bench.gen_scenes.s"] > 0
    assert 0 < layers["solver.useful_member_iter_frac"] <= 1
    # The wrappers are gone once the run ends.
    import fermatpath.solver

    assert not hasattr(fermatpath.solver.gradient_batch, "__wrapped__")


def test_untraced_run_reports_every_end_to_end_metric(tmp_path, monkeypatch):
    monkeypatch.setattr(worker, "SETUPS", 1)
    result = worker.run("bulk-mixed", 0, 0.0, False, tmp_path, SMALL["bulk-mixed"]())
    assert {m["name"] for m in SPEC["end_to_end"]} <= set(result)
    assert result["requests"] == worker.MIN_REQUESTS
    assert result["tail_percentile"] == pytest.approx(100 * (31 - 10) / 31)
    assert result["raw"]["request_ms.p50"] > 0 and result["speed_factor"] > 0


@pytest.mark.parametrize("name", sorted(SMALL))
def test_same_seed_same_digest(name, tmp_path):
    wl = SMALL[name]()
    a = wl.setup(3, tmp_path).digest()
    b = wl.setup(3, tmp_path).digest()
    c = wl.setup(4, tmp_path).digest()
    assert a == b
    assert a["scenes"] != c["scenes"]


def _span(name, start, end, parent=-1):
    return tracing.Span(name, start, end, parent, 0)


def test_self_time_of_nested_spans():
    spans = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 4.0, 0),
        _span("a.inner", 2.0, 3.0, 1),
        _span("b", 5.0, 9.0, 0),
        _span("c", 8.0, 9.5, 0),  # overlaps b: the covered time is their union
        _span("d", 9.8, 10.5, 0),  # runs past its parent: only 0.2 s is inside it
    ]
    assert tracing.self_times(spans) == pytest.approx([10 - 3 - 4.5 - 0.2, 2.0, 1.0, 4.0, 1.5, 0.7])


def test_per_request_sums_calls_and_self_time():
    t = tracing.Tracer()
    t.spans = [
        tracing.Span("f", 0.0, 2.0, -1, 0),
        tracing.Span("g", 0.5, 1.0, 0, 0),
        tracing.Span("f", 3.0, 4.0, -1, 1),
    ]
    table = tracing.per_request(t)
    assert table[0]["f"] == [1, pytest.approx(1.5)]
    assert table[0]["g"] == [1, pytest.approx(0.5)]
    assert table[1]["f"] == [1, pytest.approx(1.0)]


def test_install_wraps_every_reference_and_skips_missing_names():
    import fermatpath
    import fermatpath.objective
    import fermatpath.implicit_diff

    tracer = tracing.Tracer()
    original = fermatpath.objective.gradient
    undo = tracing.install(
        tracer,
        [
            ("objective.gradient", "objective", "gradient", True, None),
            ("objective.gone", "objective", "no_such_function", True, None),
            ("nomodule.f", "no_such_module", "f", True, None),
        ],
    )
    try:
        for holder in (fermatpath, fermatpath.objective, fermatpath.implicit_diff):
            assert holder.gradient.__wrapped__ is original
    finally:
        tracing.uninstall(undo)
    assert fermatpath.implicit_diff.gradient is original


def test_compare_refuses_different_digests_and_judges_medians(tmp_path):
    def log(name, digest, p50s):
        lines = []
        for seed, p50 in enumerate(p50s):
            rec = {"record": {"workload": "grad-batch", "seed": seed, "digest": {"scenes": digest}},
                   "request_ms.p50": p50}
            lines.append("perfbench-record " + json.dumps(rec))
        (tmp_path / name).write_text("\n".join(lines) + "\n")
        return str(tmp_path / name)

    base = log("a.log", "x", [100.0, 101.0, 99.0, 100.5])
    assert compare.main([base, log("b.log", "y", [100.0, 101.0, 99.0, 100.5])]) == 3
    assert compare.main([base, log("c.log", "x", [101.0, 100.0, 102.0, 100.0])]) == 0
    assert compare.main([base, log("d.log", "x", [200.0, 210.0, 190.0, 205.0])]) == 1
    # A base spread wider than the bound cannot decide a small change ...
    wide = log("e.log", "x", [60.0, 100.0, 140.0, 100.0])
    assert compare.main([wide, log("f.log", "x", [101.0, 99.0, 100.0, 102.0])]) == 4
    # ... unless every new run beats every base run.
    assert compare.main([wide, log("g.log", "x", [50.0, 51.0, 52.0, 53.0])]) == 0


def test_run_refuses_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grad-batch", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
