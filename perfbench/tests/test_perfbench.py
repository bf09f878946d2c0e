"""Tests of the benchmark itself: metric names, the tail rule, self time, smoke runs."""
from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import stats  # noqa: E402
from spans import Tracer, self_time  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def test_metric_names_and_units_are_well_formed():
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in metrics] + WORKLOADS
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
    for metric in metrics:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")
    assert {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25} in SPEC["end_to_end"]
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


@pytest.mark.parametrize(
    "count, rank, percentile",
    [(11, 0, 100 / 11), (20, 9, 50.0), (100, 89, 90.0), (1000, 989, 99.0)],
)
def test_tail_has_ten_samples_beyond_it(count, rank, percentile):
    samples = [float(v) for v in range(count, 0, -1)]  # descending, so sorting matters
    value, pct, n = stats.tail(samples)
    assert value == sorted(samples)[rank]
    assert sum(s > value for s in samples) == 10
    assert pct == pytest.approx(percentile)
    assert n == count


def test_tail_needs_eleven_samples():
    with pytest.raises(ValueError):
        stats.tail([1.0] * 10)


def test_self_time_of_a_synthetic_span_tree():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    class Layer:
        @staticmethod
        def inner():
            return None

        @staticmethod
        def outer():
            Layer.inner()
            return None

        @staticmethod
        def leaf():
            return None

    tracer.wrap(Layer, "inner", "inner")
    tracer.wrap(Layer, "outer", "outer")
    tracer.wrap(Layer, "leaf", "leaf")
    with tracer.job(7):  # job opens at 0
        Layer.outer()  # outer 1..4, inner 2..3
        Layer.leaf()  # leaf 5..6
    # job closes at 7
    tracer.unwrap()
    spans = {s.name: (s.start, s.end, s.parent, s.job) for s in tracer.spans}
    assert spans == {"job": (0, 7, None, 7), "outer": (1, 4, 0, 7), "inner": (2, 3, 1, 7), "leaf": (5, 6, 0, 7)}
    assert tracer.self_times() == [7 - 3 - 1, 3 - 1, 1, 1]
    assert Layer.outer.__name__ == "outer" and not hasattr(Layer.outer, "__wrapped__")


def test_self_time_counts_overlapping_children_once():
    assert self_time(0.0, 10.0, [(1.0, 4.0), (3.0, 6.0), (8.0, 12.0)]) == pytest.approx(10.0 - 5.0 - 2.0)


def _run(cwd: Path, workload: str, trace: int, workdir: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3", "--seconds", "0.3",
         "--trace", str(trace), "--size", "tiny", "--workdir", str(workdir)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


# Per-layer values a tiny traced run must show: each layer carries work in
# one workload and none in another.
PREDICTED = {
    "estimate-large": {"spectral.eigendecompose_calls": 2.0, "kalman.run_filter_calls": 0.0, "baselines.mle_fit_s": 0.0},
    "replicate-sweep": {"spectral.eigendecompose_calls": 1.0, "dataio.read_csv_s": 0.0, "cli.self_s": 0.0},
    "filter-long": {"spectral.eigendecompose_calls": 0.0, "kalman.run_filter_calls": 1.0, "baselines.mle_fit_s": 0.0},
}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace, tmp_path):
    done = _run(ROOT, workload, trace, tmp_path)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stdout
    assert result["failed"] == 0 and result["attempted"] >= 11
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for metric in expected:
        value = result["metrics"][metric["name"]]
        assert value["unit"] == metric["unit"]
        assert isinstance(value["value"], float)
        assert re.search(rf"^{re.escape(metric['name'])} +\S+ {re.escape(metric['unit'])}$", done.stdout, re.M)
    if trace:
        for name, value in PREDICTED[workload].items():
            assert result["metrics"][name]["value"] == value, name
    else:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in expected)
        # A second run at the same seed checks its output digest against the first one's.
        again = _run(ROOT, workload, trace, tmp_path)
        assert json.loads(again.stdout.strip().splitlines()[-1])["correct"] is True, again.stdout


def test_fails_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, WORKLOADS[0], 0, tmp_path / "work")
    assert done.returncode != 0
    assert done.stdout == ""
