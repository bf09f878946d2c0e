"""Command-line interface: exit codes, determinism, and table formats."""
import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import stve
from stve import (
    SimulationConfig,
    estimate,
    read_csv,
    replicate,
    simulate,
    write_csv,
)
from stve.cli import _moving_average, _stve_point_estimator, main
from stve.simulator import benchmark_table

from conftest import make_dataset


def child_env(base):
    """`base` plus a PYTHONPATH that makes a child interpreter import the same
    `stve` as this suite: its parent directory goes first, ahead of any
    inherited entries, so `python -m stve.cli` works uninstalled too."""
    package_root = str(Path(stve.__file__).resolve().parent.parent)
    inherited = os.environ.get("PYTHONPATH")
    return {**base, "PYTHONPATH": os.pathsep.join(filter(None, [package_root, inherited]))}


def run_cli(argv, stdin_text=None):
    """Run main() in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    old_stdin = sys.stdin
    if stdin_text is not None:
        sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = old_stdin
    return code, out.getvalue(), err.getvalue()


def parse_table(text):
    """Split a CLI CSV into (comment lines, header cells, data rows)."""
    comments, header, rows = [], None, []
    for line in text.splitlines():
        if line.startswith("#"):
            comments.append(line)
        elif header is None:
            header = line.split(",")
        elif line:
            rows.append(line.split(","))
    return comments, header, rows


def read_aggregate(text):
    for line in text.splitlines():
        if line.startswith("# aggregate "):
            return json.loads(line[len("# aggregate ") :])
    raise AssertionError("no aggregate comment in output")


def read_manifest(text):
    for line in text.splitlines():
        if line.startswith("# manifest "):
            return json.loads(line[len("# manifest ") :])
    raise AssertionError("no manifest comment in output")


def dataset_file(tmp_path, dataset, name="data.csv"):
    path = tmp_path / name
    write_csv(dataset, str(path))
    return str(path)


FLAT_CSV = (
    "t,y,u_1,u_2,u_3,u_4\n"
    "1,1.0,1.0,0.0,0.0,0.0\n"
    "2,1.0,0.0,0.7071067811865476,0.0,0.0\n"
    "3,1.0,0.0,0.0,0.5773502691896258,0.0\n"
    "4,1.0,0.0,0.0,0.0,0.5\n"
)


# ---------------------------------------------------------------------------
# estimate


def test_estimate_all_zero_response(tmp_path, rng):
    dataset = make_dataset(rng, T=16, n=2, y=np.zeros(16))
    path = dataset_file(tmp_path, dataset)
    code, out, _err = run_cli(["estimate", "--input", path])
    assert code == 0
    payload = json.loads(out)
    assert payload["sigma2"] == 0.0
    assert payload["eta2"] == 0.0


def test_estimate_json_payload(tmp_path):
    dataset, _ = simulate(SimulationConfig(T=80, n=2, sigma2=0.5, eta2=2.0, seed=3))
    path = dataset_file(tmp_path, dataset)
    code, out, err = run_cli(["estimate", "--input", path])
    assert code == 0
    payload = json.loads(out)
    for key in (
        "sigma2",
        "eta2",
        "sigma2_raw",
        "eta2_raw",
        "effective_T",
        "p",
        "gap_ratio",
        "gap_lower_bound",
        "warnings",
        "manifest",
    ):
        assert key in payload
    assert payload["effective_T"] == 80
    assert payload["manifest"]["subcommand"] == "estimate"
    digest = payload["manifest"]["input_digest"]
    assert digest.startswith("sha256:") and len(digest) == 71
    # timing goes to stderr so stdout stays byte-stable
    assert "done in" in err


def test_estimate_matches_library(tmp_path):
    dataset, _ = simulate(SimulationConfig(T=80, n=2, sigma2=0.5, eta2=2.0, seed=3))
    path = dataset_file(tmp_path, dataset)
    _code, out, _err = run_cli(["estimate", "--input", path])
    payload = json.loads(out)
    expected = estimate(read_csv(path))
    assert abs(payload["sigma2"] - expected.sigma2) <= 1e-12
    assert abs(payload["eta2"] - expected.eta2) <= 1e-12


def test_estimate_csv_format(tmp_path):
    dataset, _ = simulate(SimulationConfig(T=60, n=2, sigma2=1.0, eta2=1.0, seed=4))
    path = dataset_file(tmp_path, dataset)
    code, json_out, _ = run_cli(["estimate", "--input", path])
    code2, csv_out, _ = run_cli(["estimate", "--input", path, "--format", "csv"])
    assert code == 0 and code2 == 0
    payload = json.loads(json_out)
    comments, header, rows = parse_table(csv_out)
    assert comments[0].startswith("# manifest ")
    assert len(rows) == 1
    row = dict(zip(header, rows[0]))
    assert float(row["sigma2"]) == pytest.approx(payload["sigma2"], abs=1e-15)
    assert float(row["eta2"]) == pytest.approx(payload["eta2"], abs=1e-15)


def test_estimate_reads_stdin(tmp_path):
    dataset, _ = simulate(SimulationConfig(T=60, n=2, sigma2=1.0, eta2=1.0, seed=4))
    buffer = io.StringIO()
    write_csv(dataset, buffer)
    code, out, _err = run_cli(["estimate", "--input", "-"], stdin_text=buffer.getvalue())
    assert code == 0
    expected = estimate(dataset)
    assert json.loads(out)["sigma2"] == pytest.approx(expected.sigma2, abs=1e-12)


def test_estimate_stdout_deterministic(tmp_path):
    dataset, _ = simulate(SimulationConfig(T=60, n=2, sigma2=1.0, eta2=1.0, seed=4))
    path = dataset_file(tmp_path, dataset)
    _c1, first, _ = run_cli(["estimate", "--input", path])
    _c2, second, _ = run_cli(["estimate", "--input", path])
    assert first == second


def test_estimate_within_replication_envelope(tmp_path):
    # estimates from one simulated file fall inside the Monte-Carlo error
    # envelope measured by the replication harness for the same config
    config = SimulationConfig(T=500, n=5, sigma2=0.5, eta2=2.0, seed=7)
    dataset, _ = simulate(config)
    path = dataset_file(tmp_path, dataset)
    code, out, _err = run_cli(["estimate", "--input", path])
    assert code == 0
    payload = json.loads(out)
    spread = replicate(config, 30, {"stve": _stve_point_estimator})["stve"]
    envelope_sigma2 = spread.mean_abs_error_sigma2 + 4 * spread.sigma2_errors.std()
    envelope_eta2 = spread.mean_abs_error_eta2 + 4 * spread.eta2_errors.std()
    assert abs(payload["sigma2"] - 0.5) <= envelope_sigma2
    assert abs(payload["eta2"] - 2.0) <= envelope_eta2


def test_malformed_csv_exits_1(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,y,u_1\n1,1.0,0.1\n2,oops,0.2\n")
    code, _out, err = run_cli(["estimate", "--input", str(path)])
    assert code == 1
    assert "line 3" in err


def test_missing_file_exits_1(tmp_path):
    code, _out, err = run_cli(["estimate", "--input", str(tmp_path / "absent.csv")])
    assert code == 1


def _oom(_dataset):
    raise MemoryError("Unable to allocate 7.45 TiB for an array")


@pytest.mark.parametrize(
    "argv, line_3, patch, code, message",
    [
        (["estimate"], "2,inf,1.0,-1.0", None, 1, "line 3: y value 'inf' is not finite"),
        (["estimate"], "2,-inf,1.0,-1.0", None, 1, "line 3: y value '-inf' is not finite"),
        (["filter", "--baseline", "stationary"], "2,0.2,1.0,nan", None, 1, "line 3: u_2 value 'nan'"),
        (["filter", "--baseline", "stationary"], "2,0.2,inf,-1.0", None, 1, "line 3: u_1 value 'inf'"),
        (["estimate"], None, "stve.estimator.gram_matrix", 2, "out of memory"),
        (["spectrum"], None, "stve.estimator.gram_matrix", 2, "out of memory"),
        (["estimate", "--alpha", "0"], None, None, 3, "alpha must be in (0, 1]"),
        (["estimate", "--alpha", "1.5"], None, None, 3, "alpha must be in (0, 1]"),
        (["estimate", "--min-row-norm", "-1"], None, None, 3, "min_row_norm"),
        (["estimate", "--gap-warn", "-1"], None, None, 3, "gap_warn_threshold"),
        (["spectrum", "--min-row-norm", "-1"], None, None, 3, "min_row_norm"),
        (["filter", "--baseline", "stationary", "--window", "0"], None, None, 3, "--window"),
        (["filter", "--auto", "--alpha", "0"], None, None, 3, "alpha must be in (0, 1]"),
        (["filter", "--sigma2", "-1", "--eta2", "1"], None, None, 3, "sigma2"),
    ],
)
def test_failure_exit_codes(tmp_path, monkeypatch, argv, line_3, patch, code, message):
    lines = ["t,y,u_1,u_2"] + [f"{t},{0.1 * t!r},1.0,{-0.5 * t!r}" for t in range(1, 9)]
    if line_3 is not None:
        lines[2] = line_3
    path = tmp_path / "data.csv"
    path.write_text("\n".join(lines) + "\n")
    if patch is not None:
        monkeypatch.setattr(patch, _oom)
    exit_code, out, err = run_cli(argv + ["--input", str(path)])
    assert exit_code == code
    assert out == ""
    assert message in err
    assert len(err.strip().splitlines()) == 1


NON_UTF8_CSV = b"t,y,u_1\n1,1.0,0.1\n2,\xff,0.2\n"


@pytest.mark.parametrize("source", ["file", "stdin", "config"])
def test_non_utf8_input_exits_1(tmp_path, source):
    path = tmp_path / "input"
    stdin_text = None
    if source == "file":
        path.write_bytes(NON_UTF8_CSV)
        argv = ["estimate", "--input", str(path)]
    elif source == "stdin":
        # what a POSIX-locale stdin hands over for an undecodable byte
        stdin_text = NON_UTF8_CSV.decode("utf-8", "surrogateescape")
        argv = ["estimate", "--input", "-"]
    else:
        path.write_bytes(b'{"noise": "\xff"}')
        argv = ["benchmark", "--config", str(path)]
    code, out, err = run_cli(argv, stdin_text=stdin_text)
    assert code == 1
    assert out == ""
    assert err.startswith("stve: bad input: ")
    assert len(err.strip().splitlines()) == 1


def test_flat_spectrum_exits_2(tmp_path):
    path = tmp_path / "flat.csv"
    path.write_text(FLAT_CSV)
    code, _out, err = run_cli(["estimate", "--input", str(path)])
    assert code == 2
    assert "flat" in err


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["bogus"],
        ["estimate"],
        ["estimate", "--input", "x", "--format", "yaml"],
        ["simulate", "--T", "10"],
        # option values are checked before the (absent) input is opened
        ["estimate", "--input", "absent.csv", "--alpha", "0"],
        ["spectrum", "--input", "absent.csv", "--min-row-norm", "-1"],
        ["filter", "--input", "absent.csv", "--baseline", "og", "--window", "0"],
        ["simulate", "--T", "10", "--n", "1", "--sigma2", "1", "--eta2", "1", "--seed", "-1"],
    ],
)
def test_argument_errors_exit_3(argv):
    code, _out, _err = run_cli(argv)
    assert code == 3


# ---------------------------------------------------------------------------
# simulate


def test_simulate_zero_noise_zero_response(tmp_path):
    out_path = tmp_path / "zero.csv"
    code, _out, _err = run_cli(
        ["simulate", "--T", "12", "--n", "2", "--sigma2", "0", "--eta2", "0",
         "--output", str(out_path)]
    )
    assert code == 0
    dataset = read_csv(str(out_path))
    assert np.all(dataset.y == 0.0)


def test_simulate_same_seed_byte_identical(tmp_path):
    argv = ["simulate", "--T", "40", "--n", "3", "--sigma2", "0.5", "--eta2", "2",
            "--seed", "11"]
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(argv + ["--output", str(first)])[0] == 0
    assert run_cli(argv + ["--output", str(second)])[0] == 0
    assert first.read_bytes() == second.read_bytes()
    third = tmp_path / "c.csv"
    assert run_cli(argv[:-2] + ["--seed", "12", "--output", str(third)])[0] == 0
    assert first.read_bytes() != third.read_bytes()


def test_simulate_missing_spec_masks_rows(tmp_path):
    out_path = tmp_path / "masked.csv"
    code, _out, _err = run_cli(
        ["simulate", "--T", "30", "--n", "1", "--sigma2", "1", "--eta2", "1",
         "--missing", "10:20,25", "--output", str(out_path)]
    )
    assert code == 0
    dataset = read_csv(str(out_path))
    expected = np.ones(30, dtype=bool)
    expected[9:20] = False  # labels 10..20
    expected[24] = False  # label 25
    assert np.array_equal(dataset.observed, expected)


def test_simulate_constant_u(tmp_path):
    out_path = tmp_path / "const.csv"
    code, _out, _err = run_cli(
        ["simulate", "--T", "8", "--n", "2", "--sigma2", "0.5", "--eta2", "0.5",
         "--u", "constant", "--u-value", "1.0,-2.0", "--output", str(out_path)]
    )
    assert code == 0
    dataset = read_csv(str(out_path))
    assert np.array_equal(dataset.u, np.tile([1.0, -2.0], (8, 1)))


def test_simulate_u_from_file(tmp_path, rng):
    mat = rng.normal(size=(6, 2))
    u_path = tmp_path / "u.csv"
    np.savetxt(u_path, mat, delimiter=",")
    out_path = tmp_path / "sim.csv"
    code, _out, _err = run_cli(
        ["simulate", "--T", "6", "--n", "2", "--sigma2", "0.5", "--eta2", "0.5",
         "--u", "file", "--u-file", str(u_path), "--output", str(out_path)]
    )
    assert code == 0
    dataset = read_csv(str(out_path))
    np.testing.assert_allclose(dataset.u, mat, rtol=0, atol=1e-15)


def test_simulate_estimate_pipe_lossless(tmp_path):
    # composing through the CSV boundary (a real shell pipe) matches the
    # in-memory pipeline to 1e-12
    command = (
        f"{sys.executable} -m stve.cli simulate --T 120 --n 3 --sigma2 0.5 "
        f"--eta2 2 --seed 7 | {sys.executable} -m stve.cli estimate --input -"
    )
    proc = subprocess.run(
        ["sh", "-c", command], capture_output=True, text=True, cwd=tmp_path,
        env=child_env(os.environ),
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    dataset, _ = simulate(SimulationConfig(T=120, n=3, sigma2=0.5, eta2=2.0, seed=7))
    expected = estimate(dataset)
    assert abs(payload["sigma2"] - expected.sigma2) <= 1e-12
    assert abs(payload["eta2"] - expected.eta2) <= 1e-12


# ---------------------------------------------------------------------------
# benchmark


def test_benchmark_table_truth_stub():
    rows, slopes = benchmark_table(
        [10, 14, 20], 3, {"truth": lambda dataset: (0.4, 1.1)},
        sigma2=0.4, eta2=1.1, n=1,
    )
    assert len(rows) == 3
    assert all(row["mean_abs_err_sigma2"] == 0.0 for row in rows)
    assert all(row["mean_abs_err_eta2"] == 0.0 for row in rows)
    assert not slopes["truth"]["sigma2"]["defined"]
    assert not slopes["truth"]["eta2"]["defined"]
    assert np.isnan(slopes["truth"]["sigma2"]["slope"])


def test_benchmark_small_run(tmp_path):
    out_path = tmp_path / "bench.csv"
    code, _out, _err = run_cli(
        ["benchmark", "--T-grid", "10,14,20", "--reps", "2", "--estimators", "stve",
         "--seed", "5", "--out", str(out_path)]
    )
    assert code == 0
    comments, header, rows = parse_table(out_path.read_text())
    assert comments[0].startswith("# manifest ")
    assert header == [
        "T", "estimator", "mean_abs_err_sigma2", "stderr_sigma2",
        "mean_abs_err_eta2", "stderr_eta2", "replications",
        "slope_sigma2", "slope_eta2", "slope_defined",
    ]
    assert [row[0] for row in rows] == ["10", "14", "20"]
    assert all(row[1] == "stve" for row in rows)
    assert all(row[6] == "2" for row in rows)
    assert rows[0][9] in ("true", "false")


def test_benchmark_config_precedence(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"reps": 3, "sigma2": 1.5, "t_grid": [10, 14, 20]}))
    out_path = tmp_path / "bench.csv"
    code, _out, _err = run_cli(
        ["benchmark", "--config", str(config_path), "--reps", "2",
         "--estimators", "stve", "--out", str(out_path)]
    )
    assert code == 0
    manifest = read_manifest(out_path.read_text())
    assert manifest["config"]["reps"] == 2  # flag wins
    assert manifest["config"]["sigma2"] == 1.5  # file beats default
    assert manifest["config"]["t_grid"] == [10, 14, 20]


def test_benchmark_unknown_config_key_exits_3(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"walrus": 1}))
    code, _out, _err = run_cli(["benchmark", "--config", str(config_path)])
    assert code == 3


@pytest.mark.parametrize(
    "argv",
    [
        ["benchmark", "--T-grid", "10,20", "--reps", "2"],
        ["benchmark", "--T-grid", "10,14,20", "--reps", "1"],
        ["benchmark", "--T-grid", "10,14,20", "--reps", "2", "--estimators", "ols"],
        ["benchmark", "--T-grid", "10,14,20", "--reps", "2", "--n", "0"],
        ["benchmark", "--T-grid", "10,14,20", "--reps", "2", "--sigma2", "-1"],
        ["benchmark", "--T-grid", "10,14,20", "--reps", "2", "--alpha", "2"],
        ["benchmark", "--T-grid", "1,14,20", "--reps", "2"],
        ["benchmark", "--T-grid", "10,x,20", "--reps", "2"],
        ["benchmark", "--T-grid", "10,14,20", "--reps", "2", "--seed", "-1"],
        ["benchmark", "--T-grid", "20,20,20", "--reps", "3", "--estimators", "stve"],
        ["benchmark", "--T-grid", "10,10,20", "--reps", "3", "--estimators", "stve"],
    ],
)
def test_benchmark_validation_exits_3(argv):
    code, _out, _err = run_cli(argv)
    assert code == 3


@pytest.mark.parametrize("subcommand", ["simulate", "benchmark"])
def test_negative_seed_message_names_the_seed(subcommand):
    extra = ["--T", "10", "--n", "1", "--sigma2", "1", "--eta2", "1"] if subcommand == "simulate" else []
    code, out, err = run_cli([subcommand, *extra, "--seed", "-1"])
    assert code == 3
    assert out == ""
    assert "seed must be a non-negative integer" in err


def test_benchmark_runs_mle(tmp_path):
    out_path = tmp_path / "bench.csv"
    code, _out, _err = run_cli(
        ["benchmark", "--T-grid", "10,14,20", "--reps", "2", "--estimators", "stve,mle",
         "--seed", "5", "--out", str(out_path)]
    )
    assert code == 0
    _comments, _header, rows = parse_table(out_path.read_text())
    assert [(row[0], row[1]) for row in rows] == [
        (T, name) for T in ("10", "14", "20") for name in ("stve", "mle")
    ]
    for row in rows:
        assert row[6] == "2"
        assert all(np.isfinite(float(v)) for v in row[2:6])


def test_benchmark_estimators_together_match_separate_runs():
    # stve and mle share each simulated dataset; their rows are unchanged
    argv = ["benchmark", "--T-grid", "10,14,20", "--reps", "3", "--seed", "8", "--estimators"]
    tables = {}
    for estimators in ("stve,mle", "stve", "mle"):
        code, out, _err = run_cli(argv + [estimators])
        assert code == 0
        tables[estimators] = parse_table(out)[2]
    together = tables["stve,mle"]
    assert together[0::2] == tables["stve"]
    assert together[1::2] == tables["mle"]


# ---------------------------------------------------------------------------
# filter


def test_filter_stationary_exact_linear_has_zero_test_error(tmp_path, rng):
    coef = np.array([1.0, -0.5])
    u = rng.normal(size=(60, 2))
    dataset = make_dataset(rng, T=60, n=2, y=u @ coef, u=u)
    path = dataset_file(tmp_path, dataset)
    code, out, _err = run_cli(["filter", "--input", path, "--baseline", "stationary"])
    assert code == 0
    aggregate = read_aggregate(out)
    assert aggregate["baseline"] == "stationary"
    assert aggregate["train_mse"] < 1e-12
    assert aggregate["test_mse"] < 1e-12
    assert aggregate["train_count"] == 30
    assert aggregate["test_count"] == 30


def test_filter_auto_kalman_beats_stationary_on_drifting_data(tmp_path):
    dataset, _ = simulate(SimulationConfig(T=300, n=2, sigma2=1.0, eta2=1.0, seed=9))
    path = dataset_file(tmp_path, dataset)
    code_k, out_k, _ = run_cli(["filter", "--input", path, "--baseline", "kalman", "--auto"])
    code_s, out_s, _ = run_cli(["filter", "--input", path, "--baseline", "stationary"])
    assert code_k == 0 and code_s == 0
    kalman_mse = read_aggregate(out_k)["test_mse"]
    stationary_mse = read_aggregate(out_s)["test_mse"]
    # measured: 6.99 vs 613 — the adaptive filter wins by a wide margin
    assert kalman_mse < 0.1 * stationary_mse


def test_filter_kalman_needs_variances_or_auto(tmp_path, rng):
    dataset = make_dataset(rng, T=20, n=1)
    path = dataset_file(tmp_path, dataset)
    code, _out, _err = run_cli(["filter", "--input", path, "--baseline", "kalman"])
    assert code == 3


def test_filter_og_tunes_on_train(tmp_path):
    dataset, _ = simulate(SimulationConfig(T=120, n=2, sigma2=1.0, eta2=0.5, seed=15))
    path = dataset_file(tmp_path, dataset)
    code, out, _err = run_cli(["filter", "--input", path, "--baseline", "og"])
    assert code == 0
    manifest = read_manifest(out)
    assert manifest["config"]["learning_rate"] > 0.0
    aggregate = read_aggregate(out)
    assert aggregate["baseline"] == "og"
    assert aggregate["train_count"] + aggregate["test_count"] == 120


def test_filter_explicit_variances(tmp_path):
    dataset, _ = simulate(SimulationConfig(T=50, n=2, sigma2=0.5, eta2=1.0, seed=16))
    path = dataset_file(tmp_path, dataset)
    code, out, _err = run_cli(
        ["filter", "--input", path, "--sigma2", "0.5", "--eta2", "1.0"]
    )
    assert code == 0
    comments, header, rows = parse_table(out)
    assert header == ["t", "y", "yhat", "sq_err", "smoothed_sq_err"]
    assert len(rows) == 50
    manifest = read_manifest(out)
    assert manifest["config"]["sigma2"] == 0.5


def test_filter_smoothing_window_longer_than_series(tmp_path):
    # default window 50 exceeds T = 30: every smoothed cell is the plain mean
    dataset, _ = simulate(SimulationConfig(T=30, n=1, sigma2=0.5, eta2=1.0, seed=17))
    path = dataset_file(tmp_path, dataset)
    code, out, _err = run_cli(
        ["filter", "--input", path, "--sigma2", "0.5", "--eta2", "1.0"]
    )
    assert code == 0
    _comments, header, rows = parse_table(out)
    smoothed = {row[4] for row in rows}
    assert len(smoothed) == 1
    sq_errs = np.array([float(row[3]) for row in rows])
    assert float(next(iter(smoothed))) == pytest.approx(sq_errs.mean(), rel=1e-12)


def test_filter_bad_train_fraction_exits_3(tmp_path, rng):
    dataset = make_dataset(rng, T=20, n=1)
    path = dataset_file(tmp_path, dataset)
    code, _out, _err = run_cli(
        ["filter", "--input", path, "--baseline", "stationary", "--train-fraction", "1.5"]
    )
    assert code == 3


def test_moving_average_centered_window():
    values = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    np.testing.assert_allclose(
        _moving_average(values, 3), [1.5, 2.0, 3.0, 4.0, 4.5], rtol=1e-15
    )
    np.testing.assert_allclose(_moving_average(values, 9), np.full(5, 3.0), rtol=1e-15)
    with pytest.raises(ValueError, match="window"):
        _moving_average(values, 0)


def _moving_average_loop(values, window):
    # The O(T * window) reference: one slice mean per entry.
    count = values.shape[0]
    half_lo, half_hi = (window - 1) // 2, window // 2
    return np.array(
        [values[max(0, i - half_lo) : min(count, i + half_hi + 1)].mean() for i in range(count)]
    )


def test_moving_average_matches_loop(rng):
    values = rng.standard_t(2, size=9000) ** 2  # heavy-tailed squared errors
    count = values.shape[0]
    for window in (1, 2, 3, 50, 51, count - 1):
        np.testing.assert_allclose(
            _moving_average(values, window), _moving_average_loop(values, window), rtol=1e-14, atol=0
        )
    for window in (count, count + 1):
        np.testing.assert_array_equal(_moving_average(values, window), np.full(count, values.mean()))


# ---------------------------------------------------------------------------
# spectrum


def test_spectrum_hand_instance(tmp_path):
    path = tmp_path / "hand.csv"
    path.write_text("t,y,u_1\n1,1.0,1.0\n2,2.0,1.0\n")
    code, out, _err = run_cli(["spectrum", "--input", str(path)])
    assert code == 0
    _comments, header, rows = parse_table(out)
    assert header == ["i", "gamma_sq", "chi_sq", "truncated_mean", "full_mean"]
    golden_hi = (3.0 + np.sqrt(5.0)) / 2.0
    golden_lo = (3.0 - np.sqrt(5.0)) / 2.0
    gamma = [float(row[1]) for row in rows]
    chi = [float(row[2]) for row in rows]
    np.testing.assert_allclose(gamma, [golden_hi, golden_lo], rtol=1e-12)
    np.testing.assert_allclose(chi, [1.0 / golden_lo, 1.0 / golden_hi], rtol=1e-12)


def test_spectrum_flat_instance(tmp_path):
    path = tmp_path / "flat.csv"
    path.write_text(FLAT_CSV)
    code, out, _err = run_cli(["spectrum", "--input", str(path)])
    assert code == 0
    _comments, _header, rows = parse_table(out)
    chi = np.array([float(row[2]) for row in rows])
    truncated = np.array([float(row[3]) for row in rows])
    full_mean = np.array([float(row[4]) for row in rows])
    np.testing.assert_allclose(chi, 1.0, rtol=1e-10)
    np.testing.assert_allclose(truncated, full_mean, rtol=1e-10)


def test_spectrum_writes_output_file(tmp_path):
    dataset, _ = simulate(SimulationConfig(T=40, n=2, sigma2=0.5, eta2=1.0, seed=19))
    data_path = dataset_file(tmp_path, dataset)
    out_path = tmp_path / "spectrum.csv"
    code, _out, _err = run_cli(["spectrum", "--input", data_path, "--out", str(out_path)])
    assert code == 0
    text = out_path.read_text()
    assert text.startswith("# manifest ")
    _comments, _header, rows = parse_table(text)
    assert len(rows) == 40
