"""Command-line front end.

Subcommands: estimate, simulate, benchmark, filter, spectrum.  Exit codes:
0 success, 1 unreadable, malformed or non-UTF-8 input, 2 numerical/model
errors or out of memory, 3 invalid arguments or option values (checked
before any work starts).  Output tables are plot-ready CSV whose first line
is a '#' comment carrying the run manifest (deterministic fields only, so
repeated runs with the same seed are byte-identical); wall-clock duration goes
to stderr.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import json
import math
import sys
import time
from functools import partial

import numpy as np

from . import __version__
from .baselines import (
    OnlineGradientConfig,
    mle_fit,
    online_gradient_run,
    stationary_regression,
    tune_learning_rate,
)
from .dataio import CsvFormatError, read_csv, split_dataset, write_csv
from .estimator import StveConfig, estimate, spectral_system
from .kalman import KalmanConfig, run_filter
# Not called here: perfbench's tracer wraps stve.cli.filter_rows, gram_matrix, eigendecompose.
from .operators import filter_rows, gram_matrix  # noqa: F401
from .simulator import NOISE_FAMILIES, SimulationConfig, benchmark_table, simulate as run_simulation
from .spectral import eigendecompose  # noqa: F401

__all__ = ["main"]

_BENCHMARK_DEFAULTS = {
    "sigma2": 0.5,
    "eta2": 2.0,
    "n": 5,
    "noise": "gaussian",
    "seed": 0,
    "reps": 150,
    "t_grid": [125, 250, 500, 1000],
    "estimators": ["stve", "mle"],
    "alpha": 0.25,
}

# Floor applied to auto-estimated eta2 before it enters the filter, which
# needs a strictly positive observation variance.
_ETA2_FLOOR = 1e-8


class _UsageError(Exception):
    """Invalid arguments or config values; maps to exit code 3."""


class _InputError(Exception):
    """Unreadable or malformed input file; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # force exit code 3 on argparse failures
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def _checked(factory, **kwargs):
    """Build a library config object; a ValueError from its checks is a usage error."""
    try:
        return factory(**kwargs)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _comment(label: str, payload: dict) -> str:
    return label + " " + json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _manifest(subcommand: str, config: dict, input_digest: str | None = None) -> dict:
    """Run manifest: deterministic fields only, so reruns are byte-identical."""
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return {
        "subcommand": subcommand,
        "config": config,
        "config_hash": hashlib.sha256(canonical).hexdigest(),
        "version": __version__,
        "input_digest": input_digest,
    }


def _load_dataset(path: str):
    """Parse a dataset from a path or stdin ('-') in one streaming pass.

    Returns (dataset, digest).  The digest is the sha256 of the lines as the
    parser reads them; newline="" keeps those equal to the file's bytes.
    """
    digest = hashlib.sha256()

    def hashed(lines):
        for line in lines:
            digest.update(line.encode("utf-8"))
            yield line

    if path == "-":
        dataset = read_csv(hashed(sys.stdin))
    else:
        with open(path, encoding="utf-8", newline="") as fh:
            dataset = read_csv(hashed(fh))
    return dataset, "sha256:" + digest.hexdigest()


def _write_table(path: str | None, comments: list[str], header: list[str], rows: list[list]) -> None:
    to_stdout = path is None or path == "-"
    with contextlib.nullcontext(sys.stdout) if to_stdout else open(path, "w", newline="", encoding="utf-8") as fh:
        for comment in comments:
            fh.write("# " + comment + "\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _log_duration(subcommand: str, started: float) -> None:
    print(f"stve {subcommand}: done in {time.perf_counter() - started:.2f}s", file=sys.stderr)


# --- estimate ---------------------------------------------------------------


def _cmd_estimate(args) -> int:
    started = time.perf_counter()
    config = _checked(
        StveConfig,
        alpha=args.alpha,
        min_row_norm=args.min_row_norm,
        gap_warn_threshold=args.gap_warn,
    )
    dataset, digest = _load_dataset(args.input)
    result = estimate(dataset, config)
    manifest = _manifest(
        "estimate",
        {
            "input": args.input,
            "alpha": args.alpha,
            "min_row_norm": args.min_row_norm,
            "gap_warn_threshold": args.gap_warn,
            "format": args.format,
        },
        input_digest=digest,
    )
    payload = {
        "sigma2": result.sigma2,
        "eta2": result.eta2,
        "sigma2_raw": result.sigma2_raw,
        "eta2_raw": result.eta2_raw,
        "effective_T": result.effective_T,
        "p": result.functionals.p,
        "gap_ratio": result.functionals.gap_ratio,
        "pinv_hs_sq": result.functionals.pinv_hs_sq,
        "trunc_hs_sq": result.functionals.trunc_hs_sq,
        "gap_lower_bound": result.gap_lower_bound,
        "warnings": list(result.warnings),
    }
    if args.format == "json":
        payload["manifest"] = manifest
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        keys = [k for k in payload if k != "warnings"]
        row = [_cell(payload[k]) for k in keys] + ["; ".join(result.warnings)]
        _write_table(None, [_comment("manifest", manifest)], keys + ["warnings"], [row])
    _log_duration("estimate", started)
    return 0


# --- simulate ---------------------------------------------------------------


def _parse_missing(spec: str | None) -> tuple[int, ...]:
    if not spec:
        return ()
    indices: list[int] = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if ":" in part:
            lo_s, hi_s = part.split(":", 1)
            try:
                lo, hi = int(lo_s), int(hi_s)
            except ValueError:
                raise _UsageError(f"bad --missing range {part!r}") from None
            if lo > hi:
                raise _UsageError(f"bad --missing range {part!r}")
            indices.extend(range(lo, hi + 1))
        else:
            try:
                indices.append(int(part))
            except ValueError:
                raise _UsageError(f"bad --missing index {part!r}") from None
    return tuple(indices)


def _parse_vector(text: str, flag: str) -> tuple[float, ...]:
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError:
        raise _UsageError(f"bad {flag} value {text!r}") from None


def _cmd_simulate(args) -> int:
    started = time.perf_counter()
    missing = _parse_missing(args.missing)
    u_kind = args.u
    u_constant = None
    u_matrix = None
    if u_kind == "constant":
        if args.u_value is None:
            raise _UsageError("--u constant requires --u-value")
        u_constant = _parse_vector(args.u_value, "--u-value")
    if u_kind == "file":
        if args.u_file is None:
            raise _UsageError("--u file requires --u-file")
        try:
            u_matrix = np.loadtxt(args.u_file, delimiter=",", ndmin=2)
        except OSError as exc:
            raise _InputError(f"cannot read u file: {exc}") from None
        except ValueError as exc:
            raise _InputError(f"cannot parse u file: {exc}") from None
        u_kind = "array"
    config = _checked(
        SimulationConfig,
        T=args.T,
        n=args.n,
        sigma2=args.sigma2,
        eta2=args.eta2,
        noise_family=args.noise,
        u_kind=u_kind,
        u_constant=u_constant,
        u_matrix=u_matrix,
        seed=args.seed,
        missing=missing,
    )
    dataset, _states = run_simulation(config)
    manifest = _manifest(
        "simulate",
        {
            "T": args.T,
            "n": args.n,
            "sigma2": args.sigma2,
            "eta2": args.eta2,
            "noise": args.noise,
            "u": args.u,
            "u_value": args.u_value,
            "u_file": args.u_file,
            "seed": args.seed,
            "missing": list(missing),
        },
    )
    destination = sys.stdout if args.output in (None, "-") else args.output
    write_csv(dataset, destination, comment=_comment("manifest", manifest))
    _log_duration("simulate", started)
    return 0


# --- benchmark --------------------------------------------------------------


def _stve_point_estimator(dataset, alpha=0.25):
    result = estimate(dataset, StveConfig(alpha=alpha))
    return result.sigma2, result.eta2


def _mle_point_estimator(dataset):
    result = mle_fit(dataset)
    return result.sigma2, result.eta2


def _resolve_benchmark_config(args) -> dict:
    resolved = dict(_BENCHMARK_DEFAULTS)
    if args.config is not None:
        try:
            with open(args.config, encoding="utf-8") as fh:
                loaded = json.load(fh)
        except OSError as exc:
            raise _InputError(f"cannot read config file: {exc}") from None
        except json.JSONDecodeError as exc:
            raise _InputError(f"cannot parse config file: {exc}") from None
        if not isinstance(loaded, dict):
            raise _UsageError("config file must hold a JSON object")
        for key, value in loaded.items():
            if key not in resolved:
                raise _UsageError(f"unknown config key {key!r}")
            resolved[key] = value
    for key in _BENCHMARK_DEFAULTS:  # each key is also the flag's dest
        if getattr(args, key) is not None:
            resolved[key] = getattr(args, key)
    if isinstance(resolved["t_grid"], str):
        resolved["t_grid"] = resolved["t_grid"].split(",")
    if isinstance(resolved["estimators"], str):
        resolved["estimators"] = [v.strip() for v in resolved["estimators"].split(",") if v.strip()]
    try:
        resolved["t_grid"] = [int(v) for v in resolved["t_grid"]]
        reps = int(resolved["reps"])
    except (TypeError, ValueError):
        raise _UsageError("T grid and reps must be integers") from None
    if len(set(resolved["t_grid"])) < 3:
        raise _UsageError("T grid needs at least 3 distinct values")
    if reps < 2:
        raise _UsageError("reps must be at least 2")
    unknown = [e for e in resolved["estimators"] if e not in ("stve", "mle")]
    if unknown or not resolved["estimators"]:
        raise _UsageError("estimators must be a non-empty subset of {stve, mle}")
    return resolved


def _cmd_benchmark(args) -> int:
    started = time.perf_counter()
    resolved = _resolve_benchmark_config(args)
    try:
        alpha = StveConfig(alpha=float(resolved["alpha"])).alpha
        seed = int(resolved["seed"])
        # Grid cells differ only in T, so the shortest one checks them all.
        cell = SimulationConfig(
            T=min(resolved["t_grid"]),
            n=int(resolved["n"]),
            sigma2=float(resolved["sigma2"]),
            eta2=float(resolved["eta2"]),
            noise_family=resolved["noise"],
            seed=seed,
        )
    except (TypeError, ValueError) as exc:
        raise _UsageError(str(exc)) from None
    estimator_fns = {}
    if "stve" in resolved["estimators"]:
        estimator_fns["stve"] = partial(_stve_point_estimator, alpha=alpha)
    if "mle" in resolved["estimators"]:
        estimator_fns["mle"] = _mle_point_estimator
    rows, slopes = benchmark_table(
        resolved["t_grid"],
        int(resolved["reps"]),
        estimator_fns,
        sigma2=cell.sigma2,
        eta2=cell.eta2,
        n=cell.n,
        noise_family=cell.noise_family,
        seed=seed,
    )
    manifest = _manifest("benchmark", resolved)
    header = [
        "T",
        "estimator",
        "mean_abs_err_sigma2",
        "stderr_sigma2",
        "mean_abs_err_eta2",
        "stderr_eta2",
        "replications",
        "slope_sigma2",
        "slope_eta2",
        "slope_defined",
    ]
    table = []
    for row in rows:
        slope_info = slopes[row["estimator"]]
        defined = slope_info["sigma2"]["defined"] and slope_info["eta2"]["defined"]
        table.append(
            [
                row["T"],
                row["estimator"],
                _cell(row["mean_abs_err_sigma2"]),
                _cell(row["stderr_sigma2"]),
                _cell(row["mean_abs_err_eta2"]),
                _cell(row["stderr_eta2"]),
                row["replications"],
                _cell(slope_info["sigma2"]["slope"]),
                _cell(slope_info["eta2"]["slope"]),
                str(defined).lower(),
            ]
        )
    _write_table(args.out, [_comment("manifest", manifest)], header, table)
    _log_duration("benchmark", started)
    return 0


# --- filter -----------------------------------------------------------------


def _moving_average(values: np.ndarray, window: int) -> np.ndarray:
    """Centred moving average; the window is cut at both ends of the series."""
    if window < 1:
        raise ValueError("window must be at least 1")
    arr = np.asarray(values, dtype=np.float64)
    count = arr.shape[0]
    if count == 0:
        return arr.copy()
    if window >= count:
        return np.full(count, float(arr.mean()))
    # Entry i covers arr[i - (window - 1) // 2 : i + window // 2 + 1].  Direct
    # sums, not differences of prefix sums, which lose small values.
    ones = np.ones(window)
    start = window // 2
    sums = np.convolve(arr, ones)[start : start + count]
    sizes = np.convolve(np.ones(count), ones)[start : start + count]
    return sums / sizes


def _cmd_filter(args) -> int:
    started = time.perf_counter()
    if not (0.0 < args.train_fraction < 1.0):
        raise _UsageError("--train-fraction must be in (0, 1)")
    if args.window < 1:
        raise _UsageError("--window must be at least 1")
    stve_config = _checked(StveConfig, alpha=args.alpha)
    if args.baseline == "kalman" and not args.auto:
        if args.sigma2 is None or args.eta2 is None:
            raise _UsageError("kalman baseline needs --sigma2 and --eta2, or --auto")
        kalman_config = _checked(KalmanConfig, sigma2=args.sigma2, eta2=args.eta2)
    dataset, digest = _load_dataset(args.input)
    cut = int(math.floor(args.train_fraction * dataset.horizon))
    if not (0 < cut < dataset.horizon):
        raise _UsageError("--train-fraction leaves an empty split")
    train, _test = split_dataset(dataset, cut)

    resolved: dict = {
        "input": args.input,
        "baseline": args.baseline,
        "train_fraction": args.train_fraction,
        "window": args.window,
        "auto": bool(args.auto),
    }
    if args.baseline == "kalman":
        if args.auto:
            fitted = estimate(train, stve_config)
            kalman_config = KalmanConfig(sigma2=fitted.sigma2, eta2=max(fitted.eta2, _ETA2_FLOOR))
        resolved.update({"sigma2": kalman_config.sigma2, "eta2": kalman_config.eta2})
        predictions = run_filter(dataset, kalman_config).predictions
    elif args.baseline == "og":
        rate = tune_learning_rate(train)
        resolved.update({"learning_rate": rate})
        predictions = online_gradient_run(dataset, OnlineGradientConfig(rate)).predictions
    else:
        coef = stationary_regression(train)
        resolved.update({"coefficients": [float(c) for c in coef]})
        predictions = dataset.u @ coef

    observed = dataset.observed
    sq_err = np.where(observed, (dataset.y - predictions) ** 2, np.nan)
    smoothed_obs = _moving_average(sq_err[observed], args.window)
    smoothed = np.full(dataset.horizon, np.nan)
    smoothed[observed] = smoothed_obs

    train_mask = observed & (np.arange(dataset.horizon) < cut)
    test_mask = observed & (np.arange(dataset.horizon) >= cut)
    aggregate = {
        "baseline": args.baseline,
        "train_mse": float(np.nanmean(sq_err[train_mask])) if train_mask.any() else None,
        "test_mse": float(np.nanmean(sq_err[test_mask])) if test_mask.any() else None,
        "train_count": int(train_mask.sum()),
        "test_count": int(test_mask.sum()),
    }
    manifest = _manifest("filter", resolved, input_digest=digest)
    header = ["t", "y", "yhat", "sq_err", "smoothed_sq_err"]
    rows = [
        [
            int(dataset.time_index[k]),
            _cell(float(dataset.y[k])) if observed[k] else "",
            _cell(float(predictions[k])),
            _cell(float(sq_err[k])) if observed[k] else "",
            _cell(float(smoothed[k])) if observed[k] else "",
        ]
        for k in range(dataset.horizon)
    ]
    comments = [_comment("manifest", manifest), _comment("aggregate", aggregate)]
    _write_table(args.out, comments, header, rows)
    _log_duration("filter", started)
    return 0


# --- spectrum ---------------------------------------------------------------


def _cmd_spectrum(args) -> int:
    started = time.perf_counter()
    config = _checked(StveConfig, min_row_norm=args.min_row_norm)
    dataset, digest = _load_dataset(args.input)
    _filtered, _dropped, spectrum = spectral_system(dataset, config.min_row_norm)
    order = spectrum.order
    gamma_sq = spectrum.eigenvalues
    chi_sq = (1.0 / gamma_sq)[::-1]  # descending pseudo-inverse spectrum
    prefix_mean = np.cumsum(chi_sq) / np.arange(1, order + 1)
    full_mean = float(chi_sq.sum() / order)
    manifest = _manifest(
        "spectrum",
        {"input": args.input, "min_row_norm": args.min_row_norm},
        input_digest=digest,
    )
    header = ["i", "gamma_sq", "chi_sq", "truncated_mean", "full_mean"]
    rows = [
        [i + 1, _cell(float(gamma_sq[i])), _cell(float(chi_sq[i])), _cell(float(prefix_mean[i])), _cell(full_mean)]
        for i in range(order)
    ]
    _write_table(args.out, [_comment("manifest", manifest)], header, rows)
    _log_duration("spectrum", started)
    return 0


# --- parser -----------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="stve", description="Variance estimation toolkit for drifting linear regression.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_est = sub.add_parser("estimate", help="estimate (sigma2, eta2) from a dataset CSV")
    p_est.add_argument("--input", required=True, help="dataset CSV path")
    p_est.add_argument("--alpha", type=float, default=0.25, help="truncation fraction (default 0.25)")
    p_est.add_argument("--min-row-norm", type=float, default=1e-8, dest="min_row_norm")
    p_est.add_argument("--gap-warn", type=float, default=0.05, dest="gap_warn")
    p_est.add_argument("--format", choices=["json", "csv"], default="json")
    p_est.set_defaults(handler=_cmd_estimate)

    p_sim = sub.add_parser("simulate", help="simulate a trajectory to CSV")
    p_sim.add_argument("--T", type=int, required=True)
    p_sim.add_argument("--n", type=int, required=True)
    p_sim.add_argument("--sigma2", type=float, required=True)
    p_sim.add_argument("--eta2", type=float, required=True)
    p_sim.add_argument("--noise", choices=list(NOISE_FAMILIES), default="gaussian")
    p_sim.add_argument("--u", choices=["gaussian", "constant", "file"], default="gaussian")
    p_sim.add_argument("--u-value", dest="u_value", help="comma-separated vector for --u constant")
    p_sim.add_argument("--u-file", dest="u_file", help="headerless CSV of shape (T, n) for --u file")
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--missing", help="1-based indices to mask, e.g. '10:20,25'")
    p_sim.add_argument("--output", help="output CSV path (default stdout)")
    p_sim.set_defaults(handler=_cmd_simulate)

    p_bench = sub.add_parser("benchmark", help="error-decay table over a horizon grid")
    p_bench.add_argument("--config", help="JSON config file; flags override it")
    p_bench.add_argument("--reps", type=int)
    p_bench.add_argument("--T-grid", dest="t_grid", help="comma-separated horizons (>= 3 distinct)")
    p_bench.add_argument("--sigma2", type=float)
    p_bench.add_argument("--eta2", type=float)
    p_bench.add_argument("--n", type=int)
    p_bench.add_argument("--noise", choices=list(NOISE_FAMILIES))
    p_bench.add_argument("--seed", type=int)
    p_bench.add_argument("--alpha", type=float)
    p_bench.add_argument("--estimators", help="subset of stve,mle (default both)")
    p_bench.add_argument("--out", help="output CSV path (default stdout)")
    p_bench.set_defaults(handler=_cmd_benchmark)

    p_filt = sub.add_parser("filter", help="per-step predictions and errors for one baseline")
    p_filt.add_argument("--input", required=True)
    p_filt.add_argument("--baseline", choices=["kalman", "og", "stationary"], default="kalman")
    p_filt.add_argument("--sigma2", type=float, help="kalman process variance (ignored by og/stationary)")
    p_filt.add_argument("--eta2", type=float, help="kalman observation variance (ignored by og/stationary)")
    p_filt.add_argument("--auto", action="store_true", help="estimate variances on the train split")
    p_filt.add_argument("--alpha", type=float, default=0.25, help="truncation fraction for --auto")
    p_filt.add_argument("--train-fraction", type=float, default=0.5, dest="train_fraction")
    p_filt.add_argument("--window", type=int, default=50, help="moving-average window for errors")
    p_filt.add_argument("--out", help="output CSV path (default stdout)")
    p_filt.set_defaults(handler=_cmd_filter)

    p_spec = sub.add_parser("spectrum", help="Gram spectrum and truncated means, plot-ready")
    p_spec.add_argument("--input", required=True)
    p_spec.add_argument("--min-row-norm", type=float, default=1e-8, dest="min_row_norm")
    p_spec.add_argument("--out", help="output CSV path (default stdout)")
    p_spec.set_defaults(handler=_cmd_spectrum)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except _UsageError as exc:
        print(f"stve: invalid arguments: {exc}", file=sys.stderr)
        return 3
    except (CsvFormatError, _InputError, UnicodeError) as exc:
        print(f"stve: bad input: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"stve: i/o error: {exc}", file=sys.stderr)
        return 1
    except (np.linalg.LinAlgError, FloatingPointError, ValueError, RuntimeError, OverflowError, ZeroDivisionError) as exc:
        print(f"stve: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"stve: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
