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
from .baselines import mle_fit, online_gradient_run, stationary_regression, tune_learning_rate
from .dataio import CsvFormatError, read_csv, write_columns, write_csv
from .estimator import StveConfig, estimate
from .kalman import KalmanConfig, run_filter
from .operators import filter_rows, gram_matrix, select_rows
from .simulator import NOISE_FAMILIES, SimulationConfig, benchmark_table, simulate as run_simulation
from .spectral import eigendecompose

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
    parser reads them; read_csv opens a path with newline="", which keeps
    those equal to the file's bytes.
    """
    digest = hashlib.sha256()
    dataset = read_csv(sys.stdin if path == "-" else path, digest=digest)
    return dataset, "sha256:" + digest.hexdigest()


@contextlib.contextmanager
def _table_file(path: str | None, comments: list[str]):
    """The output table's stream (stdout for None or '-'), its '#' comment
    lines already written."""
    to_stdout = path is None or path == "-"
    with contextlib.nullcontext(sys.stdout) if to_stdout else open(path, "w", newline="", encoding="utf-8") as fh:
        for comment in comments:
            fh.write("# " + comment + "\n")
        yield fh


def _write_table(path: str | None, comments: list[str], rows: list[dict]) -> None:
    """Write dict rows under a header of their keys.  csv writes a float as
    its repr and None as an empty cell; a bool is written lowercase."""
    with _table_file(path, comments) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(rows[0])
        writer.writerows([str(v).lower() if isinstance(v, bool) else v for v in row.values()] for row in rows)


def _log_duration(subcommand: str, started: float) -> None:
    print(f"stve {subcommand}: done in {time.perf_counter() - started:.2f}s", file=sys.stderr)


# --- estimate ---------------------------------------------------------------


def _cmd_estimate(args) -> int:
    started = time.perf_counter()
    config = _checked(StveConfig, alpha=args.alpha)
    dataset, digest = _load_dataset(args.input)
    result = estimate(dataset, config)
    manifest = _manifest(
        "estimate",
        {
            "input": args.input,
            "alpha": args.alpha,
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
        "dropped_count": int(result.dropped.size),
        "warnings": list(result.warnings),
    }
    if args.format == "json":
        payload["dropped"] = result.dropped.tolist()
        payload["manifest"] = manifest
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        row = {**payload, "warnings": "; ".join(result.warnings)}
        _write_table(None, [_comment("manifest", manifest)], [row])
    _log_duration("estimate", started)
    return 0


# --- simulate ---------------------------------------------------------------


def _parse_missing(spec: str | None, horizon: int) -> tuple[int, ...]:
    # A range is checked against [1, horizon] before it is expanded, so a huge
    # range fails at once instead of filling memory.  Once the list holds more
    # than horizon indices it must repeat one, so later ranges are not
    # expanded: SimulationConfig rejects the shorter list with the same error.
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
            if lo < 1 or hi > horizon:
                raise _UsageError(f"--missing range {part!r} must lie in [1, T]")
            if len(indices) <= horizon:
                indices.extend(range(lo, hi + 1))
        else:
            try:
                indices.append(int(part))
            except ValueError:
                raise _UsageError(f"bad --missing index {part!r}") from None
    return tuple(indices)


def _cmd_simulate(args) -> int:
    started = time.perf_counter()
    missing = _parse_missing(args.missing, args.T)
    u = None
    if args.u_value is not None:
        try:
            u = [float(v) for v in args.u_value.split(",")]
        except ValueError:
            raise _UsageError(f"bad --u-value value {args.u_value!r}") from None
    elif args.u_file is not None:
        try:
            u = np.loadtxt(args.u_file, delimiter=",", ndmin=2)
        except OSError as exc:
            raise _InputError(f"cannot read u file: {exc}") from None
        except ValueError as exc:
            raise _InputError(f"cannot parse u file: {exc}") from None
    config = _checked(
        SimulationConfig,
        T=args.T,
        n=args.n,
        sigma2=args.sigma2,
        eta2=args.eta2,
        noise_family=args.noise,
        u=u,
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
            "u_value": args.u_value,
            "u_file": args.u_file,
            "seed": args.seed,
            "missing": list(missing),
        },
    )
    with _table_file(args.output, [_comment("manifest", manifest)]) as fh:
        write_csv(dataset, fh)
    _log_duration("simulate", started)
    return 0


# --- benchmark --------------------------------------------------------------


def _stve_point_estimator(dataset, alpha=0.25):
    result = estimate(dataset, StveConfig(alpha=alpha))
    return result.sigma2, result.eta2


def _mle_point_estimator(dataset):
    result = mle_fit(dataset)
    return result.sigma2, result.eta2


def _integer(value) -> int:
    # Flags give int or str.  A JSON config can also give a float or a bool,
    # which int() would silently truncate or accept.
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise TypeError(f"not an integer: {value!r}")
    return int(value)


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
        resolved["t_grid"] = [_integer(v) for v in resolved["t_grid"]]
        for key in ("reps", "n", "seed"):
            resolved[key] = _integer(resolved[key])
    except (TypeError, ValueError):
        raise _UsageError("T grid, reps, n and seed must be integers") from None
    if len(set(resolved["t_grid"])) < 3:
        raise _UsageError("T grid needs at least 3 distinct values")
    if resolved["reps"] < 2:
        raise _UsageError("reps must be at least 2")
    unknown = [e for e in resolved["estimators"] if e not in ("stve", "mle")]
    if unknown or not resolved["estimators"]:
        raise _UsageError("estimators must be a non-empty subset of {stve, mle}")
    return resolved


def _cmd_benchmark(args) -> int:
    started = time.perf_counter()
    resolved = _resolve_benchmark_config(args)
    try:
        stve_config = StveConfig(alpha=float(resolved["alpha"]))
        # The table runs this cell at every T of the grid; the shortest T checks them all.
        cell = SimulationConfig(
            T=min(resolved["t_grid"]),
            n=resolved["n"],
            sigma2=float(resolved["sigma2"]),
            eta2=float(resolved["eta2"]),
            noise_family=resolved["noise"],
            seed=resolved["seed"],
        )
    except (TypeError, ValueError) as exc:
        raise _UsageError(str(exc)) from None
    estimator_fns = {}
    if "stve" in resolved["estimators"]:
        if cell.T < stve_config.min_rows:
            raise _UsageError(
                f"stve needs every T in the grid to be at least max(4, ceil(1/alpha)) = {stve_config.min_rows}"
            )
        estimator_fns["stve"] = partial(_stve_point_estimator, alpha=stve_config.alpha)
    if "mle" in resolved["estimators"]:
        estimator_fns["mle"] = _mle_point_estimator
    rows = benchmark_table(cell, resolved["t_grid"], resolved["reps"], estimator_fns)
    _write_table(args.out, [_comment("manifest", _manifest("benchmark", resolved))], rows)
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
    if args.baseline != "kalman" or args.auto:  # the baseline fits on the train split
        if int(dataset.observed[:cut].sum()) < 2:
            raise _UsageError("--train-fraction leaves fewer than 2 observed rows in the train split")
        train = select_rows(dataset, np.arange(cut))

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
        predictions = online_gradient_run(dataset, rate).predictions
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
    comments = [_comment("manifest", manifest), _comment("aggregate", aggregate)]
    with _table_file(args.out, comments) as fh:
        write_columns(
            fh,
            ["t", "y", "yhat", "sq_err", "smoothed_sq_err"],
            [dataset.time_index, (dataset.y, observed), predictions, (sq_err, observed), (smoothed, observed)],
        )
    _log_duration("filter", started)
    return 0


# --- spectrum ---------------------------------------------------------------


def _cmd_spectrum(args) -> int:
    started = time.perf_counter()
    dataset, digest = _load_dataset(args.input)
    # Eigenvalues only: no other consumer reads this dataset, so nothing is cached.
    filtered, _dropped = filter_rows(dataset)
    spectrum = eigendecompose(gram_matrix(filtered), vectors=False)
    order = spectrum.order
    gamma_sq = spectrum.eigenvalues
    chi_sq = (1.0 / gamma_sq)[::-1]  # descending pseudo-inverse spectrum
    prefix_mean = np.cumsum(chi_sq) / np.arange(1, order + 1)
    full_mean = float(chi_sq.sum() / order)
    manifest = _manifest("spectrum", {"input": args.input}, input_digest=digest)
    with _table_file(args.out, [_comment("manifest", manifest)]) as fh:
        write_columns(
            fh,
            ["i", "gamma_sq", "chi_sq", "truncated_mean", "full_mean"],
            [np.arange(1, order + 1), gamma_sq, chi_sq, prefix_mean, np.full(order, full_mean)],
        )
    _log_duration("spectrum", started)
    return 0


# --- parser -----------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="stve", description="Variance estimation toolkit for drifting linear regression.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_est = sub.add_parser("estimate", help="estimate (sigma2, eta2) from a dataset CSV")
    p_est.add_argument("--input", required=True, help="dataset CSV path")
    p_est.add_argument("--alpha", type=float, default=0.25, help="truncation fraction (default 0.25)")
    p_est.add_argument("--format", choices=["json", "csv"], default="json")
    p_est.set_defaults(handler=_cmd_estimate)

    p_sim = sub.add_parser("simulate", help="simulate a trajectory to CSV")
    p_sim.add_argument("--T", type=int, required=True)
    p_sim.add_argument("--n", type=int, required=True)
    p_sim.add_argument("--sigma2", type=float, required=True)
    p_sim.add_argument("--eta2", type=float, required=True)
    p_sim.add_argument("--noise", choices=list(NOISE_FAMILIES), default="gaussian")
    u_source = p_sim.add_mutually_exclusive_group()  # neither: iid standard normal rows
    u_source.add_argument("--u-value", dest="u_value", help="comma-separated row of length n used at every step")
    u_source.add_argument("--u-file", dest="u_file", help="headerless CSV of shape (T, n) giving the rows")
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
