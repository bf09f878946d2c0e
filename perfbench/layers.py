"""Where the traced run wraps the package, and the per-layer metrics it derives.

Each wrap point is the module attribute a caller looks the function up by:
cli.py calls `stve.cli.<name>`, estimator.py calls `stve.estimator.<name>`,
baselines.py calls `stve.baselines.run_filter` and
`stve.baselines.online_gradient_run`, and the benchmark's own jobs call
`stve.cli.main`, `stve.simulator.simulate`, `stve.estimator.estimate` and
`stve.baselines.mle_fit`.  Functions reached through several names are
wrapped under each of them with one span name, so the layer totals count
every call.
"""
from __future__ import annotations

import importlib
from collections import defaultdict

CLI_SUBCOMMANDS = ("estimate", "spectrum", "simulate", "filter")


def _subcommand(args, kwargs, result):
    return {"subcommand": args[0][0]}


def _rows(args, kwargs, result):
    return {"rows": result.horizon}


def _steps(args, kwargs, result):
    return {"steps": args[0].horizon}


def _nbytes(args, kwargs, result):
    # Bytes of the dense T' x T' matrix, computed from its shape.
    return {"bytes": result.nbytes}


def _clamped(args, kwargs, result):
    return {"clamped": any("clamped" in w for w in result.warnings)}


def _mle(args, kwargs, result):
    return {"iterations": result.iterations, "converged": result.converged}


# (module, attribute, span name, annotate)
WRAP_POINTS = (
    ("stve.cli", "main", "cli.main", _subcommand),
    ("stve.cli", "read_csv", "dataio.read_csv", _rows),
    ("stve.cli", "write_csv", "dataio.write_csv", None),
    ("stve.cli", "run_simulation", "simulator.simulate", None),
    ("stve.cli", "estimate", "estimator.estimate", _clamped),
    ("stve.cli", "filter_rows", "operators.filter_rows", None),
    ("stve.cli", "gram_matrix", "operators.gram_matrix", _nbytes),
    ("stve.cli", "eigendecompose", "spectral.eigendecompose", None),
    ("stve.cli", "run_filter", "kalman.run_filter", _steps),
    ("stve.cli", "tune_learning_rate", "baselines.tune_learning_rate", None),
    ("stve.cli", "online_gradient_run", "baselines.online_gradient_run", None),
    ("stve.cli", "stationary_regression", "baselines.stationary_regression", None),
    ("stve.simulator", "simulate", "simulator.simulate", None),
    ("stve.estimator", "estimate", "estimator.estimate", _clamped),
    ("stve.estimator", "filter_rows", "operators.filter_rows", None),
    ("stve.estimator", "gram_matrix", "operators.gram_matrix", _nbytes),
    ("stve.estimator", "eigendecompose", "spectral.eigendecompose", None),
    ("stve.estimator", "functionals", "spectral.functionals", None),
    ("stve.estimator", "quadratic_forms", "spectral.quadratic_forms", None),
    ("stve.baselines", "mle_fit", "baselines.mle_fit", _mle),
    ("stve.baselines", "run_filter", "kalman.run_filter", _steps),
    ("stve.baselines", "online_gradient_run", "baselines.online_gradient_run", None),
)


def install(tracer) -> None:
    """Wrap every point in WRAP_POINTS."""
    for module, attr, name, annotate in WRAP_POINTS:
        tracer.wrap(importlib.import_module(module), attr, name, annotate)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer, jobs: int) -> dict[str, float]:
    """Per-layer metrics of a traced run over `jobs` jobs.

    Times and call counts are per job; shares, fractions and rates are
    ratios of totals.  A layer the workload never calls reads 0.
    """
    spans = tracer.spans
    selfs = tracer.self_times()
    total = defaultdict(float)
    own = defaultdict(float)
    calls = defaultdict(int)
    for span, self_s in zip(spans, selfs):
        total[span.name] += span.duration
        own[span.name] += self_s
        calls[span.name] += 1

    def parent_name(span):
        return spans[span.parent].name if span.parent is not None else None

    def per_job(value: float) -> float:
        return _ratio(value, jobs)

    eigh_in_estimate = sum(
        s.duration for s in spans if s.name == "spectral.eigendecompose" and parent_name(s) == "estimator.estimate"
    )
    estimates = [s for s in spans if s.name == "estimator.estimate"]
    fits = [s for s in spans if s.name == "baselines.mle_fit"]
    filters = [s for s in spans if s.name == "kalman.run_filter"]
    passes = [s for s in spans if s.name == "baselines.online_gradient_run"]
    reads = [s for s in spans if s.name == "dataio.read_csv"]
    grams = [s for s in spans if s.name == "operators.gram_matrix"]
    mains = [(s, self_s) for s, self_s in zip(spans, selfs) if s.name == "cli.main"]

    metrics = {
        "job.span_s": per_job(total["job"]),
        "spectral.eigendecompose_s": per_job(total["spectral.eigendecompose"]),
        "spectral.eigendecompose_calls": per_job(calls["spectral.eigendecompose"]),
        "spectral.job_share": _ratio(total["spectral.eigendecompose"], total["job"]),
        "estimator.spectral_share": _ratio(eigh_in_estimate, total["estimator.estimate"]),
        "operators.gram_matrix_s": per_job(total["operators.gram_matrix"]),
        "operators.gram_bytes": float(max((s.attrs.get("bytes", 0) for s in grams), default=0)),
        "estimator.estimate_s": per_job(total["estimator.estimate"]),
        "estimator.estimate_self_s": per_job(own["estimator.estimate"]),
        "spectral.quadratic_forms_s": per_job(total["spectral.quadratic_forms"]),
        "spectral.functionals_s": per_job(total["spectral.functionals"]),
        "operators.filter_rows_s": per_job(total["operators.filter_rows"]),
        "estimator.clamped_frac": _ratio(sum(s.attrs.get("clamped", False) for s in estimates), len(estimates)),
        "baselines.mle_fit_s": per_job(total["baselines.mle_fit"]),
        "baselines.mle_fit_self_s": per_job(own["baselines.mle_fit"]),
        "baselines.mle_evals": _ratio(
            sum(1 for s in filters if parent_name(s) == "baselines.mle_fit"), len(fits)
        ),
        "baselines.mle_iterations": _ratio(sum(s.attrs.get("iterations", 0) for s in fits), len(fits)),
        "baselines.mle_converged_frac": _ratio(sum(s.attrs.get("converged", False) for s in fits), len(fits)),
        "kalman.run_filter_s": per_job(total["kalman.run_filter"]),
        "kalman.run_filter_calls": per_job(calls["kalman.run_filter"]),
        "kalman.steps_per_s": _ratio(sum(s.attrs.get("steps", 0) for s in filters), total["kalman.run_filter"]),
        "baselines.tune_learning_rate_s": per_job(total["baselines.tune_learning_rate"]),
        "baselines.og_passes": per_job(len(passes)),
        "baselines.og_diverged_frac": _ratio(sum(s.error for s in passes), len(passes)),
        "baselines.stationary_regression_s": per_job(total["baselines.stationary_regression"]),
        "dataio.read_csv_s": per_job(total["dataio.read_csv"]),
        "dataio.write_csv_s": per_job(total["dataio.write_csv"]),
        "dataio.read_rows_per_s": _ratio(sum(s.attrs.get("rows", 0) for s in reads), total["dataio.read_csv"]),
        "simulator.simulate_s": per_job(total["simulator.simulate"]),
        "cli.self_s": per_job(sum(self_s for _s, self_s in mains)),
    }
    for sub in CLI_SUBCOMMANDS:
        metrics[f"cli.main_s.{sub}"] = per_job(
            sum(s.duration for s, _self in mains if s.attrs.get("subcommand") == sub)
        )
    return metrics


def job_stage_shares(tracer) -> dict[str, float]:
    """Share of total job time spent in each kind of direct child of a job span."""
    spans = tracer.spans
    job_total = sum(s.duration for s in spans if s.name == "job")
    stages = defaultdict(float)
    for span in spans:
        if span.parent is not None and spans[span.parent].name == "job":
            stages[span.name] += span.duration
    return {name: _ratio(value, job_total) for name, value in sorted(stages.items())}


def self_time_shares(tracer) -> dict[str, float]:
    """Share of total job time that is each span name's own (self) time."""
    spans = tracer.spans
    job_total = sum(s.duration for s in spans if s.name == "job")
    own = defaultdict(float)
    for span, self_s in zip(spans, tracer.self_times()):
        own[span.name] += self_s
    return {name: _ratio(value, job_total) for name, value in sorted(own.items(), key=lambda kv: -kv[1])}
