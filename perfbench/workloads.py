"""The benchmark's workloads: inputs made from a seed, one job, and its checks.

A job is one trajectory taken through the workload's pipeline.  The
workloads are chosen so that each module the planned optimisations touch
carries most of the time in one workload and almost none in another:

* estimate-large: `stve estimate` then `stve spectrum` on one CSV with
  T' = 1500 observed rows.  The dense O(T'^3) eigendecomposition is the
  floor here, so spectral and Gram-matrix changes show; no filter runs.
* replicate-sweep: simulate, estimate and mle_fit in-process for
  T in (100, 200, 400), one cell of `stve benchmark --estimators stve,mle`.
  The likelihood search and its filter passes carry the time; the spectral
  part is small, so a spectral-only change must not move it.  No CSV, no CLI.
* filter-long: `stve simulate --output` then `stve filter` three times
  (kalman, og, stationary) on a T = 10000 trajectory.  CSV write and parse,
  the Python filter and online-gradient loops and the CLI's own work carry
  the time; no eigendecomposition runs.

The package only ever receives the generated inputs: CSV files, CLI
arguments or a SimulationConfig.  `check` runs outside the timed region and
returns (problems, digest, sample): the problems found, a digest of the
job's outputs that must repeat at a fixed seed, and the job's accuracy
values, which run.py averages over the first DIGEST_JOBS jobs.
"""
from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np

from stve import baselines, cli, estimator, simulator

# The simulated truth, the defaults of `stve benchmark`.
SIGMA2 = 0.5
ETA2 = 2.0
DIM = 5

# Digest and accuracy cover this many first jobs, which every run completes
# (run.py measures at least stats.TAIL_BEYOND + 1 jobs).
DIGEST_JOBS = 6

# Accuracy values a job's check can return; a workload reports 0 for those
# it never produces.
ACCURACY = ("stve_mae_sigma2", "stve_mae_eta2", "mle_mae_sigma2", "mle_mae_eta2", "kalman_test_mse", "og_test_mse")

# Distinct trajectories a pooled workload cycles through.
POOL = DIGEST_JOBS

SIZES = {
    "full": {
        "estimate_observed": 1500,
        "estimate_missing": 79,
        "sweep_horizons": (100, 200, 400),
        "filter_horizon": 10000,
        "filter_missing": 1000,
    },
    # Small enough for a smoke test to finish in seconds.
    "tiny": {
        "estimate_observed": 60,
        "estimate_missing": 3,
        "sweep_horizons": (30, 40, 50),
        "filter_horizon": 400,
        "filter_missing": 40,
    },
}

FILTER_TRAIN_FRACTION = 0.05


def _cli(argv: list[str]) -> tuple[int, str]:
    """Run `stve <argv>` in-process; returns (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def _child_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def _table(path: Path) -> tuple[list[str], list[list[str]]]:
    """Comment lines and CSV records (header first) of a file the CLI wrote."""
    with open(path, newline="", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    comments = [line for line in lines if line.startswith("#")]
    records = list(csv.reader(line for line in lines if not line.startswith("#")))
    return comments, records


def _finite(values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def _sha(*parts: str) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part.encode("utf-8"))
        digest.update(b"\0")
    return digest.hexdigest()


class EstimateLarge:
    name = "estimate-large"
    cycle = 1
    reference = "blas"

    def __init__(self, size: dict, workdir: Path):
        self.observed = size["estimate_observed"]
        self.missing = size["estimate_missing"]
        self.workdir = workdir
        self.spectrum_path = workdir / "spectrum.csv"

    def make_inputs(self, seed: int) -> list[Path]:
        """Write POOL trajectories of the random-walk model as dataset CSVs.

        Exactly `missing` responses are blank in each, so every input has
        the same T' and the same eigendecomposition cost.
        """
        horizon = self.observed + self.missing
        paths = []
        for k in range(POOL):
            rng = np.random.default_rng(_child_seed(seed, k))
            u = rng.standard_normal((horizon, DIM))
            walk = np.cumsum(rng.normal(0.0, math.sqrt(SIGMA2), (horizon, DIM)), axis=0)
            y = np.einsum("ti,ti->t", u, walk) + rng.normal(0.0, math.sqrt(ETA2), horizon)
            blank = np.zeros(horizon, dtype=bool)
            blank[rng.choice(horizon, size=self.missing, replace=False)] = True
            path = self.workdir / f"estimate-{k}.csv"
            with open(path, "w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(["t", "y"] + [f"u_{j}" for j in range(1, DIM + 1)])
                for t in range(horizon):
                    writer.writerow([t + 1, "" if blank[t] else repr(float(y[t]))] + [repr(float(v)) for v in u[t]])
            paths.append(path)
        return paths

    def run_job(self, inputs: list[Path], index: int) -> dict:
        path = str(inputs[index % len(inputs)])
        code_estimate, text = _cli(["estimate", "--input", path])
        code_spectrum, _ = _cli(["spectrum", "--input", path, "--out", str(self.spectrum_path)])
        return {"codes": (code_estimate, code_spectrum), "estimate": text}

    def check(self, inputs, index: int, out: dict) -> tuple[list[str], str, dict]:
        if out["codes"] != (0, 0):
            return [f"exit codes {out['codes']}"], "", {}
        payload = json.loads(out["estimate"])
        problems = []
        keys = ("sigma2", "eta2", "sigma2_raw", "eta2_raw", "gap_ratio", "pinv_hs_sq", "trunc_hs_sq", "gap_lower_bound")
        if not _finite([payload[k] for k in keys]):
            problems.append("estimate payload is not finite")
        effective = payload["effective_T"]
        if effective != self.observed:
            problems.append(f"effective_T {effective}, expected {self.observed}")
        _comments, records = _table(self.spectrum_path)
        rows = records[1:]
        if len(rows) != effective:
            problems.append(f"spectrum has {len(rows)} rows, expected effective_T {effective}")
        expected = payload["pinv_hs_sq"] / effective
        full_mean = float(rows[0][4])
        if not abs(full_mean - expected) <= 1e-12 * abs(expected):
            problems.append(f"spectrum full_mean {full_mean!r} differs from pinv_hs_sq / effective_T {expected!r}")
        numbers = {k: v for k, v in payload.items() if k != "manifest"}
        digest = _sha(
            json.dumps(numbers, sort_keys=True),
            payload["manifest"]["input_digest"],
            *(",".join(row) for row in rows),
        )
        sample = {
            "stve_mae_sigma2": abs(payload["sigma2"] - SIGMA2),
            "stve_mae_eta2": abs(payload["eta2"] - ETA2),
        }
        return problems, digest, sample


class ReplicateSweep:
    name = "replicate-sweep"
    reference = "python"

    def __init__(self, size: dict, workdir: Path):
        self.horizons = size["sweep_horizons"]
        # Runs end on a whole sweep, so every run has the same mix of horizons.
        self.cycle = len(self.horizons)

    def make_inputs(self, seed: int) -> int:
        """Job i simulates with a child seed of (seed, i); nothing is written."""
        return seed

    def run_job(self, seed: int, index: int) -> dict:
        config = simulator.SimulationConfig(
            T=self.horizons[index % self.cycle], n=DIM, sigma2=SIGMA2, eta2=ETA2, seed=_child_seed(seed, index)
        )
        dataset, _path = simulator.simulate(config)
        fit = estimator.estimate(dataset)
        mle = baselines.mle_fit(dataset)
        return {"fit": fit, "mle": mle}

    def check(self, inputs, index: int, out: dict) -> tuple[list[str], str, dict]:
        fit, mle = out["fit"], out["mle"]
        problems = []
        if not _finite([fit.sigma2, fit.eta2, fit.sigma2_raw, fit.eta2_raw]):
            problems.append("estimate is not finite")
        if not (_finite([mle.sigma2, mle.eta2, mle.loglik]) and mle.sigma2 > 0.0 and mle.eta2 > 0.0):
            problems.append("mle_fit is not finite and positive")
        digest = _sha(repr((fit.sigma2, fit.eta2, fit.sigma2_raw, fit.eta2_raw)),
                      repr((mle.sigma2, mle.eta2, mle.loglik, mle.iterations, mle.converged)))
        sample = {
            "stve_mae_sigma2": abs(fit.sigma2 - SIGMA2),
            "stve_mae_eta2": abs(fit.eta2 - ETA2),
            "mle_mae_sigma2": abs(mle.sigma2 - SIGMA2),
            "mle_mae_eta2": abs(mle.eta2 - ETA2),
        }
        return problems, digest, sample


class FilterLong:
    name = "filter-long"
    cycle = 1
    reference = "python"
    filters = ("kalman", "og", "stationary")

    def __init__(self, size: dict, workdir: Path):
        self.horizon = size["filter_horizon"]
        self.missing = size["filter_missing"]
        self.data_path = workdir / "filter-data.csv"
        self.out_paths = {f: workdir / f"filter-{f}.csv" for f in self.filters}

    def make_inputs(self, seed: int) -> list[dict]:
        """POOL argument sets: a simulation seed, a --missing list and the expected split counts."""
        cut = math.floor(FILTER_TRAIN_FRACTION * self.horizon)
        inputs = []
        for k in range(POOL):
            rng = np.random.default_rng(_child_seed(seed, k))
            blank = np.sort(rng.choice(self.horizon, size=self.missing, replace=False))
            inputs.append(
                {
                    "seed": _child_seed(seed, POOL + k),
                    "missing": ",".join(str(t + 1) for t in blank),
                    "train_count": cut - int(np.sum(blank < cut)),
                    "test_count": self.horizon - cut - int(np.sum(blank >= cut)),
                }
            )
        return inputs

    def run_job(self, inputs: list[dict], index: int) -> dict:
        job = inputs[index % len(inputs)]
        data = str(self.data_path)
        truth = ["--sigma2", repr(SIGMA2), "--eta2", repr(ETA2)]
        codes = [
            _cli(["simulate", "--T", str(self.horizon), "--n", str(DIM), *truth, "--noise", "rademacher",
                  "--seed", str(job["seed"]), "--missing", job["missing"], "--output", data])[0]
        ]
        for baseline in self.filters:
            extra = truth if baseline == "kalman" else []
            codes.append(
                _cli(["filter", "--input", data, "--baseline", baseline, *extra,
                      "--train-fraction", repr(FILTER_TRAIN_FRACTION), "--out", str(self.out_paths[baseline])])[0]
            )
        return {"codes": tuple(codes)}

    def check(self, inputs: list[dict], index: int, out: dict) -> tuple[list[str], str, dict]:
        if any(out["codes"]):
            return [f"exit codes {out['codes']}"], "", {}
        job = inputs[index % len(inputs)]
        problems = []
        _comments, data = _table(self.data_path)
        if len(data) - 1 != self.horizon:
            problems.append(f"simulated file has {len(data) - 1} rows, expected {self.horizon}")
        parts = [",".join(row) for row in data]
        aggregates = {}
        for baseline, path in self.out_paths.items():
            comments, records = _table(path)
            line = next(c for c in comments if c.startswith("# aggregate "))
            aggregate = json.loads(line[len("# aggregate "):])
            aggregates[baseline] = aggregate
            if not _finite([aggregate["train_mse"], aggregate["test_mse"]]):
                problems.append(f"{baseline}: train/test mse not finite")
            counts = (aggregate["train_count"], aggregate["test_count"])
            if counts != (job["train_count"], job["test_count"]):
                problems.append(f"{baseline}: train/test counts {counts}, expected {(job['train_count'], job['test_count'])}")
            if len(records) - 1 != self.horizon:
                problems.append(f"{baseline}: {len(records) - 1} output rows, expected {self.horizon}")
            parts.append(line)
            parts.extend(",".join(row) for row in records)
        sample = {
            "kalman_test_mse": aggregates["kalman"]["test_mse"],
            "og_test_mse": aggregates["og"]["test_mse"],
        }
        return problems, _sha(*parts), sample


WORKLOADS = {w.name: w for w in (EstimateLarge, ReplicateSweep, FilterLong)}
