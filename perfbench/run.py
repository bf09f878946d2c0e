"""Benchmark of the stve package: one workload per run, metrics as one JSON line.

Run from the repository root:

    python3 perfbench/run.py --workload estimate-large --seed 1 --seconds 28 --trace 0

With --trace 0 the run measures the end-to-end metrics of BENCHMARK.json.
With --trace 1 every other sweep of jobs runs traced, so traced and
untraced jobs share the host's speed; it reports the per-layer metrics, the
tracing overhead (traced minus untraced jobs_per_s) and writes the spans to
<workdir>/spans-<seed>.json.  Human-readable lines come first; the last
line of stdout is {"correct", "attempted", "failed", "metrics"}.

Job times are normalised by a reference kernel timed around each job (see
host.py), set-up times by the numpy import of their own fresh interpreter;
the raw seconds are reported as host.raw_* metrics.  The package
is imported from src/ beside this directory and driven only through its
public functions and `stve.cli.main`, in this one process.  BLAS is pinned
to one thread before numpy is imported.  Exit codes: 0 when the run
finished (whether or not every check passed, which `correct` says), 1 when
a metric of BENCHMARK.json got no value, 2 when the package source or
BENCHMARK.json is missing.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import layers  # imports no package module until install()

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Set-up is repeated and its median reported, so one slow repeat does not move it.
SETUP_REPEATS = 11

IMPORT_PROBE = ("import time; t = time.perf_counter(); import numpy; n = time.perf_counter(); import stve.cli; "
                "print(n - t, time.perf_counter() - t)")


def _parse(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny is for smoke tests")
    parser.add_argument("--workdir", type=Path, help="where inputs, outputs and spans go (default .perfbench_work/<workload>)")
    return parser.parse_args(argv)


def import_seconds() -> tuple[float, float]:
    """Seconds to import numpy and then stve.cli in a fresh interpreter: (numpy alone, both)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True
    )
    numpy_s, both_s = map(float, done.stdout.split())
    return numpy_s, both_s


def environment(numpy) -> dict:
    """What changes output bits or timings: versions, BLAS vendor and threads, cores."""
    import ctypes

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libraries = {line.split()[-1] for line in fh if "blas" in line.lower() and ".so" in line}
    for library in sorted(libraries):
        lib = ctypes.CDLL(library)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_", "scipy_openblas_get_num_threads64_"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                threads = getter()
                break
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "blas_thread_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
    }


def source_fingerprint() -> str:
    """Digest of the package and benchmark sources, so stored output digests
    are only compared against runs of the same code."""
    digest = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *HERE.glob("*.py")]):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


class Measured:
    """Per job of one measured loop: time, host reference time, whether it
    ran traced, whether it failed, output digest and accuracy sample."""

    FIELDS = ("times", "references", "traced", "failures", "digests", "samples")

    def __init__(self, nominal_s: float):
        self.nominal_s = nominal_s
        self.times: list[float] = []
        self.references: list[float] = []
        self.traced: list[bool] = []
        self.failures: list[bool] = []
        self.digests: list[str] = []
        self.samples: list[dict] = []
        self.problems: list[str] = []

    @property
    def failed(self) -> int:
        return sum(self.failures)

    def part(self, traced: bool) -> "Measured":
        """The jobs that ran traced, or those that ran untraced."""
        out = Measured(self.nominal_s)
        keep = [i for i, t in enumerate(self.traced) if t == traced]
        for name in self.FIELDS:
            values = getattr(self, name)
            setattr(out, name, [values[i] for i in keep])
        return out

    @property
    def normalised(self) -> list[float]:
        """Job times scaled to a host where the reference kernel takes its nominal time."""
        return [t * self.nominal_s / r for t, r in zip(self.times, self.references)]

    @property
    def jobs_per_s(self) -> float:
        return (len(self.times) - self.failed) / sum(self.normalised)

    @property
    def raw_jobs_per_s(self) -> float:
        return (len(self.times) - self.failed) / sum(self.times)


def run_job(workload, inputs, index: int, tracer=None):
    """One timed job and its untimed checks: (elapsed, problems, digest, sample)."""
    started = time.perf_counter()
    try:
        if tracer is None:
            out = workload.run_job(inputs, index)
        else:
            with tracer.job(index):
                out = workload.run_job(inputs, index)
    except Exception:
        return time.perf_counter() - started, [f"job {index} raised:\n{traceback.format_exc()}"], "", {}
    elapsed = time.perf_counter() - started
    try:
        problems, digest, sample = workload.check(inputs, index, out)
    except Exception:
        return elapsed, [f"job {index} check raised:\n{traceback.format_exc()}"], "", {}
    return elapsed, [f"job {index}: {p}" for p in problems], digest, sample


def measure(workload, inputs, seconds: float, min_jobs: int, reference, tracer=None) -> Measured:
    """Run jobs 0, 1, ... until the timed jobs add up to `seconds`, at least
    `min_jobs` jobs have run and the last sweep is whole.  The reference
    kernel runs between jobs, outside their timers.  With a tracer, every
    other sweep of `workload.cycle` jobs runs traced: the wrappers are put
    in before each of its jobs and taken out after, outside the timers."""
    result = Measured(reference.nominal_s)
    period = workload.cycle * (2 if tracer else 1)
    index = 0
    before = reference.seconds()
    while True:
        traced = tracer is not None and (index // workload.cycle) % 2 == 1
        if traced:
            layers.install(tracer)
        try:
            elapsed, problems, digest, sample = run_job(workload, inputs, index, tracer if traced else None)
        finally:
            if traced:
                tracer.unwrap()
        after = reference.seconds()
        result.times.append(elapsed)
        result.references.append((before + after) / 2)
        before = after
        result.traced.append(traced)
        result.failures.append(bool(problems))
        result.digests.append(digest)
        result.samples.append(sample)
        result.problems.extend(problems)
        index += 1
        if sum(result.times) >= seconds and index >= min_jobs and index % period == 0:
            return result


def set_up(workload, seed: int, nominal_s: float):
    """SETUP_REPEATS set-ups: (inputs, normalised seconds, raw seconds).

    One set-up imports stve.cli in a fresh interpreter and makes the
    workload's inputs.  Its time is normalised by that interpreter's import
    of numpy, which runs before any code of the package, so no change to
    the package alters it: it only shows how fast the host ran just then.
    """
    normalised, raw = [], []
    for _ in range(SETUP_REPEATS):
        numpy_s, imported = import_seconds()
        started = time.perf_counter()
        inputs = workload.make_inputs(seed)
        elapsed = imported + time.perf_counter() - started
        raw.append(elapsed)
        normalised.append(elapsed * nominal_s / numpy_s)
    return inputs, normalised, raw


def accuracy(samples: list[dict], names) -> dict[str, float]:
    """Mean of each accuracy value over the given jobs; 0 for a value the workload never produces."""
    out = {}
    for name in names:
        values = [s[name] for s in samples if name in s]
        out[name] = sum(values) / len(values) if values else 0.0
    return out


def check_stored_digest(path: Path, key: str, digest: str) -> str | None:
    """Compare with the digest an earlier run of the same code and seed stored; store it if new."""
    stored = json.loads(path.read_text()) if path.exists() else {}
    previous = stored.setdefault(key, digest)
    path.write_text(json.dumps(stored, indent=1, sort_keys=True))
    if previous != digest:
        return f"output digest {digest} differs from {previous}, stored by an earlier run at this seed"
    return None


def main(argv=None) -> int:
    args = _parse(argv)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "stve" / "__init__.py").is_file() or not SPEC.is_file():
        print("perfbench: needs src/stve and BENCHMARK.json beside the perfbench directory", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]

    sys.path.insert(0, str(SRC))
    import numpy
    import stve.cli

    if Path(stve.__file__).resolve().parent != SRC / "stve":
        print(f"perfbench: imported stve from {stve.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import stats
    import workloads
    from host import NOMINAL_S, Reference
    from spans import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = (args.workdir or ROOT / ".perfbench_work" / args.workload).resolve()
    workdir.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](workloads.SIZES[args.size], workdir)
    env = environment(numpy)

    inputs, setups, raw_setups = set_up(workload, args.seed, NOMINAL_S["numpy_import"])

    # Warm-up: job 0 once, untimed, so lazy set-up and caches are done before timing.
    _elapsed, problems, warm_digest, _sample = run_job(workload, inputs, 0)
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        # Job 0 once more, traced by a throwaway tracer: tracing must not change outputs.
        check = Tracer()
        layers.install(check)
        try:
            _elapsed, traced_problems, traced_digest, _sample = run_job(workload, inputs, 0, check)
        finally:
            check.unwrap()
        problems += traced_problems
        if traced_digest != warm_digest:
            problems.append("job 0 gave different outputs traced and untraced")
    # The job metrics come from untraced jobs, which are half the jobs of a traced run.
    min_jobs = max(stats.TAIL_BEYOND + 1, workloads.DIGEST_JOBS) * (2 if tracer else 1)
    reference = Reference(workload.reference)
    measured = measure(workload, inputs, args.seconds, min_jobs, reference, tracer)
    plain = measured.part(traced=False)
    if tracer is not None:
        traced = measured.part(traced=True)
        tracer.write(workdir / f"spans-{args.seed}.json")

    first = slice(0, workloads.DIGEST_JOBS)
    digest = hashlib.sha256("".join(measured.digests[first]).encode()).hexdigest()
    problems += measured.problems
    if warm_digest != measured.digests[0]:
        problems.append("job 0 gave different outputs in the warm-up and in the measured run")
    stored = check_stored_digest(
        workdir / "digests.json",
        f"{args.workload}:{args.size}:{args.seed}:{env['blas_threads']}:{source_fingerprint()}",
        digest,
    )
    if stored:
        problems.append(stored)

    scores = accuracy(measured.samples[first], workloads.ACCURACY)
    tail, tail_pct, tail_count = stats.tail(plain.normalised)
    attempted = len(measured.times)
    failed = measured.failed
    found = {
        "setup_s": statistics.median(setups),
        "job_p50_s": statistics.median(plain.normalised),
        "job_tail_s": tail,
        "jobs_per_s": plain.jobs_per_s,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "failed_frac": failed / attempted,
        **scores,
        "host.reference_s": statistics.median(plain.references),
        "host.raw_setup_s": statistics.median(raw_setups),
        "host.raw_job_p50_s": statistics.median(plain.times),
        "host.raw_jobs_per_s": plain.raw_jobs_per_s,
    }
    if tracer is not None:
        found.update(layers.layer_metrics(tracer, len(traced.times)))
        found["trace.jobs_per_s_untraced"] = plain.jobs_per_s
        found["trace.jobs_per_s_traced"] = traced.jobs_per_s
        found["trace.overhead_jobs_per_s"] = traced.jobs_per_s - plain.jobs_per_s

    print(f"# perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace} size={args.size}")
    print("# env " + json.dumps(env, sort_keys=True))
    print(f"# setup: median of {SETUP_REPEATS} (import stve.cli in a fresh interpreter + make inputs), "
          "normalised: " + ", ".join(f"{s:.4f}" for s in setups))
    print("# setup raw: " + ", ".join(f"{s:.4f}" for s in raw_setups))
    print(f"# job_tail_s is p{tail_pct:.1f} of {tail_count} jobs; failed_frac {failed}/{attempted}; "
          f"accuracy over the first {workloads.DIGEST_JOBS} jobs; output digest {digest[:16]}")
    print("# job raw s: " + ", ".join(f"{t:.4f}" for t in measured.times))
    print("# reference s: " + ", ".join(f"{r:.4f}" for r in measured.references))
    for problem in problems:
        print("# PROBLEM " + problem.replace("\n", "\n#   "))
    units["failed_frac"] = "fraction"
    for name, value in found.items():
        print(f"{name:34s} {value:.6g} {units[name]}")
    if tracer is not None:
        print("# share of job time in each stage called by the job: "
              + ", ".join(f"{k} {v:.3f}" for k, v in layers.job_stage_shares(tracer).items()))
        print("# share of job time that is each layer's self time: "
              + ", ".join(f"{k} {v:.3f}" for k, v in layers.self_time_shares(tracer).items()))

    missing = [name for name in wanted if name not in found]
    if missing:
        print(f"perfbench: no value for {missing}", file=sys.stderr)
        return 1
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": found[name], "unit": units[name]} for name in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
