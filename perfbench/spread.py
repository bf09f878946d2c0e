"""Run the benchmark on several seeds and report each metric's run-to-run spread.

    python3 perfbench/spread.py --workload estimate-large [--trace 0]

Runs `perfbench/run.py` once per seed 1 to 10, one after another, with the
run_seconds of BENCHMARK.json.  For every metric of the run it prints the
median, the quartiles as `statistics.quantiles(values, n=4)` gives them, and
the spread: the distance between the quartiles as a share of the median.
For end-to-end metrics it also prints the bound and whether the spread is
below a third of it.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from stats import quartile_spread

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    results = []
    for seed in SEEDS:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
        )
        result = json.loads(done.stdout.strip().splitlines()[-1])
        result["seed"] = seed
        results.append(result)
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}",
              file=sys.stderr)

    print(f"{args.workload}, {len(results)} seeds, {seconds:g} s per run, trace={args.trace}")
    print(f"{'metric':34s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        line = f"{name:34s} {q2:12.6g} {q1:12.6g} {q3:12.6g} {quartile_spread(values):8.4f}"
        if name in bounds:
            steady = quartile_spread(values) < bounds[name] / 3
            line += f" {bounds[name]:6.2f} {'steady' if steady else 'NOT below bound/3'}"
        print(line)
    return 0 if all(r["correct"] and r["failed"] == 0 for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
