#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, as the acceptance rule takes it.

    python3 perfbench/spread.py [--first-seed 1] [--json FILE] [WORKLOAD ...]

Runs each workload (default: every workload in BENCHMARK.json) ten times
for BENCHMARK.json's run_seconds, with seeds first-seed .. first-seed + 9,
and prints for every end-to-end metric the median and the quartile spread
(Q3 - Q1) / median of its values, using statistics.quantiles(values, n=4),
next to the metric's bound.  A second set with other seeds (say
--first-seed 11) is the independent set whose medians must agree with the
first within the bounds.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
RUNS = 10


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser()
    parser.add_argument("workloads", nargs="*")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--json", help="write every run's values here")
    args = parser.parse_args(argv)
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {}
    worst_ok = True
    for workload in names:
        values = {name: [] for name in bounds}
        for k in range(RUNS):
            seed = args.first_seed + k
            cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                   "--trace", "0"]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=600)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if done.returncode or not result["correct"]:
                print(f"{workload} seed {seed}: failed run", file=sys.stderr)
                worst_ok = False
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        record[workload] = values
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            flag = "ok" if spread < bounds[name] / 3 else (
                "within bound" if spread <= bounds[name] else "OVER BOUND")
            print(f"{workload:11s} {name:12s} median {med:.6g}  spread {spread:.3f}"
                  f"  bound {bounds[name]}  {flag}", flush=True)
    if args.json:
        pathlib.Path(args.json).write_text(json.dumps(record, indent=1))
    return 0 if worst_ok else 1


if __name__ == "__main__":
    sys.exit(main())
