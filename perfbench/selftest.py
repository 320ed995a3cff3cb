#!/usr/bin/env python3
"""Self-tests of the benchmark itself (not of airystack).

    python3 perfbench/selftest.py [WORKLOAD ...]

For each workload (default: all), with short runs:
  * traced and untraced runs produce identical outputs (window digests);
  * traced counts repeat exactly across two runs, for each of two seeds;
  * module self times and the tracer's own cost add up to the traced pass
    time: the share no span covers is within the tracing overhead (or 1%,
    whichever is larger);
  * the tracer's cost is kept out of the modules: their summed self time
    is at most SELF_SLACK times the untraced pass time (median over the
    traced runs);
  * every run reports correct = true.
Then the benchmark must refuse, with a non-zero exit and no result line, in
a directory that holds only BENCHMARK.json and perfbench/.
Takes about three minutes.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = (1, 2)
# The traced program runs slower than the untraced one by more than the
# calibrated per-call cost (~140,000 spans per resonances pass crowd its
# caches; the host's speed changes between calibration and pass): the
# modules' summed self time reads 1.1-1.4x the untraced pass there, ~1.1x
# on the sweeps.  Charging the tracer to the modules would read
# 1 + trace.overhead, about 3.3x on resonances.
SELF_SLACK = 1.5


def bench(workload, seed, trace, cwd=ROOT):
    # Traced runs get several passes, so their times are medians.
    seconds = 5 if trace else 1
    cmd = [sys.executable, str(pathlib.Path(cwd) / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def parse(done):
    if done.returncode != 0:
        raise AssertionError(f"exit {done.returncode}: {done.stderr[-2000:]}")
    lines = done.stdout.strip().splitlines()
    info = {}
    for line in lines[:-1]:
        key, _, value = line.partition(": ")
        info[key] = value
    return info, json.loads(lines[-1])


def check_workload(workload) -> list[str]:
    problems = []
    self_ratios = []
    for seed in SEEDS:
        plain, plain_result = parse(bench(workload, seed, 0))
        runs = [parse(bench(workload, seed, 1)) for _ in range(2)]
        for info, result in [(plain, plain_result), *runs]:
            if not result["correct"]:
                problems.append(f"{workload} seed {seed}: correct = false")
        for info, _ in runs:
            if info["window digest"] != plain["window digest"]:
                problems.append(f"{workload} seed {seed}: traced outputs differ")
        if runs[0][0]["counts"] != runs[1][0]["counts"]:
            problems.append(f"{workload} seed {seed}: counts differ between runs "
                            f"{runs[0][0]['counts']} / {runs[1][0]['counts']}")
        for info, result in runs:
            overhead = result["metrics"]["trace.overhead"]["value"]
            share = float(info["unattributed share of traced pass"])
            if abs(share) > max(abs(overhead), 0.01):
                problems.append(f"{workload} seed {seed}: {share:.3g} of the traced "
                                f"pass is outside every span (overhead {overhead:.3g})")
            self_ratios.append(float(info["module self time / untraced pass"]))
    ratio = statistics.median(self_ratios)
    if ratio > SELF_SLACK:
        problems.append(f"{workload}: module self time is {ratio:.3g} x the untraced"
                        " pass (median of the traced runs): tracer cost charged to modules")
    return problems


def check_refusal() -> list[str]:
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        done = bench("stack", 1, 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0:
        return ["benchmark exited 0 without the package"]
    if done.stdout.strip().startswith("{") or '"correct"' in done.stdout:
        return ["benchmark printed a result without the package"]
    return []


def main(argv) -> int:
    names = argv or ["figures", "stack", "resonances"]
    problems = []
    for workload in names:
        found = check_workload(workload)
        print(f"{workload}: {'ok' if not found else 'FAILED'}")
        problems += found
    found = check_refusal()
    print(f"refusal without the package: {'ok' if not found else 'FAILED'}")
    problems += found
    for line in problems:
        print(line, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
