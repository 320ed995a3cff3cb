#!/usr/bin/env python3
"""Alternating benchmark runs of two source trees, and the claim rule on them.

    python3 scripts/bench_pairs.py TREE_A TREE_B --workload W \
        [--pairs 10] [--first-seed 1]

TREE_A is the parent and TREE_B the change.  Pair k runs seed
first-seed + k on both trees, TREE_A first when the seed is odd and TREE_B
first when it is even, so pairs split over several calls still alternate.
Each run is

    python3 perfbench/run.py --workload W --seed SEED --seconds S --trace 0

in a fresh temporary copy of its tree, made without __pycache__, .git or
out/ directories, so no run reads bytecode that another run wrote and
neither tree is written to.  The environment is passed through unchanged.
S is TREE_A's BENCHMARK.json run_seconds; the tool refuses two trees whose
run_seconds differ.

For each end-to-end metric of TREE_A's BENCHMARK.json it prints both
sides' medians and quartiles (statistics.quantiles, inclusive), the
parent's IQR, the pairs the change won (ties count for neither), whether
the claim rule holds, and how the median moved against the metric's bound.
The claim rule: at least ten pairs, the change wins at least nine tenths
of them, its median is better than the parent's by more than the parent's
IQR, and no larger share of its jobs failed.  The last stdout line is JSON
in the layout of the BENCH files: {"summary": {W: ...}, "untraced": [...]}.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import shutil
import statistics
import subprocess
import sys
import tempfile

SIDES = ("parent", "change")


def quartiles(values: list[float]) -> list[float]:
    if len(values) == 1:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def compare(parent: list[float], change: list[float], better: str, bound: float,
            fail_share: tuple[float, float] = (0.0, 0.0)) -> dict:
    """One metric over paired runs (parent[k] and change[k] are pair k):
    the BENCH summary entry, the claim rule's verdict and the bound's."""
    lower = better == "lower"
    p_med, c_med = statistics.median(parent), statistics.median(change)
    p_q = quartiles(parent)
    iqr = p_q[1] - p_q[0]
    wins = sum(c < p if lower else c > p for p, c in zip(parent, change))
    gain = p_med - c_med if lower else c_med - p_med
    claim = (len(parent) >= 10 and 10 * wins >= 9 * len(parent) and gain > iqr
             and fail_share[1] <= fail_share[0])
    if (max(change) < min(parent)) if lower else (min(change) > max(parent)):
        verdict = "better in every run"
    elif -gain > bound * abs(p_med):
        verdict = "worse than its bound"
    elif iqr > bound * abs(p_med):
        verdict = "unresolved: the parent's IQR exceeds the bound"
    else:
        verdict = "within its bound"
    return {
        "parent": parent,
        "change": change,
        "parent_median": p_med,
        "change_median": c_med,
        "change_over_parent": c_med / p_med if p_med else None,
        "parent_quartiles": p_q,
        "change_quartiles": quartiles(change),
        "parent_iqr": iqr,
        "pairs_change_better": wins,
        "claim_rule_holds": claim,
        "bound_verdict": verdict,
    }


def order(seed: int) -> tuple[str, str]:
    """The sides of a pair in the order they run."""
    return SIDES if seed % 2 else SIDES[::-1]


def run(tree: pathlib.Path, workload: str, seed: int, seconds: float) -> dict:
    """{"meta", "result"} of one untraced run in a fresh copy of tree."""
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        copy = pathlib.Path(tmp) / "tree"
        shutil.copytree(tree, copy, ignore=shutil.ignore_patterns("__pycache__", ".git", "out"))
        cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
        done = subprocess.run(cmd, cwd=copy, capture_output=True, text=True,
                              timeout=10 * seconds + 600)
    lines = done.stdout.splitlines()
    if done.returncode or not lines:
        raise SystemExit(f"{tree} seed {seed}: perfbench exited {done.returncode}\n"
                         f"{done.stderr[-2000:]}")
    meta = next(json.loads(line[6:]) for line in lines if line.startswith("meta: "))
    return {"meta": meta, "result": json.loads(lines[-1])}


def summarize(workload: str, runs: list[dict], metrics: list[dict]) -> dict:
    """The BENCH summary of one workload from its pair entries."""
    def totals(key):
        return {side: sum(r[side]["result"][key] for r in runs) for side in SIDES}

    attempted, failed = totals("attempted"), totals("failed")
    share = tuple(failed[side] / max(attempted[side], 1) for side in SIDES)
    out = {
        "correct": all(r[side]["result"]["correct"] for r in runs for side in SIDES),
        "pairs": len(runs),
        "seeds": [r["seed"] for r in runs],
        "attempted": attempted,
        "failed": failed,
    }
    for m in metrics:
        values = {side: [r[side]["result"]["metrics"][m["name"]]["value"] for r in runs]
                  for side in SIDES}
        out[m["name"]] = compare(values["parent"], values["change"], m["better"], m["bound"],
                                 share)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("tree_a", type=pathlib.Path, help="the parent tree")
    parser.add_argument("tree_b", type=pathlib.Path, help="the change tree")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    spec = json.loads((args.tree_a / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        parser.error(f"unknown workload {args.workload!r}")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    seconds = spec["run_seconds"]
    if json.loads((args.tree_b / "BENCHMARK.json").read_text())["run_seconds"] != seconds:
        parser.error("the two trees' BENCHMARK.json run_seconds differ")
    trees = dict(zip(SIDES, (args.tree_a.resolve(), args.tree_b.resolve())))
    runs = []
    for k in range(args.pairs):
        seed = args.first_seed + k
        sides = order(seed)
        entry = {"workload": args.workload, "seed": seed, "order": f"{sides[0]}-first"}
        for side in sides:
            entry[side] = run(trees[side], args.workload, seed, seconds)
            values = entry[side]["result"]["metrics"]
            print(f"pair {k + 1} seed {seed} {side}: "
                  + ", ".join(f"{m['name']} {values[m['name']]['value']:.6g}"
                              for m in spec["end_to_end"]), flush=True)
        runs.append(entry)
    summary = summarize(args.workload, runs, spec["end_to_end"])
    for m in spec["end_to_end"]:
        s = summary[m["name"]]
        print(f"{args.workload} {m['name']} ({m['better']} is better): "
              f"median {s['parent_median']:.6g} -> {s['change_median']:.6g}, "
              f"quartiles {s['parent_quartiles'][0]:.6g}..{s['parent_quartiles'][1]:.6g} -> "
              f"{s['change_quartiles'][0]:.6g}..{s['change_quartiles'][1]:.6g}, "
              f"parent IQR {s['parent_iqr']:.6g}, change won {s['pairs_change_better']} of "
              f"{len(runs)}; claim rule {'holds' if s['claim_rule_holds'] else 'fails'}; "
              f"bound {m['bound']}: {s['bound_verdict']}")
    print(json.dumps({"summary": {args.workload: summary}, "untraced": runs}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
