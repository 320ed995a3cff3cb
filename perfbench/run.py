#!/usr/bin/env python3
"""airystack benchmark: one workload per run, end to end or traced per module.

    python3 perfbench/run.py --workload figures|stack|resonances \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src/``.  Single process, single thread (BLAS/OpenMP pinned to one
thread before numpy loads).

--trace 0  Jobs from the seed's job sequence run back to back (closed loop,
           one caller) until the next job would end more than half a job
           past S seconds.  Reports the end-to-end metrics.
--trace 1  After one untimed warm-up pass, alternating passes over the
           sequence's first WINDOW jobs: untraced, then traced with every
           public airystack function wrapped, until S seconds are used.
           Reports the per-module metrics of layers.METRICS: counts from
           the traced passes (they must repeat exactly), times as medians
           over traced passes.

Every job's output is checked against the reference made at the seed
commit; a job that raises or mismatches counts as failed.  Human-readable
lines come first; the last stdout line is the JSON result.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import workloads  # noqa: E402
from workloads import HERE, ROOT, WINDOW  # noqa: E402

OUT = HERE / "out"
SETUP_REPS = 15


class BenchError(Exception):
    """The benchmark cannot run here (no package, no references)."""


def import_package():
    src = (ROOT / "src").resolve()
    if not (src / "airystack" / "__init__.py").is_file():
        raise BenchError(f"no airystack package under {src}")
    sys.path.insert(0, str(src))
    import airystack
    import airystack.cli

    if not os.path.realpath(airystack.__file__).startswith(str(src) + os.sep):
        raise BenchError(f"airystack imported from {airystack.__file__}, not {src}")
    return airystack


# --- jobs and passes ----------------------------------------------------


class Tally:
    """Runs and checks jobs, counting attempts and failures."""

    def __init__(self, cli):
        self.cli = cli
        self.attempted = 0
        self.failed = 0

    def run(self, job):
        """(seconds, cpu seconds, output digest) of one job; the seconds
        are None when the job failed.  The check is not timed."""
        self.attempted += 1
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            outputs = job.run(self.cli)
            dt, cpu = time.perf_counter() - t0, time.process_time() - c0
            bad = job.check(outputs)
        except Exception:  # job boundary: record it and keep measuring
            self.failed += 1
            print(f"job {job.label} raised:", file=sys.stderr)
            traceback.print_exc()
            return None, None, "error"
        if bad:
            self.failed += 1
            for line in bad:
                print(f"job {job.label} mismatch: {line}", file=sys.stderr)
            return None, None, "mismatch"
        return dt, cpu, hashlib.sha256("\x00".join(outputs).encode()).hexdigest()

    def run_pass(self, jobs):
        """One pass over jobs: (job seconds, job cpu seconds, output digest)."""
        h = hashlib.sha256()
        wall = cpu = 0.0
        for job in jobs:
            dt, dc, digest = self.run(job)
            wall += dt or 0.0
            cpu += dc or 0.0
            h.update(digest.encode())
        return wall, cpu, h.hexdigest()


def quantile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


# --- set-up time --------------------------------------------------------


class SetupProbe:
    """Fresh-interpreter set-up time: import + config load + requests.

    One warm-up spawn fills the file cache and writes bytecode; the timed
    spawns are spread over the run so their median does not hang on one
    moment of the machine's speed."""

    def __init__(self, workload, jobs):
        if workload == "figures":
            configs = jobs[0].configs
        elif workload == "stack":
            configs = [job.configs[0] for job in jobs[:4]]
        else:
            configs = [args.config for job in jobs[:2] for args in job.args[::2]]
        self.cmd = [sys.executable, str(HERE / "setup_probe.py"), str(ROOT / "src"),
                    *map(str, configs)]
        self.times = []
        self.spawn()
        self.times.clear()

    def spawn(self):
        done = subprocess.run(self.cmd, capture_output=True, text=True, timeout=120,
                              check=True)
        self.times.append(float(done.stdout.strip().splitlines()[-1]))


# --- the two kinds of run -----------------------------------------------


def run_untraced(workload, jobs, seconds, tally):
    times, digests = [], []
    items = 0
    window = WINDOW[workload]
    setup = SetupProbe(workload, jobs)
    start = time.perf_counter()
    i = 0
    while True:
        job = jobs[i % len(jobs)]
        dt, _cpu, digest = tally.run(job)
        if i < window:
            digests.append(digest)
        if dt is not None:
            times.append(dt)
            items += job.points
        i += 1
        # Every probe that is due by now, so that long jobs (figures) still
        # get probes at each job boundary rather than all after the run.
        due = elapsed = time.perf_counter() - start
        while len(setup.times) < SETUP_REPS and due >= len(setup.times) * seconds / SETUP_REPS:
            setup.spawn()
            elapsed = time.perf_counter() - start
        est = statistics.median(times) if times else elapsed / i
        if i >= window and elapsed + 0.5 * est >= seconds:
            break
    while len(setup.times) < SETUP_REPS:
        setup.spawn()
    print(f"window digest: {hashlib.sha256(''.join(digests).encode()).hexdigest()}")
    print(f"setup probes (s): {' '.join(f'{t:.4g}' for t in setup.times)}")
    if not times:
        return {}
    n = len(times)
    beyond = n - min(n, int(-(-9 * n // 10)))
    # job_s.p50 is reported but not bounded: when jobs are shorter than the
    # host's speed phases, the median takes whichever phase held most of the
    # run (see README.md, "Run-to-run noise").
    print(f"job_s.p50: {statistics.median(times):.6g} s (not bounded)")
    metrics = {
        "job_s.p90": (quantile(times, 0.9), "s"),
        "items_per_s": (items / sum(times), "1/s"),
        "rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "setup_s": (statistics.median(setup.times), "s"),
    }
    item = "sets_per_s" if workload == "resonances" else "points_per_s"
    print(f"jobs timed: {n} (job_s.p90 has {beyond} samples beyond it)")
    print(f"{item} (= items_per_s): {metrics['items_per_s'][0]:.6g} 1/s")
    print(f"fail_frac: {tally.failed / tally.attempted:.6g}")
    return metrics


def run_traced(workload, jobs, seconds, tally, package):
    import layers
    from tracer import Tracer

    tracer = Tracer(package, hook_for=layers.hooks(package))
    window = jobs[: WINDOW[workload]]
    plain, traced, passes = [], [], []
    consistent = True
    start = time.perf_counter()
    # Warm-up: a first pass runs cold (first-call paths, empty caches) and
    # would make the untraced time it is compared against too slow.
    tally.run_pass(window)
    while True:
        wall_u, cpu_u, digest_u = tally.run_pass(window)
        tracer.calibrate()
        tracer.install()
        try:
            wall_t, _cpu, digest_t = tally.run_pass(window)
        finally:
            tracer.uninstall()
        metrics = layers.pass_metrics(tracer, wall_t)
        if not passes:
            OUT.mkdir(exist_ok=True)
            tracer.save(OUT / f"spans-{workload}.npz")
        if digest_t != digest_u:
            print("traced and untraced outputs differ", file=sys.stderr)
            consistent = False
        if passes and any(metrics[k] != passes[0][k] for k in layers.COUNTS):
            print("traced counts differ between passes", file=sys.stderr)
            consistent = False
        plain.append((wall_u, cpu_u))
        traced.append(wall_t)
        passes.append(metrics)
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * (wall_u + wall_t) >= seconds:
            break
    tracer.reset()
    wall_u = statistics.median(w for w, _ in plain)
    wall_t = statistics.median(traced)
    overhead = wall_t / wall_u - 1.0
    result = {}
    for name, unit in layers.METRICS.items():
        if name == "process.cpu_s":
            value = statistics.median(c for _, c in plain)
        elif name == "trace.overhead":
            value = overhead
        elif unit == "count":
            value = passes[0][name]
        else:
            value = statistics.median(p[name] for p in passes)
        result[name] = (value, unit)
    unattributed = statistics.median(p["unattributed_s"] for p in passes) / wall_t
    self_ratio = statistics.median(
        p["self_sum_s"] / w for p, (w, _) in zip(passes, plain)
    )
    print(f"passes: {len(plain)} untraced, {len(traced)} traced, "
          f"{len(window)} jobs each")
    print(f"pass wall: untraced {wall_u:.6g} s, traced {wall_t:.6g} s")
    print(f"tracer cost: {statistics.median(p['trace_s'] for p in passes):.6g} s "
          "per traced pass (calibrated unseen part: "
          f"{statistics.median(p['call_cost_s'] for p in passes) * 1e6:.3g} us per call)")
    print(f"unattributed share of traced pass: {unattributed:.6g}")
    print(f"module self time / untraced pass: {self_ratio:.6g}")
    print(f"window digest: {digest_u}")
    print(f"counts: {json.dumps({k: passes[0][k] for k in layers.COUNTS})}")
    return result, consistent


# --- metadata and main --------------------------------------------------


def metadata(package, args):
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            target = ROOT / ".git" / ref[5:]
            commit = target.read_text().strip() if target.is_file() else ref[5:]
        else:
            commit = ref
    src_lines = sum(
        len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py")
    )
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": commit,
        "src_lines": src_lines,
        "package_version": getattr(package, "__version__", "?"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    try:
        package = import_package()
        workdir = OUT / f"run-{os.getpid()}"
        workdir.mkdir(parents=True, exist_ok=True)
        jobs = workloads.job_sequence(args.workload, args.seed, workdir)
    except (BenchError, ImportError, OSError) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    try:
        print(f"meta: {json.dumps(metadata(package, args), sort_keys=True)}")
        tally = Tally(package.cli)
        consistent = True
        if args.trace:
            metrics, consistent = run_traced(
                args.workload, jobs, args.seconds, tally, package
            )
        else:
            metrics = run_untraced(args.workload, jobs, args.seconds, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    print(json.dumps({
        "correct": tally.failed == 0 and consistent and bool(metrics),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
