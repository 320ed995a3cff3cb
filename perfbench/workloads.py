"""The three workloads: their inputs, their jobs and the check of each output.

Inputs come from the reference files in ``reference/``: each holds a pool
of devices (written by ``make_reference.py`` from a fixed generator seed)
together with the outputs the package gave for them when the reference was
made.  A run's ``--seed`` picks and orders devices from the pool; the
package only ever sees the generated configs.

figures     both shipped figure configs, run as ``airystack sweep CONFIG
            --out PREFIX`` runs them: three epsilons on a 2001-point grid,
            reference roots, peak refinement, CSV + JSON emission.  A job is
            one reproduction of both figures, in seed order.
stack       biased superlattices, 16-24 alternating barrier/well layers in a
            uniform field, powers (0,0) at eps = 1, swept with ``airystack
            sweep`` over the first layer's bias.  A job is one device's sweep.
resonances  barrier-well and transistor devices through ``airystack
            resonances``: EQ73 (closed form) + EQ69 (scan) for a barrier-well
            device, EQ76 (closed form) + EQ83 (scan) for a transistor.  A job
            is one device of each kind: all four equations, four sets.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import io
import json
import math
import pathlib
import random

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference"

NAMES = ("figures", "stack", "resonances")
FIGURES = ("fig4", "fig6")

# Output agreement rule.  Curves and resonance data: 1e-12 relative, with an
# absolute floor of 1e-14 so transmissions near 0 compare by absolute
# difference.  Refined peak positions (and the peak-root distances built
# from them): the golden-section refinement only pins a peak to
# 1e-6 * max(1, |value|), so round-off in T may legitimately move it within
# that bracket; they are compared at that tolerance.
RTOL = 1e-12
ATOL = 1e-14
PEAK_TOL = 1e-6

# Jobs per count window: the fixed prefix of the job sequence whose traced
# counts must repeat exactly for a given seed.
WINDOW = {"figures": 1, "stack": 4, "resonances": 32}


def load_reference(workload: str) -> dict:
    with gzip.open(REFERENCE / f"{workload}.json.gz", "rt") as fh:
        return json.load(fh)


def write_reference(workload: str, doc: dict) -> None:
    REFERENCE.mkdir(exist_ok=True)
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    # mtime=0 keeps the file byte-stable when the content is
    with open(REFERENCE / f"{workload}.json.gz", "wb") as raw:
        with gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
            fh.write(text.encode())


# --- jobs ---------------------------------------------------------------
# A job is one unit of timed work: run(cli) returns its raw outputs, check()
# turns them into mismatches against the reference (empty when correct), and
# points is the work it completes (grid points, or resonance sets).


class SweepJob:
    """``airystack sweep`` on one or more configs, outputs read back."""

    def __init__(self, label, configs, refs, workdir):
        self.label = label
        self.configs = configs  # paths
        self.refs = refs  # reference docs, same order
        self.prefixes = [str(workdir / f"{label}-{i}") for i in range(len(configs))]
        self.points = sum(len(r["csv"]) for r in refs) if refs else 0

    def run(self, cli):
        sink = io.StringIO()
        with contextlib.redirect_stderr(sink):
            for path, prefix in zip(self.configs, self.prefixes):
                code = cli.main(["sweep", str(path), "--out", prefix])
                if code != 0:
                    raise RuntimeError(f"sweep {path} exited {code}: {sink.getvalue()}")
        out = []
        for prefix in self.prefixes:
            out.append(pathlib.Path(prefix + ".csv").read_text())
            out.append(pathlib.Path(prefix + ".json").read_text())
        return out

    def check(self, outputs):
        bad = []
        for k, ref in enumerate(self.refs):
            where = f"{self.label}[{k}]"
            bad += check_csv(outputs[2 * k], ref["csv"], where)
            bad += check_sweep_json(outputs[2 * k + 1], ref["json"], where)
        return bad


class ResonanceJob:
    """``airystack resonances`` (the command function, without argparse) for
    each equation that applies to each of the given devices."""

    def __init__(self, label, devices):
        """devices: (config path, [{"equation", "interval", "rows"}, ...]) pairs."""
        self.label = label
        self.args, self.refs = [], []
        for config, sets in devices:
            for s in sets:
                self.args.append(argparse.Namespace(
                    config=str(config), equation=s["equation"],
                    interval=list(s["interval"]), units="eV",
                ))
                self.refs.append(s.get("rows"))
        self.points = len(self.args)

    def run(self, cli):
        out = []
        for args in self.args:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.cmd_resonances(args)
            if code != 0:
                raise RuntimeError(f"resonances {args.equation} exited {code}")
            out.append(buf.getvalue())
        return out

    def check(self, outputs):
        bad = []
        for args, text, ref in zip(self.args, outputs, self.refs):
            bad += check_resonance_csv(text, ref, f"{self.label}/{args.equation}")
        return bad


# --- parsing and comparison ---------------------------------------------


def _num(field: str):
    return None if field == "" else float(field)


def parse_sweep_csv(text: str) -> list[list]:
    lines = text.splitlines()
    if not lines or lines[0] != "epsilon,tuned_value_eV,tuned_value_invnm2,T,R":
        raise ValueError("unexpected sweep CSV header")
    return [[_num(f) for f in line.split(",")] for line in lines[1:]]


def parse_resonance_csv(text: str) -> list[list]:
    lines = text.splitlines()
    if not lines or lines[0] != "n,value_eV,value_invnm2,theta,alpha,T_n,admissible":
        raise ValueError("unexpected resonances CSV header")
    return [[_num(f) for f in line.split(",")] for line in lines[1:]]


def close(x, ref, rtol=RTOL, atol=ATOL) -> bool:
    if x is None or ref is None:
        return x is None and ref is None
    if math.isinf(ref) or math.isinf(x):
        return x == ref
    return abs(x - ref) <= rtol * abs(ref) + atol


def check_csv(text, ref_rows, where) -> list[str]:
    rows = parse_sweep_csv(text)
    if len(rows) != len(ref_rows):
        return [f"{where}: {len(rows)} CSV rows, reference has {len(ref_rows)}"]
    bad = []
    for i, (row, ref) in enumerate(zip(rows, ref_rows)):
        eps, _v_ev, v, t, r = row
        r_eps, r_v, r_t = ref
        if not (close(eps, r_eps) and close(v, r_v) and close(t, r_t)):
            bad.append(f"{where}: row {i} (eps, value, T) = {(eps, v, t)} vs {ref}")
        elif t is not None and not (r is not None and abs(r + t - 1.0) <= 1e-12):
            bad.append(f"{where}: row {i} R + T = {r} + {t} != 1")
        if len(bad) >= 3:
            break
    return bad


def check_sweep_json(text, ref, where) -> list[str]:
    doc = json.loads(text)
    bad = []
    if doc["epsilons"] != ref["epsilons"]:
        bad.append(f"{where}: epsilons {doc['epsilons']} vs {ref['epsilons']}")
    roots, r_roots = doc["reference_roots_invnm2"], ref["reference_roots_invnm2"]
    if len(roots) != len(r_roots) or not all(map(close, roots, r_roots)):
        bad.append(f"{where}: reference roots {roots} vs {r_roots}")
    for sweep, r_sweep in zip(doc["sweeps"], ref["sweeps"]):
        for key in ("peaks_invnm2", "convergence_invnm2"):
            got, want = sweep[key], r_sweep[key]
            ok = len(got) == len(want) and all(
                close(g, w, rtol=0.0, atol=PEAK_TOL * max(1.0, abs(w)))
                for g, w in zip(got, want)
            )
            if not ok:
                bad.append(f"{where}: eps {sweep['epsilon']} {key} {got} vs {want}")
    return bad


def check_resonance_csv(text, ref_rows, where) -> list[str]:
    rows = parse_resonance_csv(text)
    if len(rows) != len(ref_rows):
        return [f"{where}: {len(rows)} roots, reference has {len(ref_rows)}"]
    for row, ref in zip(rows, ref_rows):
        if not all(map(close, row, ref)):
            return [f"{where}: root {row} vs {ref}"]
    return []


def sweep_reference(csv_text: str, json_text: str) -> dict:
    """Reference record of one sweep: (eps, value, T) per CSV row + the JSON."""
    rows = parse_sweep_csv(csv_text)
    return {"csv": [[r[0], r[2], r[3]] for r in rows], "json": json.loads(json_text)}


# --- job sequences ------------------------------------------------------


def write_config(path: pathlib.Path, config: dict) -> pathlib.Path:
    path.write_text(json.dumps(config, indent=1))
    return path


def job_sequence(workload: str, seed: int, workdir: pathlib.Path) -> list[Job]:
    """The run's jobs in order; runs cycle through this list."""
    rng = random.Random(seed)
    ref = load_reference(workload)
    if workload == "figures":
        order = list(FIGURES)
        rng.shuffle(order)
        configs = [ROOT / "configs" / f"{name}.json" for name in order]
        return [SweepJob("figures", configs, [ref[name] for name in order], workdir)]
    if workload == "stack":
        devices = ref["devices"]
        order = rng.sample(range(len(devices)), len(devices))
        jobs = []
        for i in order:
            dev = devices[i]
            path = write_config(workdir / f"stack-{i}.json", dev["config"])
            jobs.append(SweepJob(f"stack-{i}", [path], [dev["sweep"]], workdir))
        return jobs
    if workload == "resonances":
        orders = {}
        for kind in ("barrier_well", "transistor"):
            devices = ref[kind]
            paths = [write_config(workdir / f"{kind}-{i}.json", dev["config"])
                     for i, dev in enumerate(devices)]
            orders[kind] = [(f"{kind}-{i}", paths[i], devices[i]["sets"])
                            for i in rng.sample(range(len(devices)), len(devices))]
        return [
            ResonanceJob(f"{bw[0]}+{tr[0]}", [bw[1:], tr[1:]])
            for bw, tr in zip(orders["barrier_well"], orders["transistor"])
        ]
    raise ValueError(f"unknown workload {workload!r}")
