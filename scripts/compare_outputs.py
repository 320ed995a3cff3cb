#!/usr/bin/env python3
"""Check that two source trees give byte-identical command outputs.

    python3 scripts/compare_outputs.py TREE_A TREE_B

Each tree runs in its own fresh interpreter with only TREE/src on the
path, and both run the same commands on the same inputs:

- `sweep` on configs/fig4.json and configs/fig6.json, on fig6 with
  sweep.tuned_sign 1 (a grid of negative emitter voltages), on fig4 with
  its barrier at mu = nu = 1 + 1e-13, within POWER_TOL of the EQ73
  template (41 points, eps 0.5), on the 48
  devices of the `stack` benchmark pool, and on its 24-layer device 17
  with sweep.points 20001, whose grid call runs in many row blocks;
- `resonances` on the 384 sets of the `resonances` benchmark pool (96
  barrier-well devices through EQ73 and EQ69, 96 transistors through EQ76
  and EQ83), plus fig4 EQ73/EQ69 on [-1, 0] eV and fig6 EQ76/EQ83 on
  [0, 0.5] eV; the domain edges fig6 EQ76 on [-0.4, -0.1] eV and fig6
  EQ83 on [1e12, 2e12] eV; and fig4 through EQ69 with a 126000 nm^-2
  barrier, whose theta overflows;
- `scatter` on every configs/*.json at epsilon 1, 0.5, 0.1 and 0.01, and
  at epsilon 1 on `stack` pool devices 0-3 and 28, whose many non-zero
  biases make the right lead's summation order visible;
- `limit-check` and `airy-check --verbose`;
- `scatter` and `sweep` on configs/barrier.json with its layer's k * w
  (a = 1e300, d = 1e200), Airy exponent (a = 1, b = d = 1e300),
  oscillatory Airy phase (a = 1, b = -1e300, d = 1e300) or Airy argument
  (a = 1e300, b = 1e292, d = 1e308) past the largest double, each a
  config error (exit 2);
- and, outside the CLI, this checkout's perfbench/make_reference.py probe
  `series_args_per_point` on each of the 48 `stack` pool devices, the
  density that admits a generated device to the pool.

The inputs are this checkout's configs/ and perfbench/reference/ files,
and the configs derived from them in a temporary directory.
Every output is hashed (sha256): each command's stdout, stderr and exit
code (or the name of an exception that escaped it, whose traceback is
then its stderr), a sweep's CSV and JSON files, and each probed density's
float.hex().  The script lists each output
that differs and exits 1 on any difference, 0 when all are identical.
Under each differing output that is CSV text (a `resonances` stdout or a
sweep's .csv) it lists each column that moved, with its largest relative
change, its largest change in units of perfbench's agreement rule,
|B - A| / (1e-12 |A| + 1e-14) with TREE_A's value as the reference (a
value above 1 would fail the benchmark's check), and the rows it moved
in; at the end, the same per column over all of them.  Neither tree is
written to (no bytecode is cached).
"""

import csv
import gzip
import hashlib
import io
import itertools
import json
import math
import os
import pathlib
import subprocess
import sys
import tempfile

HERE = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE / "perfbench"))
from workloads import ATOL, RTOL  # noqa: E402  (the benchmark's agreement rule)

# the reference tool, whose series-density probe each tree runs on the pool
TOOL = HERE / "perfbench" / "make_reference.py"

FIGURE_SETS = (
    ("fig4", "EQ73", ("-1", "0")),
    ("fig4", "EQ69", ("-1", "0")),
    ("fig6", "EQ76", ("0", "0.5")),
    ("fig6", "EQ83", ("0", "0.5")),
)
# intervals with no part of the equation's domain
EDGE_SETS = (
    ("fig6", "EQ76", ("-0.4", "-0.1")),
    ("fig6", "EQ83", ("1e12", "2e12")),
)
EPSILONS = ("1", "0.5", "0.1", "0.01")
# `stack` pool devices also run through `scatter` at epsilon 1
SCATTERED_STACKS = (0, 1, 2, 3, 28)
# a 24-layer `stack` pool device swept on a grid long enough that each
# transmission call runs in many row blocks
LONG_STACK, LONG_POINTS = 17, 20001
# configs/barrier.json layer edits whose k * w (flat), Airy exponent,
# oscillatory Airy phase or Airy argument (tilted) is inf, and the sweep
# range of each
OVERFLOWS = (
    ("flat-inf", {"a": 1e300, "d": 1e200}, (0.0, 1e-4)),
    ("tilted-inf", {"a": 1.0, "b": 1e300, "d": 1e300}, (-1e300, -1e299)),
    ("tilted-phase-inf", {"a": 1.0, "b": -1e300, "d": 1e300}, (1e299, 1e300)),
    ("tilted-argument-inf", {"a": 1e300, "b": 1e292, "d": 1e308}, (-1e293, -1e292)),
)

# Run inside each tree's interpreter: the jobs and probes arrive as JSON on
# stdin, the digests leave as JSON on stdout, and each CSV text is kept in
# the texts directory under its digest.
CHILD = r"""
import contextlib, hashlib, importlib.util, io, json, pathlib, sys, traceback

tree_src, jobs, (tool_path, probes), texts = json.load(sys.stdin)
from airystack import cli

if not pathlib.Path(cli.__file__).resolve().is_relative_to(tree_src):
    sys.exit(f"airystack loaded from {cli.__file__}, not from {tree_src}")

def digest(data, is_csv=False):
    key = hashlib.sha256(data).hexdigest()
    if is_csv:
        (pathlib.Path(texts) / key).write_bytes(data)
    return key

out = {}
for name, argv, files in jobs:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a traceback is an output too: stderr holds it
            traceback.print_exc()
            code = f"uncaught {type(exc).__name__}"
    out[name + " stdout"] = digest(stdout.getvalue().encode(), name.startswith("resonances "))
    out[name + " stderr"] = digest(stderr.getvalue().encode())
    out[name + " exit"] = str(code)
    for path in files:
        p = pathlib.Path(path)
        out[f"{name} {p.suffix}"] = (
            digest(p.read_bytes(), p.suffix == ".csv") if p.exists() else "missing"
        )
        if p.exists():
            p.unlink()
sys.path.append(str(pathlib.Path(tool_path).parent))  # the tool imports workloads
spec = importlib.util.spec_from_file_location("make_reference", tool_path)
tool = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tool)
for name, path in probes:
    out[name] = digest(tool.series_args_per_point(cli, path).hex().encode())
json.dump(out, sys.stdout)
"""


def _write(path: pathlib.Path, config: dict) -> str:
    path.write_text(json.dumps(config, indent=1))
    return str(path)


def jobs(workdir: pathlib.Path) -> tuple[list, list]:
    """(name, argv, output files) of every command and (name, config path) of
    every probed `stack` device, inputs written to workdir."""
    configs = {p.stem: str(p) for p in sorted((HERE / "configs").glob("*.json"))}
    prefix = str(workdir / "out")
    files = [prefix + ".csv", prefix + ".json"]
    out = []
    for name in ("fig4", "fig6"):
        out.append((f"sweep {name}", ["sweep", configs[name], "--out", prefix], files))
    fig4, fig6 = (json.loads(pathlib.Path(configs[n]).read_text()) for n in ("fig4", "fig6"))
    flipped = dict(fig6, sweep=dict(fig6["sweep"], tuned_sign=1.0))
    path = _write(workdir / "fig6-tuned-sign-1.json", flipped)
    out.append(("sweep fig6-tuned-sign-1", ["sweep", path, "--out", prefix], files))
    near = 1.0 + 1e-13
    barrier, well = fig4["layers"]
    near_template = dict(fig4, layers=[dict(barrier, mu=near, nu=near), well],
                         sweep=dict(fig4["sweep"], points=41, epsilons=[0.5]))
    path = _write(workdir / "fig4-near-template.json", near_template)
    out.append(("sweep fig4-near-template", ["sweep", path, "--out", prefix], files))

    def reference(workload):
        with gzip.open(HERE / "perfbench" / "reference" / f"{workload}.json.gz", "rt") as fh:
            return json.load(fh)

    stack = reference("stack")["devices"]
    probes = []
    for i, device in enumerate(stack):
        path = _write(workdir / f"stack-{i}.json", device["config"])
        out.append((f"sweep stack-{i}", ["sweep", path, "--out", prefix], files))
        probes.append((f"series density stack-{i}", path))
    config = stack[LONG_STACK]["config"]
    long = dict(config, sweep=dict(config["sweep"], points=LONG_POINTS))
    path = _write(workdir / f"stack-{LONG_STACK}-long.json", long)
    out.append((f"sweep stack-{LONG_STACK}-long", ["sweep", path, "--out", prefix], files))
    pool = reference("resonances")
    for kind in ("barrier_well", "transistor"):
        for i, device in enumerate(pool[kind]):
            path = _write(workdir / f"{kind}-{i}.json", device["config"])
            for s in device["sets"]:
                lo, hi = (repr(float(x)) for x in s["interval"])
                argv = ["resonances", path, "--equation", s["equation"], "--interval", lo, hi]
                out.append((f"resonances {kind}-{i} {s['equation']}", argv, []))
    for name, eq, (lo, hi) in FIGURE_SETS:
        argv = ["resonances", configs[name], "--equation", eq, "--interval", lo, hi]
        out.append((f"resonances {name} {eq}", argv, []))
    for name, eq, (lo, hi) in EDGE_SETS:
        argv = ["resonances", configs[name], "--equation", eq, "--interval", lo, hi]
        out.append((f"resonances {name} {eq} [{lo}, {hi}]", argv, []))
    barrier, well = fig4["layers"]
    overflow = dict(fig4, units="invnm2", energy=0.262464,
                    layers=[dict(barrier, a=126000.0), dict(well, a=-0.262464)])
    path = _write(workdir / "fig4-theta-overflow.json", overflow)
    argv = ["resonances", path, "--equation", "EQ69", "--interval", "-1.5", "0", "--units", "invnm2"]
    out.append(("resonances fig4-theta-overflow EQ69", argv, []))
    for name, path in configs.items():
        for eps in EPSILONS:
            out.append((f"scatter {name} eps={eps}", ["scatter", path, "--epsilon", eps], []))
    for i in SCATTERED_STACKS:
        path = str(workdir / f"stack-{i}.json")
        out.append((f"scatter stack-{i} eps=1", ["scatter", path, "--epsilon", "1"], []))
    out.append(("limit-check", ["limit-check"], []))
    out.append(("airy-check", ["airy-check", "--verbose"], []))
    barrier = json.loads(pathlib.Path(configs["barrier"]).read_text())
    for name, layer, (lo, hi) in OVERFLOWS:
        sweep = {"tuned_layer": 0, "lo": lo, "hi": hi, "points": 3, "epsilons": [1.0]}
        config = dict(barrier, layers=[dict(barrier["layers"][0], **layer)], sweep=sweep)
        path = _write(workdir / f"barrier-{name}.json", config)
        out.append((f"scatter barrier-{name}", ["scatter", path], []))
        out.append((f"sweep barrier-{name}", ["sweep", path, "--out", prefix], files))
    return out, probes


def _changes(x: str, y: str) -> tuple[float, float]:
    """|x - y| / max(|x|, |y|) and |x - y| / (RTOL |x| + ATOL) of two CSV
    fields, x the reference; both inf unless x and y are finite numbers."""
    try:
        fx, fy = float(x), float(y)
    except ValueError:
        return math.inf, math.inf
    if not (math.isfinite(fx) and math.isfinite(fy)):
        return math.inf, math.inf
    scale = max(abs(fx), abs(fy))
    diff = abs(fx - fy)
    return (diff / scale if scale else 0.0), diff / (RTOL * abs(fx) + ATOL)


def column_changes(text_a: str, text_b: str) -> tuple[int, dict] | None:
    """(rows, {column: (largest relative change, largest change in units of
    the agreement rule, rows it moved in)}) of two CSV texts with one
    header, text_a the reference; None when the header or row count
    differs."""
    rows_a, rows_b = (list(csv.reader(io.StringIO(t))) for t in (text_a, text_b))
    if rows_a[:1] != rows_b[:1] or len(rows_a) != len(rows_b):
        return None
    moved = {}
    for row_a, row_b in zip(rows_a[1:], rows_b[1:]):
        for column, x, y in itertools.zip_longest(rows_a[0], row_a, row_b, fillvalue=""):
            if x != y:
                relative, rule = _changes(x, y)
                worst, worst_rule, count = moved.get(column, (0.0, 0.0, 0))
                moved[column] = (max(worst, relative), max(worst_rule, rule), count + 1)
    return len(rows_a) - 1, moved


def run_tree(tree: pathlib.Path, job_list: list, probes: list, workdir: pathlib.Path) -> dict:
    """Digest of every output of job_list and of every probe, run in a fresh
    interpreter on tree; each CSV text is kept as workdir/texts/<digest>."""
    src = (tree / "src").resolve()
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-s", "-c", CHILD],
        input=json.dumps([str(src), job_list, [str(TOOL), probes], str(workdir / "texts")]),
        capture_output=True, text=True, env=env, cwd=workdir,
    )
    if proc.returncode != 0:
        sys.exit(f"{tree}: the run failed ({proc.returncode}):\n{proc.stderr}")
    return json.loads(proc.stdout)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: compare_outputs.py TREE_A TREE_B", file=sys.stderr)
        return 2
    trees = [pathlib.Path(a) for a in argv]
    for tree in trees:
        if not (tree / "src" / "airystack").is_dir():
            print(f"{tree} has no src/airystack", file=sys.stderr)
            return 2
    with tempfile.TemporaryDirectory() as tmp:
        workdir = pathlib.Path(tmp)
        (workdir / "texts").mkdir()
        job_list, probes = jobs(workdir)
        a, b = (run_tree(tree, job_list, probes, workdir) for tree in trees)
        differ = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
        total_rows, total = 0, {}
        for key in differ:
            print(f"differs: {key}")
            texts = [workdir / "texts" / d[key] for d in (a, b) if key in d]
            if len(texts) != 2 or not all(t.is_file() for t in texts):
                continue
            changes = column_changes(*(t.read_text() for t in texts))
            if changes is None:
                print("    header or row count differs")
                continue
            rows, moved = changes
            total_rows += rows
            for column, (worst, rule, count) in moved.items():
                print(f"    {column}: largest relative change {worst:.3g} "
                      f"({rule:.3g} of the agreement rule) in {count} of {rows} rows")
                top, top_rule, seen = total.get(column, (0.0, 0.0, 0))
                total[column] = (max(top, worst), max(top_rule, rule), seen + count)
    for column, (worst, rule, count) in total.items():
        print(
            f"column {column}: largest relative change {worst:.3g} "
            f"({rule:.3g} of the agreement rule) "
            f"in {count} of {total_rows} rows of the differing CSV outputs"
        )
    print(f"{len(job_list)} commands, {len(probes)} probes, {len(a)} outputs, "
          f"{len(differ)} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
