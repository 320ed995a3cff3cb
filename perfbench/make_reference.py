#!/usr/bin/env python3
"""Write the device pools and reference outputs in perfbench/reference/.

    python3 perfbench/make_reference.py

Run from a checkout whose outputs are the ones every later run must match
(the references were made at the commit that added the benchmark).  The
pools come from a fixed generator seed, so rerunning on that commit
rewrites identical files.  Takes about two minutes on one core.
"""

from __future__ import annotations

import os

os.environ["OMP_NUM_THREADS"] = "1"
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import random  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402

import workloads  # noqa: E402
from workloads import ROOT, ResonanceJob, SweepJob  # noqa: E402

GENERATOR_SEED = 1906_03405
STACK_DEVICES = 48
STACK_POINTS = 200
# Series-regime Airy arguments (the dominant cost) per grid point that a
# stack device must have to enter the pool: keeps every stack job near the
# same cost, so a run's median does not depend on which devices it drew,
# and leaves 45-70% of the arguments to the asymptotic branches.
STACK_SERIES_BAND = (14.0, 16.0)
RESONANCE_DEVICES = 96  # per kind


def _u(rng, lo, hi, digits=4):
    return round(lo + (hi - lo) * rng.random(), digits)


def stack_config(rng) -> dict:
    """Biased superlattice in eV: barriers 0.2-0.5 eV / 1-3 nm and flat-bottom
    wells 3-8 nm alternate, all tilted by one field of 4-11 meV/nm; powers
    (0,0) so eps = 1 is the physical device.  The sweep tunes the first
    barrier's bias from flat (degenerate slope) to -0.2 eV."""
    n_layers = 16 + int(9 * rng.random())
    field = _u(rng, 0.004, 0.011, 5)
    layers = []
    for i in range(n_layers):
        if i % 2 == 0:
            a, d = _u(rng, 0.2, 0.5), _u(rng, 1.0, 3.0, 3)
        else:
            a, d = 0.0, _u(rng, 3.0, 8.0, 3)
        layers.append({"a": a, "b": round(-field * d, 6), "d": d, "mu": 0.0, "nu": 0.0})
    return {
        "units": "eV",
        "scenario": "custom",
        "energy": _u(rng, 0.05, 0.2),
        "layers": layers,
        "leads": {"v_left": 0.0},
        "sweep": {
            "tuned_layer": 0, "tuned_sign": -1.0, "lo": 0.0, "hi": 0.2,
            "points": STACK_POINTS, "epsilons": [1.0],
        },
    }


def series_args_per_point(cli, path, probes=25) -> float:
    """Mean number of |z| <= SERIES_RADIUS Airy arguments per grid point,
    from the layer geometry alone (no Airy evaluation)."""
    from airystack.airy import SERIES_RADIUS
    from airystack.potential import realize
    from airystack.transfer import airy_layer_params, slope_is_degenerate

    cfg = cli.load_config(str(path))
    lo, hi = cfg.sweep["lo"], cfg.sweep["hi"]
    total = 0
    for k in range(probes):
        value = lo + (hi - lo) * (k + 0.5) / probes
        spec = cfg.spec.replace_bias(0, -value)
        for layer in realize(spec, 1.0):
            if not slope_is_degenerate(layer, cfg.energy):
                p = airy_layer_params(layer, cfg.energy)
                total += (abs(p.z_left) <= SERIES_RADIUS) + (abs(p.z_right) <= SERIES_RADIUS)
    return total / probes


def barrier_well_device(rng) -> tuple[dict, list]:
    """fig3 template; the well is below the leads so every lead propagates."""
    config = {
        "units": "eV",
        "scenario": "fig3_barrier_well",
        "energy": _u(rng, 0.05, 0.2),
        "layers": [
            {"a": _u(rng, 0.3, 0.7), "b": 0.0, "d": _u(rng, 1.0, 3.0, 3)},
            {"a": _u(rng, -0.2, -0.02), "b": _u(rng, -0.2, 0.0), "d": _u(rng, 6.0, 14.0, 3)},
        ],
        "leads": {"v_left": 0.0},
    }
    interval = [_u(rng, -0.8, -0.4), 0.0]
    eqs = ("EQ73_DELTA_BARRIER_WELL", "EQ69_DELTAPRIME_2LAYER")
    return config, [{"equation": eq, "interval": interval} for eq in eqs]


def transistor_device(rng) -> tuple[dict, list]:
    """fig5 template: two barriers around a flat base, collector bias below
    zero, so both leads propagate at any emitter voltage in the interval."""
    config = {
        "units": "eV",
        "scenario": "fig5_transistor",
        "energy": _u(rng, 0.05, 0.2),
        "layers": [
            {"a": _u(rng, 0.3, 0.7), "b": 0.0, "d": _u(rng, 1.0, 3.0, 3)},
            {"a": 0.0, "b": 0.0, "d": _u(rng, 6.0, 14.0, 3)},
            {"a": _u(rng, 0.3, 0.7), "b": -_u(rng, 0.05, 0.3), "d": _u(rng, 1.0, 3.0, 3)},
        ],
        "leads": {"v_left": 0.0},
    }
    interval = [0.0, _u(rng, 0.3, 0.6)]
    eqs = ("EQ76_TRANSISTOR_DELTA", "EQ83_TRANSISTOR_DELTAPRIME")
    return config, [{"equation": eq, "interval": interval} for eq in eqs]


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from airystack import cli

    workdir = workloads.HERE / "out" / "make-reference"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        figures = {}
        for name in workloads.FIGURES:
            job = SweepJob(name, [ROOT / "configs" / f"{name}.json"], None, workdir)
            csv_text, json_text = job.run(cli)
            figures[name] = workloads.sweep_reference(csv_text, json_text)
        workloads.write_reference("figures", figures)

        rng = random.Random(GENERATOR_SEED)
        devices = []
        for i in range(STACK_DEVICES):
            while True:
                config = stack_config(rng)
                path = workloads.write_config(workdir / f"stack-{i}.json", config)
                density = series_args_per_point(cli, path)
                if STACK_SERIES_BAND[0] <= density <= STACK_SERIES_BAND[1]:
                    break
            csv_text, json_text = SweepJob(f"stack-{i}", [path], None, workdir).run(cli)
            devices.append({"config": config,
                            "sweep": workloads.sweep_reference(csv_text, json_text)})
            print(f"stack {i}: {len(config['layers'])} layers, {density:.1f} "
                  "series arguments per point", file=sys.stderr)
        workloads.write_reference("stack", {"devices": devices})

        pools = {}
        for kind, make in (("barrier_well", barrier_well_device),
                           ("transistor", transistor_device)):
            pool = []
            for i in range(RESONANCE_DEVICES):
                config, sets = make(rng)
                path = workloads.write_config(workdir / f"{kind}-{i}.json", config)
                outputs = ResonanceJob(f"{kind}-{i}", [(path, sets)]).run(cli)
                for entry, text in zip(sets, outputs):
                    entry["rows"] = workloads.parse_resonance_csv(text)
                pool.append({"config": config, "sets": sets})
            pools[kind] = pool
        workloads.write_reference("resonances", pools)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
