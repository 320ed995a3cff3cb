"""Command-line front end: device configs in, CSV/JSON out.

Subcommands: airy-check, scatter, resonances, sweep, limit-check.
Exit codes: 0 success, 2 config/usage error or an overflow, 3 physics-domain
error (evanescent leads).  Data goes to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
from dataclasses import dataclass

# Each command imports the modules it computes with when it runs, so that
# start-up loads only the config schema (see README, "Start-up").
from .errors import ConfigError, EvanescentLeadError
from .potential import (
    EV_TO_INVNM2,
    MAX_POINTS,
    SQUEEZES,
    TEMPLATE_EQUATIONS,
    LayerSpec,
    ResonanceEquation,
    StructureSpec,
    ev_to_invnm2,
    classify_region,
    invnm2_to_ev,
    stack_potentials,
)


# scenario -> its equations.  The first is the closed form: its squeeze is
# the scenario's layer power template, and a sweep of layer 0 is compared
# against its roots.
SCENARIOS = {
    "fig3_barrier_well": (
        ResonanceEquation.EQ73_DELTA_BARRIER_WELL,
        ResonanceEquation.EQ69_DELTAPRIME_2LAYER,
    ),
    "fig5_transistor": (
        ResonanceEquation.EQ76_TRANSISTOR_DELTA,
        ResonanceEquation.EQ83_TRANSISTOR_DELTAPRIME,
    ),
    "custom": (),
}
# JSON value types and the Python types that carry them; a bool never
# counts as a number or an index, and a number must be finite
NUMBER, INTEGER, STRING, LIST, OBJECT = (
    "a finite number", "an integer", "a string", "a list", "an object"
)
_TYPES = {NUMBER: (int, float), INTEGER: int, STRING: str, LIST: list, OBJECT: dict}
_FLOAT_MAX = sys.float_info.max

# per config object: key -> (type, required)
_CONFIG_KEYS = {
    "units": (STRING, True), "layers": (LIST, True), "energy": (NUMBER, True),
    "scenario": (STRING, False), "leads": (OBJECT, False), "sweep": (OBJECT, False),
}
_LAYER_KEYS = {
    "a": (NUMBER, True), "b": (NUMBER, True), "d": (NUMBER, True),
    "mu": (NUMBER, False), "nu": (NUMBER, False),
}
_LEADS_KEYS = {"v_left": (NUMBER, False), "v_right": (NUMBER, False)}
_SWEEP_KEYS = {
    "tuned_layer": (INTEGER, True), "lo": (NUMBER, True), "hi": (NUMBER, True),
    "tuned_sign": (NUMBER, False), "points": (INTEGER, False),
    "epsilons": (LIST, False), "peak_floor": (NUMBER, False),
}
_UNITS = {"eV": EV_TO_INVNM2, "invnm2": 1.0}
# --equation accepts the full enum value or its exact EQnn tag
_EQUATIONS = {n: eq for eq in ResonanceEquation for n in (eq.value, eq.value.split("_")[0])}


@dataclass
class DeviceConfig:
    """Validated config with all energies converted to nm^-2."""

    spec: StructureSpec
    energy: float
    scenario: str
    sweep: dict | None


def _is(value, kind: str) -> bool:
    typed = isinstance(value, _TYPES[kind]) and not isinstance(value, bool)
    return typed and (kind != NUMBER or abs(value) <= _FLOAT_MAX)


def _check(obj, keys: dict, where: str) -> dict:
    """obj checked against a key table: no unknown keys, every required
    key present, every value of its declared type."""
    if not _is(obj, OBJECT):
        raise ConfigError(f"{where} must be an object")
    if not obj.keys() <= keys.keys():
        raise ConfigError(f"unknown key(s) {sorted(obj.keys() - keys.keys())} in {where}")
    for key, (kind, required) in keys.items():
        if required and key not in obj:
            raise ConfigError(f"{where} missing required key {key!r}")
        if key in obj and not _is(obj[key], kind):
            raise ConfigError(f"{where}.{key} must be {kind}, got {obj[key]!r}")
    return obj


def _object(pairs: list) -> dict:
    """A JSON object; a key given twice is ambiguous and rejected."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ConfigError(f"repeated key {key!r} in a config object")
        obj[key] = value
    return obj


_DECODER = json.JSONDecoder(object_pairs_hook=_object)  # json.loads builds one per call


def load_config(path: str) -> DeviceConfig:
    try:
        with open(path, "rb") as fh:
            text = fh.read().decode("utf-8")
        if "\r" in text:  # the newline translation of a text-mode read
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        if text.startswith("\ufeff"):  # as json.loads rejects it
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        raw = _DECODER.decode(text)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except ConfigError:
        raise
    except (ValueError, RecursionError) as exc:  # not UTF-8, a huge integer, deep nesting
        raise ConfigError(f"undecodable config: {exc}") from exc
    _check(raw, _CONFIG_KEYS, "config")
    scale = _UNITS.get(raw["units"])
    if scale is None:
        raise ConfigError(f"units must be one of {tuple(_UNITS)}, got {raw['units']!r}")
    scenario = raw.get("scenario", "custom")
    if scenario not in SCENARIOS:
        raise ConfigError(f"scenario must be one of {tuple(SCENARIOS)}, got {scenario!r}")

    def scaled(value, where: str) -> float:
        if not math.isfinite(value * scale):
            raise ConfigError(f"{where} = {value!r} {raw['units']} is out of range")
        return value * scale

    layers_raw = raw["layers"]
    if not layers_raw:
        raise ConfigError("layers must be a non-empty list")
    equations = SCENARIOS[scenario]
    template = SQUEEZES[equations[0]][0] if equations else None
    if template is not None and len(layers_raw) != len(template):
        raise ConfigError(f"scenario {scenario!r} needs exactly {len(template)} layers")
    layers = []
    for i, entry in enumerate(layers_raw):
        _check(entry, _LAYER_KEYS, f"layers[{i}]")
        mu, nu = template[i] if template else (None, None)
        mu, nu = entry.get("mu", mu), entry.get("nu", nu)
        if mu is None or nu is None:
            raise ConfigError(f"layers[{i}] needs mu and nu for custom scenario")
        a, b = scaled(entry["a"], f"layers[{i}].a"), scaled(entry["b"], f"layers[{i}].b")
        try:
            layer = LayerSpec(a, b, entry["d"], mu, nu)
        except ValueError as exc:
            raise ConfigError(f"layers[{i}]: {exc}") from exc
        layers.append(layer)

    leads = _check(raw.get("leads", {}), _LEADS_KEYS, "leads")
    v_right = leads.get("v_right")
    spec = StructureSpec(
        tuple(layers),
        scaled(leads.get("v_left", 0.0), "leads.v_left"),
        None if v_right is None else scaled(v_right, "leads.v_right"),
    )

    sweep = raw.get("sweep")
    if sweep is not None:
        _check(sweep, _SWEEP_KEYS, "sweep")
        if sweep.get("tuned_sign", -1.0) not in (1.0, -1.0):
            raise ConfigError(f"sweep.tuned_sign must be 1 or -1, got {sweep['tuned_sign']!r}")
        if sweep.get("points", 0) > MAX_POINTS:
            raise ConfigError(f"sweep.points must be at most {MAX_POINTS}, got {sweep['points']!r}")
        sweep = dict(sweep, lo=scaled(sweep["lo"], "sweep.lo"), hi=scaled(sweep["hi"], "sweep.hi"))
    return DeviceConfig(spec, scaled(raw["energy"], "energy"), scenario, sweep)


def cmd_airy_check(args) -> int:
    from .airy import wronskian_sweep

    worst, per_regime = wronskian_sweep()
    if args.verbose:
        for name in sorted(per_regime):
            print(f"{name}: {per_regime[name]:.3e}", file=sys.stderr)
    print(f"max wronskian deviation: {worst:.3e}")
    return 0 if worst < 1e-10 else 1


def cmd_scatter(args) -> int:
    from .scattering import _lead_wavenumbers, scatter
    from .transfer import structure_matrices

    cfg = load_config(args.config)
    energy = ev_to_invnm2(args.energy) if args.energy is not None else cfg.energy
    if not math.isfinite(energy):
        raise ConfigError(f"--energy must be finite in nm^-2, got {args.energy!r}")
    try:
        potentials = stack_potentials(cfg.spec, args.epsilon, [[x.b for x in cfg.spec.layers]])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    v_l, v_r = cfg.spec.lead_potentials()
    _lead_wavenumbers(energy, v_l, v_r)  # an evanescent lead is judged before any matrix
    matrix = structure_matrices(*potentials, energy)[0]
    res = scatter(matrix, v_l, v_r, energy)
    (l11, l12), (l21, l22) = rows = matrix.tolist()
    doc = {
        "energy_invnm2": energy,
        "epsilon": args.epsilon,
        "lambda": rows,
        "det": l11 * l22 - l12 * l21,
        "R_L": [res.r_left.real, res.r_left.imag],
        "T_L": [res.t_left.real, res.t_left.imag],
        "R_R": [res.r_right.real, res.r_right.imag],
        "T_R": [res.t_right.real, res.t_right.imag],
        "reflection": res.refl_prob,
        "transmission": res.trans_prob,
        "k_left": res.k_left,
        "k_right": res.k_right,
    }
    # JSON has no NaN or inf: an opaque stack's non-finite numbers print as null
    doc = json.loads(json.dumps(doc), parse_constant=lambda _: None)
    print(json.dumps(doc, sort_keys=True, indent=2, allow_nan=False))
    return 0


def _solve(eq: ResonanceEquation, stack: StructureSpec, lo: float, hi: float, energy):
    """The equation's roots on [lo, hi]: its finder's argument checks become
    config errors; an evanescent lead or an overflow reaches main as it is."""
    from .resonance import FINDERS

    try:
        return FINDERS[eq](stack, lo, hi, energy)
    except EvanescentLeadError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def cmd_resonances(args) -> int:
    cfg = load_config(args.config)
    eq = _EQUATIONS.get(args.equation)
    if eq is None:
        raise ConfigError(f"unknown equation {args.equation!r}")
    if eq not in SCENARIOS[cfg.scenario]:
        raise ConfigError(f"equation {eq.value} does not apply to scenario {cfg.scenario!r}")
    scale = _UNITS[args.units]
    lo, hi = args.interval[0] * scale, args.interval[1] * scale
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ConfigError(f"interval needs finite LO < HI, got {args.interval}")
    rset = _solve(eq, cfg.spec, lo, hi, cfg.energy)
    lines = ["n,value_eV,value_invnm2,theta,alpha,T_n,admissible\n"]
    for root in rset.roots:
        theta = "" if root.theta is None else repr(root.theta)
        trans = "" if root.trans_prob is None else repr(root.trans_prob)
        lines.append(
            f"{root.n},{invnm2_to_ev(root.value)!r},{root.value!r},"
            f"{theta},{root.alpha!r},{trans},{int(root.admissible)}\n"
        )
    sys.stdout.write("".join(lines))
    return 0


def cmd_sweep(args) -> int:
    from .sweep import SweepRequest, run_sweep, sweep_to_csv, sweep_to_json

    cfg = load_config(args.config)
    if cfg.sweep is None:
        raise ConfigError("config has no sweep block")
    epsilons = cfg.sweep.get("epsilons", (0.5, 0.25, 0.1))
    if args.epsilons:
        try:
            epsilons = [float(e) for e in args.epsilons.split(",")]
        except ValueError as exc:
            raise ConfigError(f"--epsilons: {exc}") from exc
    if not epsilons or not all(_is(e, NUMBER) for e in epsilons):
        raise ConfigError(f"epsilons must be finite numbers, got {epsilons!r}")
    try:
        req = SweepRequest(
            structure=cfg.spec,
            tuned_layer=cfg.sweep["tuned_layer"],
            grid_lo=cfg.sweep["lo"],
            grid_hi=cfg.sweep["hi"],
            grid_points=cfg.sweep.get("points", 2001),
            epsilons=epsilons,
            energy=cfg.energy,
            tuned_sign=float(cfg.sweep.get("tuned_sign", -1.0)),
            peak_floor=float(cfg.sweep.get("peak_floor", 0.01)),
        )
    except ValueError as exc:
        raise ConfigError(f"sweep: {exc}") from exc
    if args.out and not os.path.isdir(os.path.dirname(args.out) or "."):
        # fails as the write after the sweep would, before the sweep runs
        _write(args.out, ".csv", "")
    roots: tuple[float, ...] = ()
    equations = SCENARIOS[cfg.scenario]
    points = tuple(classify_region(layer.mu, layer.nu) for layer in cfg.spec.layers)
    # the closed form describes its own squeeze only
    if req.tuned_layer == 0 and equations and TEMPLATE_EQUATIONS.get(points) is equations[0]:
        # grid value v sets b1 = tuned_sign * v, so the variable is k * v
        k = SQUEEZES[equations[0]][1] * req.tuned_sign
        lo, hi = sorted((k * req.grid_lo, k * req.grid_hi))
        rset = _solve(equations[0], cfg.spec, lo, hi, None)
        roots = tuple(sorted(k * r.value for r in rset.roots))
    result = run_sweep(req, reference_roots=roots)
    csv_text = sweep_to_csv(result)
    json_text = sweep_to_json(result)
    if args.out:
        _write(args.out, ".csv", csv_text)
        _write(args.out, ".json", json_text)
        print(f"wrote {args.out}.csv and {args.out}.json", file=sys.stderr)
    else:
        sys.stdout.write(csv_text)
    for eps, pk, conv in zip(req.epsilons, result.peaks, result.convergence):
        peaks_ev = ", ".join(f"{invnm2_to_ev(p):.6f}" for p in pk)
        errs = ", ".join(f"{invnm2_to_ev(c):.6f}" for c in conv)
        print(f"eps={eps}: peaks(eV) [{peaks_ev}] root-errors(eV) [{errs}]", file=sys.stderr)
    return 0


def _write(prefix: str, suffix: str, text: str) -> None:
    """text written to prefix + suffix; a path that cannot be written is a
    config error."""
    try:
        with open(prefix + suffix, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write output: {exc}") from exc


def cmd_limit_check(args) -> int:
    """Squeezing-convergence check for the delta-point limit: the exact T of
    the squeezed layer at each epsilon against the T of its limit matrix,
    both through scattering.trans_prob."""
    from .limits import squeezed_limit
    from .scattering import trans_prob
    from .transfer import structure_matrices

    layer = LayerSpec(
        a=ev_to_invnm2(0.3), b=ev_to_invnm2(-0.1), d=1.0, mu=1.0, nu=1.0
    )
    spec = StructureSpec((layer,))
    energy = ev_to_invnm2(0.3)
    limit = squeezed_limit(spec)  # a DELTA: the layer sits at (1, 1)
    v_l, v_r = spec.lead_potentials()
    t_lim = float(trans_prob(limit.elements(), v_l, v_r, energy))
    print("epsilon,T_exact,T_limit,abs_error")
    errors = []
    for eps in (0.5, 0.25, 0.1, 0.05):
        matrices = structure_matrices(*stack_potentials(spec, eps, [[layer.b]]), energy)
        t_eps = float(trans_prob(matrices, v_l, v_r, energy)[0])
        err = abs(t_eps - t_lim)
        errors.append(err)
        print(f"{eps!r},{t_eps!r},{t_lim!r},{err!r}")
    decreasing = all(a > b for a, b in zip(errors, errors[1:]))
    ok = decreasing and errors[-1] < 0.01
    print(f"convergence {'ok' if ok else 'FAILED'}", file=sys.stderr)
    return 0 if ok else 1


@functools.cache
def _parser():
    """The command-line parser, built on the first call only."""
    import argparse
    import re

    class _Parser(argparse.ArgumentParser):
        """An argument parser whose errors are usage errors of the one-line
        kind (exit 2 through main), not argparse's usage block; subparsers
        inherit it."""

        def error(self, message):
            raise ConfigError(message)

    parser = _Parser(
        prog="airystack",
        description="Quantum transmission through squeezed biased multilayers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("airy-check", help="Wronskian sweep of the Airy evaluator")
    p.add_argument("--verbose", action="store_true", help="per-regime deviation table")
    p.set_defaults(func=cmd_airy_check)

    p = sub.add_parser("scatter", help="transfer matrix and R/T for one energy")
    p.add_argument("config")
    p.add_argument("--energy", type=float, help="override config energy (eV)")
    p.add_argument("--epsilon", type=float, default=1.0)
    p.set_defaults(func=cmd_scatter)

    p = sub.add_parser("resonances", help="resonance set of the device template")
    p.add_argument("config")
    p.add_argument("--equation", required=True,
                   help=" | ".join(eq.value for eq in ResonanceEquation))
    p.add_argument("--interval", type=float, nargs=2, required=True,
                   metavar=("LO", "HI"))
    p.add_argument("--units", default="eV", choices=("eV", "invnm2"))
    p.set_defaults(func=cmd_resonances)

    p = sub.add_parser("sweep", help="transmission curves over the tuned bias")
    p.add_argument("config")
    p.add_argument("--epsilons", help="comma-separated, overrides config")
    p.add_argument("--out", help="output prefix for .csv/.json files")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("limit-check", help="delta-limit squeezing convergence table")
    p.set_defaults(func=cmd_limit_check)
    # a minus sign and any float literal is a number (argparse reads -1e-3 as an option)
    for p in (parser, *sub.choices.values()):
        p._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")
    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except EvanescentLeadError as exc:
        print(f"physics error: {exc}", file=sys.stderr)
        return 3
    except OverflowError as exc:
        print(f"config error: a value overflows a double ({exc})", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
