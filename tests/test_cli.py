"""CLI subcommands: exit codes, output shapes, config validation."""

import copy
import importlib
import importlib.util
import json
import math
import os
import pathlib
import pkgutil
import random
import subprocess
import sys
import warnings

import pytest

import airystack
import airystack.lockstep
from airystack import cli
from airystack.cli import load_config, main
from airystack.errors import ConfigError
from airystack.potential import EV_TO_INVNM2

REPO = pathlib.Path(__file__).resolve().parent.parent
EV = 2.62464


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


BARRIER = {
    "units": "invnm2",
    "scenario": "custom",
    "energy": 0.5,
    "layers": [{"a": 1.0, "b": 0.0, "d": 1.0, "mu": 0.0, "nu": 0.0}],
    "leads": {"v_left": 0.0, "v_right": 0.0},
}


def test_airy_check_ok(capsys):
    assert main(["airy-check"]) == 0
    out = capsys.readouterr().out
    assert "max wronskian deviation" in out
    assert float(out.split(":")[1]) < 1e-10


def test_airy_check_injected_fault(monkeypatch, capsys):
    monkeypatch.setattr("airystack.airy.wronskian_sweep", lambda: (1e-6, {}))
    assert main(["airy-check"]) == 1


def test_airy_check_verbose_regime_table(capsys):
    assert main(["airy-check", "--verbose"]) == 0
    err = capsys.readouterr().err
    assert "series" in err and "oscillatory" in err


def test_scatter_rectangular_barrier(tmp_path, capsys):
    cfg = write_config(tmp_path, BARRIER)
    assert main(["scatter", cfg]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["transmission"] == pytest.approx(0.6292902736348536, rel=1e-10)
    assert doc["reflection"] + doc["transmission"] == pytest.approx(1.0)
    assert doc["det"] == pytest.approx(1.0, rel=1e-12)


def test_scatter_free_layer_full_transmission(tmp_path, capsys):
    doc = dict(BARRIER)
    doc["layers"] = [{"a": 0.0, "b": 0.0, "d": 1.0, "mu": 0.0, "nu": 0.0}]
    cfg = write_config(tmp_path, doc)
    assert main(["scatter", cfg]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["transmission"] == pytest.approx(1.0)


def test_scatter_malformed_config_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"units": "eV",}')
    assert main(["scatter", str(path)]) == 2
    assert "line" in capsys.readouterr().err


def test_scatter_unknown_key_exit_2(tmp_path, capsys):
    doc = dict(BARRIER)
    doc["extra_field"] = 1
    cfg = write_config(tmp_path, doc)
    assert main(["scatter", cfg]) == 2
    assert "extra_field" in capsys.readouterr().err


def test_scatter_evanescent_lead_exit_3(tmp_path, capsys):
    doc = dict(BARRIER)
    doc["leads"] = {"v_left": 0.0, "v_right": 2.0}
    cfg = write_config(tmp_path, doc)
    assert main(["scatter", cfg]) == 3


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize(
    "layers",
    [
        # the matrix is finite, but its det overflows
        [{"a": 0.5, "b": 0.0, "d": 400.0, "mu": 0.0, "nu": 0.0}],
        # the 300-layer product overflows
        [
            {"a": 0.5, "b": 0.0, "d": 5.0, "mu": 0.0, "nu": 0.0},
            {"a": 0.0, "b": 0.0, "d": 2.0, "mu": 0.0, "nu": 0.0},
        ] * 150,
    ],
    ids=["barrier-400nm", "150-periods"],
)
def test_scatter_prints_strict_json_for_an_opaque_stack(tmp_path, capsys, layers):
    doc = {"units": "eV", "scenario": "custom", "energy": 0.1, "layers": layers,
           "leads": {"v_left": 0.0, "v_right": 0.0}}
    assert main(["scatter", write_config(tmp_path, doc)]) == 0
    out = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert out["det"] is None  # a non-finite number is null


def test_resonances_fig3_eq73(capsys):
    cfg = str(REPO / "configs" / "fig4.json")
    assert main(["resonances", cfg, "--equation", "EQ73", "--interval", "-0.6", "0.0"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "n,value_eV,value_invnm2,theta,alpha,T_n,admissible"
    rows = [line.split(",") for line in lines[1:]]
    got = sorted(-float(r[1]) for r in rows)
    for val, want in zip(got, (0.050414, 0.238433, 0.501658)):
        assert val == pytest.approx(want, abs=1e-5)


def test_resonances_fig5_eq76(capsys):
    cfg = str(REPO / "configs" / "fig6.json")
    assert main(["resonances", cfg, "--equation", "EQ76", "--interval", "0.0", "0.4"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    got = [float(r.split(",")[1]) for r in lines[1:]]
    for val, want in zip(got, (0.037604, 0.150415, 0.338433)):
        assert val == pytest.approx(want, abs=1e-5)


def test_resonances_interval_takes_negative_scientific_notation(capsys):
    cfg = str(REPO / "configs" / "fig4.json")
    outputs = []
    for lo in ("-1", "-1e0"):
        assert main(["resonances", cfg, "--equation", "EQ69", "--interval", lo, "0"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] and len(outputs[0].splitlines()) >= 4


def test_resonances_scenario_mismatch_exit_2(capsys):
    cfg = str(REPO / "configs" / "fig4.json")
    assert main(["resonances", cfg, "--equation", "EQ83", "--interval", "0.0", "0.4"]) == 2


def test_resonances_eq83_on_fig6(capsys):
    cfg = str(REPO / "configs" / "fig6.json")
    assert main(["resonances", cfg, "--equation", "EQ83", "--interval", "0.001", "0.49"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) >= 4  # four roots inside (0, 0.5) eV
    thetas = [float(r.split(",")[3]) for r in lines[1:]]
    assert all(abs(t) > 1.0 for t in thetas)


def test_sweep_writes_files_and_summary(tmp_path, capsys):
    doc = {
        "units": "eV",
        "scenario": "fig3_barrier_well",
        "energy": 0.1,
        "layers": [
            {"a": 0.5, "b": 0.0, "d": 2.0},
            {"a": -0.1, "b": 0.0, "d": 10.0},
        ],
        "sweep": {
            "tuned_layer": 0,
            "tuned_sign": -1.0,
            "lo": 0.01,
            "hi": 0.35,
            "points": 201,
            "epsilons": [0.25],
        },
    }
    cfg = write_config(tmp_path, doc)
    out_prefix = str(tmp_path / "run")
    assert main(["sweep", cfg, "--out", out_prefix]) == 0
    err = capsys.readouterr().err
    assert "peaks(eV)" in err
    csv_text = (tmp_path / "run.csv").read_text()
    assert csv_text.startswith("epsilon,tuned_value_eV,tuned_value_invnm2,T,R")
    doc = json.loads((tmp_path / "run.json").read_text())
    assert doc["epsilons"] == [0.25]
    assert doc["sweeps"][0]["peaks_eV"]


def test_sweep_epsilon_override_single_curve(tmp_path, capsys):
    doc = {
        "units": "eV",
        "scenario": "fig3_barrier_well",
        "energy": 0.1,
        "layers": [
            {"a": 0.5, "b": 0.0, "d": 2.0},
            {"a": -0.1, "b": 0.0, "d": 10.0},
        ],
        "sweep": {"tuned_layer": 0, "lo": 0.01, "hi": 0.2, "points": 41},
    }
    cfg = write_config(tmp_path, doc)
    assert main(["sweep", cfg, "--epsilons", "1.0"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    assert len(lines) == 1 + 41
    assert all(line.startswith("1.0,") for line in lines[1:])


def test_sweep_without_block_exit_2(tmp_path, capsys):
    cfg = write_config(tmp_path, BARRIER)
    assert main(["sweep", cfg]) == 2


def test_limit_check(capsys):
    assert main(["limit-check"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    assert lines[0] == "epsilon,T_exact,T_limit,abs_error"
    errs = [float(line.split(",")[3]) for line in lines[1:]]
    assert errs == sorted(errs, reverse=True)


def test_shipped_configs_parse():
    for name in ("fig4.json", "fig6.json", "barrier.json"):
        cfg = load_config(str(REPO / "configs" / name))
        assert cfg.spec.layers


def test_load_config_template_powers():
    cfg = load_config(str(REPO / "configs" / "fig4.json"))
    assert (cfg.spec.layers[0].mu, cfg.spec.layers[0].nu) == (1.0, 1.0)
    assert (cfg.spec.layers[1].mu, cfg.spec.layers[1].nu) == (2.0, 1.0)
    assert cfg.energy == pytest.approx(0.1 * EV)
    cfg = load_config(str(REPO / "configs" / "fig6.json"))
    assert (cfg.spec.layers[1].mu, cfg.spec.layers[1].nu) == (2.0, 0.0)
    assert cfg.spec.lead_potentials()[1] == pytest.approx(-0.2 * EV)


def test_load_config_rejects_wrong_layer_count(tmp_path):
    doc = {
        "units": "eV",
        "scenario": "fig5_transistor",
        "energy": 0.1,
        "layers": [{"a": 0.5, "b": 0.0, "d": 2.0}],
    }
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, doc))


def test_custom_requires_powers(tmp_path):
    doc = {
        "units": "invnm2",
        "scenario": "custom",
        "energy": 0.5,
        "layers": [{"a": 1.0, "b": 0.0, "d": 1.0}],
    }
    with pytest.raises(ConfigError):
        load_config(write_config(tmp_path, doc))


FIG4 = json.loads((REPO / "configs" / "fig4.json").read_text())
FIG6 = json.loads((REPO / "configs" / "fig6.json").read_text())
SWEEP = ["sweep"]
EQ73 = ["resonances", "--equation", "EQ73_DELTA_BARRIER_WELL", "--interval", "-0.6", "0.0"]
EQ83_FUZZ = ["resonances", "--equation", "EQ83", "--interval", "-1", "1"]
MAX = sys.float_info.max


# one 1 nm layer of a = 1e6 nm^-2 at E = 0.5 nm^-2: q * w (flat) or the
# Airy exponent (tilted) passes what exp/cosh can hold in a double
STEEP = {
    **BARRIER,
    "layers": [{"a": 1e6, "b": 0.0, "d": 1.0, "mu": 0.0, "nu": 0.0}],
    "sweep": {"tuned_layer": 0, "lo": 0.0, "hi": 1e-4, "points": 3, "epsilons": [1.0]},
}


THIN = {"a": 1.0, "b": 0.2, "d": 1e-320, "mu": 0.0, "nu": 0.0}
# q * w = 1e150 * 1e200 (flat) or the Airy exponent (tilted, sigma = 1,
# z = 1e300) past the largest double: inf, not a range error of exp or cosh
FLAT_INF = {"a": 1e300, "b": 0.0, "d": 1e200, "mu": 0.0, "nu": 0.0}
TILTED_INF = {"a": 1.0, "b": 1e300, "d": 1e300, "mu": 0.0, "nu": 0.0}
# sigma = 1 and z_right = -1e300: the oscillatory Airy phase is past the
# largest double (its exponent is 0, so only the phase is inf)
TILTED_PHASE_INF = {"a": 1.0, "b": -1e300, "d": 1e300, "mu": 0.0, "nu": 0.0}
# sigma^2 = (1e292 / 1e308)^(2/3) ~ 2e-11: the Airy argument (a - E) / sigma^2
# itself is past the largest double
TILTED_Z_INF = {"a": 1e300, "b": 1e292, "d": 1e308, "mu": 0.0, "nu": 0.0}


def edited(base, changes):
    """Deep copy of a config with (key path, value) edits applied."""
    doc = copy.deepcopy(base)
    for path, value in changes:
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
    return doc


MALFORMED = {
    # config values of the wrong JSON type, non-finite or out of range
    "energy-string": (FIG4, [(("energy",), "0.1")], SWEEP),
    "energy-bool": (FIG4, [(("energy",), True)], SWEEP),
    "energy-nan": (FIG4, [(("energy",), float("nan"))], SWEEP),
    "leads-list": (FIG4, [(("leads",), [])], SWEEP),
    "layer-a-string": (FIG4, [(("layers", 0, "a"), "0.5")], SWEEP),
    "layer-mu-string": (FIG4, [(("layers", 0, "mu"), "1")], SWEEP),
    "scenario-list": (FIG4, [(("scenario",), ["x"])], SWEEP),
    "tuned-layer-float": (FIG4, [(("sweep", "tuned_layer"), 0.0)], SWEEP),
    "tuned-layer-bool": (FIG4, [(("sweep", "tuned_layer"), True)], SWEEP),
    "tuned-sign-2": (FIG4, [(("sweep", "tuned_sign"), 2.0)], SWEEP),
    "lo-infinite": (FIG4, [(("sweep", "lo"), float("inf"))], SWEEP),
    "points-1": (FIG4, [(("sweep", "points"), 1)], SWEEP),
    "empty-range": (FIG4, [(("sweep", "lo"), 0.3), (("sweep", "hi"), 0.1)], SWEEP),
    "epsilons-ascending": (FIG4, [(("sweep", "epsilons"), [0.1, 0.5])], SWEEP),
    # command-line values
    "epsilons-abc": (FIG4, [], SWEEP + ["--epsilons", "abc"]),
    "epsilons-ascending-flag": (FIG4, [], SWEEP + ["--epsilons", "0.1,0.5"]),
    "epsilons-nan": (FIG4, [], SWEEP + ["--epsilons", "nan"]),
    "equation-EQ": (FIG4, [], ["resonances", "--equation", "EQ", "--interval", "-0.6", "0"]),
    "equation-EQ7": (FIG4, [], ["resonances", "--equation", "EQ7", "--interval", "-0.6", "0"]),
    "interval-reversed": (FIG4, [], EQ73[:-2] + ["0.0", "-0.6"]),
    "scatter-epsilon-0": (FIG4, [], ["scatter", "--epsilon", "0"]),
    "scatter-epsilon-negative": (FIG4, [], ["scatter", "--epsilon", "-1"]),
    "scatter-epsilon-nan": (FIG4, [], ["scatter", "--epsilon", "nan"]),
    "scatter-epsilon-inf": (FIG4, [], ["scatter", "--epsilon", "inf"]),
    "scatter-energy-inf": (FIG4, [], ["scatter", "--energy", "inf"]),
    "scatter-energy-nan": (FIG4, [], ["scatter", "--energy", "nan"]),
    # output prefixes that cannot be written: a missing directory, a file as a directory
    "out-missing-directory": (FIG4, [], SWEEP + ["--out", str(REPO / "configs" / "missing" / "f")]),
    "out-under-a-file": (FIG4, [], SWEEP + ["--out", str(REPO / "configs" / "fig4.json" / "f")]),
    # solver argument checks
    "eq69-well-first": (
        FIG4,
        [(("layers", 0, "a"), -0.1)],
        ["resonances", "--equation", "EQ69", "--interval", "-0.6", "0.0"],
    ),
    "eq83-well-first": (
        FIG6,
        [(("layers", 0, "a"), -0.1)],
        ["resonances", "--equation", "EQ83", "--interval", "0.0", "0.4"],
    ),
    "eq83-collector-well": (
        FIG6,
        [(("layers", 2, "a"), -0.1)],
        ["resonances", "--equation", "EQ83", "--interval", "0.0", "0.4"],
    ),
    "eq76-well-first": (
        FIG6,
        [(("layers", 0, "a"), -0.1)],
        ["resonances", "--equation", "EQ76", "--interval", "0.0", "0.4"],
    ),
    "eq76-base-a": (
        FIG6,
        [(("layers", 1, "a"), -0.02)],
        ["resonances", "--equation", "EQ76", "--interval", "0.0", "0.4"],
    ),
    "eq83-base-b": (
        FIG6,
        [(("layers", 1, "b"), -0.03)],
        ["resonances", "--equation", "EQ83", "--interval", "0.001", "0.49"],
    ),
    "eq69-interval-below-scan-step": (
        FIG4,
        [],
        ["resonances", "--equation", "EQ69", "--interval", "-1e-322", "0", "--units", "invnm2"],
    ),
    # level counts and values that overflow once scaled or squeezed
    "eq76-too-many-levels": (
        FIG6, [], ["resonances", "--equation", "EQ76", "--interval", "0", "1e300"]
    ),
    "layer-a-overflow-scatter": (FIG4, [(("layers", 0, "a"), 1e308)], ["scatter"]),
    "layer-a-overflow-eq73": (FIG4, [(("layers", 0, "a"), 1e308)], EQ73),
    "alpha-overflow-invnm2": (
        FIG4, [(("units",), "invnm2"), (("layers", 0, "a"), 1e308)], EQ73
    ),
    "eq83-theta-overflow-invnm2": (
        FIG6,
        [(("units",), "invnm2"), (("layers", 0, "a"), 1e200)],
        ["resonances", "--equation", "EQ83", "--interval", "0.001", "0.4"],
    ),
    "eq69-theta-overflow-invnm2": (
        FIG4,
        [(("units",), "invnm2"), (("layers", 0, "d"), 1e300)],
        ["resonances", "--equation", "EQ69", "--interval", "-0.6", "0.0"],
    ),
    # cosh(sqrt(a1) d1) ~ 1e308 over the well's cos: theta is +-inf at both roots
    "eq69-theta-inf-invnm2": (
        FIG4,
        [(("units",), "invnm2"), (("energy",), 0.262464),
         (("layers", 0, "a"), 126000.0), (("layers", 1, "a"), -0.262464)],
        ["resonances", "--equation", "EQ69", "--interval", "-1.5", "0", "--units", "invnm2"],
    ),
    # devices a config fuzzer found (one number edited, as in test_robustness): a
    # barrier width at the largest double makes cosh inf, so theta is nan
    # (emitter) or 0 with alpha nan (collector); a = 1e300 overflows a1 / V
    # in the scan, and the fig4 barrier's tan argument is inf.  A subnormal
    # barrier width or a tiny a1 overflows alpha's 1 / d or a1^-1.5.
    "eq83-emitter-d-max": (FIG6, [(("layers", 0, "d"), MAX)], EQ83_FUZZ),
    "eq83-collector-d-max": (FIG6, [(("layers", 2, "d"), MAX)], EQ83_FUZZ),
    "eq83-emitter-a-1e300": (FIG6, [(("layers", 0, "a"), 1e300)], EQ83_FUZZ),
    "eq83-emitter-d-5e-324": (FIG6, [(("layers", 0, "d"), 5e-324)], EQ83_FUZZ),
    "eq83-collector-d-5e-324": (FIG6, [(("layers", 2, "d"), 5e-324)], EQ83_FUZZ),
    "eq83-emitter-a-5e-324": (FIG6, [(("layers", 0, "a"), 5e-324)], EQ83_FUZZ),
    "eq83-emitter-a-1e-300": (FIG6, [(("layers", 0, "a"), 1e-300)], EQ83_FUZZ),
    "eq69-barrier-d-max": (
        FIG4, [(("layers", 0, "d"), MAX)],
        ["resonances", "--equation", "EQ69", "--interval", "-1", "1"],
    ),
    "sweep-hi-overflow": (FIG4, [(("sweep", "hi"), 1e308)], SWEEP),
    "scatter-energy-overflow": (FIG4, [], ["scatter", "--energy", "1e308"]),
    "scatter-epsilon-tiny": (FIG4, [], ["scatter", "--epsilon", "1e-300"]),
    "epsilons-tiny-flag": (FIG4, [], SWEEP + ["--epsilons", "1e-300"]),
    "points-huge": (FIG4, [(("sweep", "points"), 10**15)], SWEEP),
    # layer matrices that overflow a double
    "flat-layer-overflow-scatter": (STEEP, [], ["scatter"]),
    "tilted-layer-overflow-scatter": (STEEP, [(("layers", 0, "b"), -1.0)], ["scatter"]),
    "flat-layer-overflow-sweep": (STEEP, [], SWEEP),
    "tilted-layer-overflow-sweep": (STEEP, [(("sweep", "lo"), 0.5), (("sweep", "hi"), 1.0)], SWEEP),
    "flat-layer-inf-scatter": (STEEP, [(("layers", 0), FLAT_INF)], ["scatter"]),
    "flat-layer-inf-sweep": (STEEP, [(("layers", 0), FLAT_INF)], SWEEP),
    "tilted-layer-inf-scatter": (STEEP, [(("layers", 0), TILTED_INF)], ["scatter"]),
    "tilted-layer-inf-sweep": (
        STEEP, [(("layers", 0), TILTED_INF), (("sweep", "lo"), -1e300), (("sweep", "hi"), -1e299)],
        SWEEP,
    ),
    "tilted-layer-phase-inf-scatter": (STEEP, [(("layers", 0), TILTED_PHASE_INF)], ["scatter"]),
    "tilted-layer-phase-inf-sweep": (
        STEEP,
        [(("layers", 0), TILTED_PHASE_INF), (("sweep", "lo"), 1e299), (("sweep", "hi"), 1e300)],
        SWEEP,
    ),
    "tilted-layer-argument-inf-scatter": (STEEP, [(("layers", 0), TILTED_Z_INF)], ["scatter"]),
    "tilted-layer-argument-inf-sweep": (
        STEEP,
        [(("layers", 0), TILTED_Z_INF), (("sweep", "lo"), -1e293), (("sweep", "hi"), -1e292)],
        SWEEP,
    ),
    # a layer slope b / d past the largest double (d subnormal)
    "slope-overflow-scatter": (STEEP, [(("layers", 0), THIN)], ["scatter"]),
    "slope-overflow-sweep": (STEEP, [(("layers", 0), THIN)], SWEEP),
    # config rejections, each with its own message (CONFIG_MESSAGES)
    "layer-not-object": (FIG4, [(("layers", 0), 5)], SWEEP),
    "energy-missing": ({k: v for k, v in FIG4.items() if k != "energy"}, [], SWEEP),
    "units-meV": (FIG4, [(("units",), "meV")], SWEEP),
    "scenario-fig9": (FIG4, [(("scenario",), "fig9")], SWEEP),
    "layers-empty": (FIG4, [(("layers",), [])], SWEEP),
    "layer-d-0": (FIG4, [(("layers", 0, "d"), 0.0)], SWEEP),
    "layer-mu-negative": (BARRIER, [(("layers", 0, "mu"), -1.0)], ["scatter"]),
    "epsilons-negative": (FIG4, [(("sweep", "epsilons"), [0.5, -0.1])], SWEEP),
    # BARRIER is configs/barrier.json
    "width-underflow-scatter": (
        BARRIER, [(("layers", 0, "d"), 1e-300)], ["scatter", "--epsilon", "1e-30"]
    ),
}


# a numpy RuntimeWarning on the way to the exit is a NaN that the rule missed
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_input_exit_2(tmp_path, capsys, name):
    base, changes, command = MALFORMED[name]
    cfg = write_config(tmp_path, edited(base, changes))
    assert main([command[0], cfg, *command[1:]]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("config error:")
    assert "Traceback" not in err


BASE_ERROR = "config error: the transistor base must be flat and unbiased (a = b = 0)\n"
BARRIER_ERROR = "config error: barrier coefficients a1, a3 must be positive\n"


@pytest.mark.parametrize(
    "name, message",
    [
        ("eq83-collector-well", BARRIER_ERROR),
        ("eq76-well-first", BARRIER_ERROR),
        ("eq76-base-a", BASE_ERROR),
        ("eq83-base-b", BASE_ERROR),
    ],
)
def test_transistor_check_messages(tmp_path, capsys, name, message):
    base, changes, command = MALFORMED[name]
    cfg = write_config(tmp_path, edited(base, changes))
    assert main([command[0], cfg, *command[1:]]) == 2
    assert capsys.readouterr().err == message
    # the base is checked before the barriers
    cfg = write_config(tmp_path, edited(base, [*changes, (("layers", 1, "b"), -0.03)]))
    assert main([command[0], cfg, *command[1:]]) == 2
    assert capsys.readouterr().err == BASE_ERROR


CONFIG_MESSAGES = {
    "layer-not-object": "layers[0] must be an object",
    "energy-missing": "config missing required key 'energy'",
    "units-meV": "units must be one of ('eV', 'invnm2'), got 'meV'",
    "scenario-fig9": "scenario must be one of ('fig3_barrier_well', 'fig5_transistor', "
                     "'custom'), got 'fig9'",
    "layers-empty": "layers must be a non-empty list",
    "layer-d-0": "layers[0]: layer width d must be positive, got 0.0",
    "layer-mu-negative": "layers[0]: powers mu, nu must be non-negative",
    "epsilons-negative": "sweep: epsilons must be positive",
    "width-underflow-scatter": "a layer width underflows at epsilon = 1e-30",
}


@pytest.mark.parametrize("name", sorted(CONFIG_MESSAGES))
def test_config_rejection_messages(tmp_path, capsys, name):
    base, changes, command = MALFORMED[name]
    cfg = write_config(tmp_path, edited(base, changes))
    assert main([command[0], cfg, *command[1:]]) == 2
    assert capsys.readouterr().err == f"config error: {CONFIG_MESSAGES[name]}\n"


def test_missing_config_exit_2(tmp_path, capsys):
    assert main(["sweep", str(tmp_path / "missing.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot read config:") and err.count("\n") == 1


@pytest.mark.parametrize("name", ["out-missing-directory", "out-under-a-file"])
def test_unwritable_out_prefix_fails_before_the_sweep(tmp_path, monkeypatch, capsys, name):
    def no_sweep(*args, **kwargs):
        raise AssertionError("the sweep ran before the output prefix was checked")

    monkeypatch.setattr("airystack.sweep.run_sweep", no_sweep)
    base, changes, command = MALFORMED[name]
    cfg = write_config(tmp_path, edited(base, changes))
    assert main([command[0], cfg, *command[1:]]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot write output: ") and err.count("\n") == 1


# line ends: "\n", "\r\n" and a lone "\r", as a text-mode read translates them
LINE_ENDS = ("\n", "\r\n", "\r")


def test_config_line_ends_load_alike(tmp_path):
    text = json.dumps(FIG4, indent=1)
    specs = []
    for k, end in enumerate(LINE_ENDS):
        path = tmp_path / f"cfg{k}.json"
        path.write_bytes(text.replace("\n", end).encode())
        cfg = load_config(str(path))
        specs.append((cfg.spec, cfg.energy, cfg.scenario, cfg.sweep))
    assert specs[1:] == specs[:1] * 2


@pytest.mark.parametrize("end", LINE_ENDS, ids=("lf", "crlf", "cr"))
def test_config_syntax_error_line_for_each_line_end(tmp_path, end):
    # a missing comma after line 3 of the indented document
    lines = json.dumps(FIG4, indent=1).split("\n")
    lines[2] = lines[2].rstrip(",")
    path = tmp_path / "cfg.json"
    path.write_bytes(end.join(lines).encode())
    with open(path, encoding="utf-8") as fh:  # the line text mode reports
        with pytest.raises(json.JSONDecodeError) as text_mode:
            json.load(fh)
    assert text_mode.value.lineno == 4
    with pytest.raises(ConfigError, match=r"^invalid JSON at line 4: "):
        load_config(str(path))


# config files json cannot decode: bytes that are not UTF-8, an integer
# literal past the 4,300-digit conversion limit, arrays nested past the
# recursion limit
UNDECODABLE = {
    "not-utf8": b'{"units": "eV\xff"}',
    "huge-integer": b'{"energy": 1' + b"0" * 5000 + b"}",
    "deep-nesting": b"[" * 100_000 + b"]" * 100_000,
}


@pytest.mark.parametrize("name", sorted(UNDECODABLE))
def test_undecodable_config_exit_2(tmp_path, capsys, name):
    path = tmp_path / "cfg.json"
    path.write_bytes(UNDECODABLE[name])
    assert main(["scatter", str(path)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("config error:")


FIG4_PATH = str(REPO / "configs" / "fig4.json")
ARGUMENT_ERRORS = {
    "interval-option-like": ["resonances", FIG4_PATH, "--equation", "EQ69", "--interval", "-x", "0"],
    "interval-not-a-number": ["resonances", FIG4_PATH, "--equation", "EQ69", "--interval", "1", "z"],
    "unknown-subcommand": ["no-such-command"],
    "no-subcommand": [],
}


@pytest.mark.parametrize("name", sorted(ARGUMENT_ERRORS))
def test_argument_error_exit_2_one_line(capsys, name):
    assert main(ARGUMENT_ERRORS[name]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("config error:")


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["resonances", "--help"])
    assert exc.value.code == 0
    assert "--interval" in capsys.readouterr().out


# the bits of the matrix outputs: `scatter configs/barrier.json --epsilon 0.5`
# (lambda, det, transmission as float.hex) and the whole limit-check table
BARRIER_LAMBDA_HEX = [
    ["0x1.102ad8478db9bp+0", "0x1.055de4612a783p-1"],
    ["0x1.055de4612a783p-2", "0x1.102ad8478db9bp+0"],
]
LIMIT_CHECK_TABLE = """epsilon,T_exact,T_limit,abs_error
0.5,0.8655911444841123,0.8900224545259869,0.0244313100418746
0.25,0.8762040512545545,0.8900224545259869,0.013818403271432467
0.1,0.8841726360318141,0.8900224545259869,0.005849818494172876
0.05,0.8870495271947436,0.8900224545259869,0.0029729273312433246
"""


def test_matrix_outputs_keep_their_bits(capsys):
    assert main(["scatter", str(REPO / "configs" / "barrier.json"), "--epsilon", "0.5"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [[x.hex() for x in row] for row in doc["lambda"]] == BARRIER_LAMBDA_HEX
    assert doc["det"].hex() == "0x1.0000000000001p+0"
    assert doc["transmission"].hex() == "0x1.c4fa8d7e72e78p-1"
    assert main(["limit-check"]) == 0
    assert capsys.readouterr().out == LIMIT_CHECK_TABLE


def test_pyproject_takes_the_package_version():
    # the version is stated once, in airystack/__init__.py; setuptools
    # reads it from the source without a build
    pyprojecttoml = pytest.importorskip("setuptools.config.pyprojecttoml")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # [tool.setuptools] is "beta"
        config = pyprojecttoml.read_configuration(REPO / "pyproject.toml", expand=True)
    assert config["project"]["version"] == airystack.__version__ == "0.1.0"


def test_every_export_resolves():
    # perfbench/tracer.py skips a name it cannot find, so a stale export
    # would otherwise go unnoticed
    names = {info.name for info in pkgutil.iter_modules(airystack.__path__)}
    for name in names:
        module = importlib.import_module(f"airystack.{name}")
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert not missing, f"airystack.{name}.__all__ names {missing}"


def _run_fresh(code: str) -> subprocess.CompletedProcess:
    """code run in a fresh interpreter that imports the package from src/."""
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
    )


def _fresh(code: str, **paths) -> set[str]:
    """The modules loaded after code runs in a fresh interpreter, with
    fig4 as FIG4_PATH and each keyword as a variable of its value."""
    paths = {"FIG4_PATH": str(REPO / "configs" / "fig4.json"), **paths}
    script = (
        "".join(f"{name} = {value!r}\n" for name, value in paths.items()) + f"{code}\n"
        "import sys\nprint('loaded:', *sorted(sys.modules))"
    )
    done = _run_fresh(script)
    done.check_returncode()
    return set(done.stdout.splitlines()[-1].split()[1:])


@pytest.mark.parametrize("code, needed, unloaded", [
    (
        "from airystack import SweepRequest\nfrom airystack.cli import load_config\n"
        "cfg = load_config(FIG4_PATH)\n"
        "SweepRequest(cfg.spec, 0, cfg.sweep['lo'], cfg.sweep['hi'], 11, (0.5,), cfg.energy)",
        {"airystack.sweep"},
        {"airystack.airy", "airystack.transfer", "airystack.scattering", "airystack.limits",
         "airystack.resonance", "argparse"},
    ),
    (
        "from airystack.cli import main\n"
        "assert main(['resonances', FIG4_PATH, '--equation', 'EQ69', '--interval', '-0.6', '0'])"
        " == 0",
        {"airystack.resonance", "airystack.limits", "airystack.lockstep",
         "airystack.scattering", "argparse"},
        {"airystack.airy", "airystack.transfer", "airystack.sweep"},
    ),
    (
        "from airystack.cli import main\n"
        "assert main(['sweep', FIG4_PATH, '--epsilons', '0.5']) == 0",
        {"airystack.sweep", "airystack.lockstep", "airystack.transfer", "airystack.airy",
         "airystack.scattering", "airystack.resonance", "airystack.limits"},
        set(),
    ),
    (
        # fig4 as a custom device: its squeeze has no reference roots
        "from airystack.cli import main\n"
        "assert main(['sweep', CUSTOM_PATH, '--epsilons', '0.5']) == 0",
        {"airystack.sweep", "airystack.lockstep", "airystack.transfer", "airystack.airy",
         "airystack.scattering"},
        {"airystack.resonance", "airystack.limits"},
    ),
    (
        "from airystack.cli import main\nassert main(['scatter', FIG4_PATH]) == 0",
        {"airystack.transfer", "airystack.airy", "airystack.scattering"},
        {"airystack.limits", "airystack.resonance", "airystack.sweep", "airystack.lockstep"},
    ),
    (
        "from airystack.cli import main\nassert main(['limit-check']) == 0",
        {"airystack.limits", "airystack.transfer", "airystack.airy", "airystack.scattering"},
        {"airystack.resonance", "airystack.sweep", "airystack.lockstep"},
    ),
    (
        "from airystack.cli import main\nassert main(['airy-check']) == 0",
        {"airystack.airy"},
        {"airystack.limits", "airystack.resonance"},
    ),
], ids=["setup", "resonances", "sweep", "sweep-no-roots", "scatter", "limit-check",
        "airy-check"])
def test_each_command_loads_only_its_modules(tmp_path, code, needed, unloaded):
    # the rows of README "Start-up"
    doc = json.loads((REPO / "configs" / "fig4.json").read_text())
    for layer, (mu, nu) in zip(doc["layers"], ((1.0, 1.0), (2.0, 1.0))):
        layer.update(mu=mu, nu=nu)  # fig4's own squeeze
    custom = tmp_path / "custom.json"
    custom.write_text(json.dumps({**doc, "scenario": "custom"}))
    loaded = _fresh(code, CUSTOM_PATH=str(custom))
    assert needed <= loaded and not unloaded & loaded


def test_package_names_resolve_on_first_access():
    assert not {name for name in _fresh("import airystack") if name.startswith("airystack.")}
    # perfbench/layers.py reads package.airy.SERIES_RADIUS right after
    # `import airystack`, and perfbench/setup_probe.py imports SweepRequest
    # from the package root
    done = _run_fresh(
        "import airystack\n"
        "assert airystack.airy.SERIES_RADIUS > 0\n"
        "from airystack import SweepRequest\n"
        "assert SweepRequest is airystack.sweep.SweepRequest\n"
        "airystack.no_such_name"
    )
    assert done.returncode == 1
    assert done.stderr.splitlines()[-1] == (
        "AttributeError: module 'airystack' has no attribute 'no_such_name'"
    )
    # a dependency a submodule cannot import is that import's own error
    done = _run_fresh(
        "import sys\nsys.modules['numpy'] = None\nimport airystack\nairystack.airy"
    )
    assert done.returncode == 1
    assert done.stderr.splitlines()[-1] == (
        "ModuleNotFoundError: import of numpy halted; None in sys.modules"
    )


def test_resonances_empty_interval_prints_header_only(capsys):
    cfg = str(REPO / "configs" / "fig4.json")
    assert main(EQ73[:1] + [cfg] + EQ73[1:-2] + ["-0.01", "-0.005"]) == 0
    assert capsys.readouterr().out == "n,value_eV,value_invnm2,theta,alpha,T_n,admissible\n"


@pytest.mark.parametrize("name, equation, lo, hi", [
    ("fig4", "EQ69", "0.2", "0.5"),  # above the branch edge b1 = -a2
    ("fig6", "EQ83", "0.6", "0.9"),  # above the collector barrier a3
    ("fig6", "EQ76", "-0.4", "-0.1"),  # no positive emitter voltage
    # above both clips: the inverted clipped interval counts no level
    ("fig4", "EQ69", "1e12", "2e12"),
    ("fig6", "EQ83", "1e12", "2e12"),
])
def test_resonances_outside_the_domain_prints_header_only(capsys, name, equation, lo, hi):
    cfg = str(REPO / "configs" / f"{name}.json")
    assert main(["resonances", cfg, "--equation", equation, "--interval", lo, hi]) == 0
    assert capsys.readouterr().out == "n,value_eV,value_invnm2,theta,alpha,T_n,admissible\n"


def test_resonances_theta_overflow_names_theta(tmp_path, capsys):
    base, changes, command = MALFORMED["eq69-theta-inf-invnm2"]
    cfg = write_config(tmp_path, edited(base, changes))
    assert main([command[0], cfg, *command[1:]]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("config error: theta = -inf, ")


def test_resonances_evanescent_lead_at_root_exit_3(tmp_path, capsys):
    # the n = 1 level at b1 ~ +0.062 eV puts the right lead above E = 0.01 eV
    cfg = write_config(tmp_path, edited(FIG4, [(("energy",), 0.01)]))
    assert main(EQ73[:1] + [cfg] + EQ73[1:-2] + ["-0.6", "0.1"]) == 3
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("physics error:")


def test_resonances_eq76_raised_collector_bounds_admissibility(tmp_path, capsys):
    # b3 = +0.2 eV raises the collector (V_CB < 0): its left edge a3 - V_EB
    # bounds the admissible V_EB at a3 = 0.3 eV, below the n = 3 level
    changes = [(("energy",), 0.3), (("layers", 0, "a"), 1.0), (("layers", 2, "a"), 0.3),
               (("layers", 2, "b"), 0.2)]
    cfg = write_config(tmp_path, edited(FIG6, changes))
    assert main(["resonances", cfg, "--equation", "EQ76", "--interval", "0", "0.9"]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
    assert [(row[0], row[-1]) for row in rows] == [("1", "1"), ("2", "1"), ("3", "0"), ("4", "0")]


@pytest.mark.parametrize("where", ["config", "layer", "leads", "sweep"])
def test_repeated_key_exit_2(tmp_path, capsys, where):
    # raw text, since a dict cannot hold a key twice; one key is repeated
    # with another value at each depth of the schema the decoder's hook sees
    key, again = {
        "config": ('"units": "eV"', '"units": "invnm2"'),
        "layer": ('"a": 1.0', '"a": 2.0'),
        "leads": ('"v_left": 0.0', '"v_left": 0.1'),
        "sweep": ('"tuned_layer": 0', '"tuned_layer": 1'),
    }[where]
    text = (
        '{"units": "eV", "energy": 0.5, "layers": [{"a": 1.0, "b": 0.0, "d": 1.0, "mu": 0, '
        '"nu": 0}], "leads": {"v_left": 0.0}, "sweep": {"tuned_layer": 0, "lo": 0, "hi": 1}}'
    )
    path = tmp_path / "cfg.json"
    path.write_text(text)
    assert main(["scatter", str(path)]) == 0
    path.write_text(text.replace(key, f"{key}, {again}"))
    capsys.readouterr()
    assert main(["scatter", str(path)]) == 2
    name = key.split('"')[1]
    assert capsys.readouterr().err == f"config error: repeated key {name!r} in a config object\n"


def test_utf8_bom_exit_2(tmp_path, capsys):
    # load_config rejects a leading BOM with json.loads' own message
    text = (
        '{"units": "eV", "energy": 0.5, "layers": [{"a": 1.0, "b": 0.0, "d": 1.0, "mu": 0, '
        '"nu": 0}], "sweep": {"tuned_layer": 0, "lo": 0, "hi": 1}}'
    )
    path = tmp_path / "cfg.json"
    path.write_text("\ufeff" + text, encoding="utf-8")
    assert main(["scatter", str(path)]) == 2
    assert capsys.readouterr().err == (
        "config error: invalid JSON at line 1: Unexpected UTF-8 BOM (decode using utf-8-sig)\n"
    )
    path.write_text(text, encoding="utf-8")
    assert main(["scatter", str(path)]) == 0


def sweep_json(tmp_path, doc):
    """Short sweep of doc; returns the emitted JSON document."""
    doc = edited(doc, [(("sweep", "points"), 21), (("sweep", "epsilons"), [0.5])])
    prefix = str(tmp_path / "run")
    assert main(["sweep", write_config(tmp_path, doc), "--out", prefix]) == 0
    return json.loads(pathlib.Path(prefix + ".json").read_text())


def in_invnm2(doc):
    """Copy of an eV config in nm^-2: every value that load_config scales
    (energy, layer a and b, the leads, the sweep range) multiplied by
    EV_TO_INVNM2, the same product load_config forms."""
    out = edited(doc, [(("units",), "invnm2"), (("energy",), doc["energy"] * EV_TO_INVNM2)])
    for layer in out["layers"]:
        layer["a"], layer["b"] = layer["a"] * EV_TO_INVNM2, layer["b"] * EV_TO_INVNM2
    out["leads"] = {key: value * EV_TO_INVNM2 for key, value in out["leads"].items()}
    for key in ("lo", "hi"):
        out["sweep"][key] *= EV_TO_INVNM2
    return out


@pytest.mark.parametrize("doc", [FIG4, FIG6], ids=["fig4", "fig6"])
def test_ev_and_invnm2_configs_give_the_same_sweep(tmp_path, doc):
    paths = [write_config(tmp_path, d, f"{i}.json") for i, d in enumerate((doc, in_invnm2(doc)))]
    ev, invnm2 = ((c.spec, c.energy, c.scenario, c.sweep) for c in map(load_config, paths))
    assert ev == invnm2
    outputs = []
    for i, path in enumerate(paths):
        prefix = str(tmp_path / f"run{i}")
        assert main(["sweep", path, "--out", prefix]) == 0
        outputs.append([pathlib.Path(prefix + suffix).read_bytes() for suffix in (".csv", ".json")])
    assert outputs[0] == outputs[1]


def test_sweep_json_without_peaks_is_strict_json(tmp_path):
    # a floor above every T leaves no peak, so no distance to any root
    doc = edited(FIG4, [
        (("sweep", "peak_floor"), 2.0), (("sweep", "points"), 21), (("sweep", "epsilons"), [0.5]),
    ])
    prefix = str(tmp_path / "run")
    assert main(["sweep", write_config(tmp_path, doc), "--out", prefix]) == 0

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    parsed = json.loads(pathlib.Path(prefix + ".json").read_text(), parse_constant=reject)
    assert parsed["sweeps"][0]["convergence_invnm2"] == [None, None, None]


@pytest.mark.parametrize("doc, eps, lost", [(FIG4, 1e-4, 0), (FIG6, 3e-5, 1)], ids=["fig4", "fig6"])
def test_sweep_root_matches_only_a_peak_in_its_cell(tmp_path, doc, eps, lost):
    # at this eps the 2001-point grid misses root `lost`'s narrow peak; the
    # root must report no distance, not the one to a neighbouring root's peak
    prefix = str(tmp_path / "run")
    config = write_config(tmp_path, doc)
    assert main(["sweep", config, "--epsilons", str(eps), "--out", prefix]) == 0
    parsed = json.loads(pathlib.Path(prefix + ".json").read_text())
    roots, sweep = parsed["reference_roots_invnm2"], parsed["sweeps"][0]
    assert len(roots) == 3 and len(sweep["peaks_invnm2"]) == 2
    for i, (root, distance) in enumerate(zip(roots, sweep["convergence_invnm2"])):
        if i == lost:
            assert distance is None
        else:
            assert distance == min(abs(p - root) for p in sweep["peaks_invnm2"]) < 1e-4


def test_sweep_sign_flipped_fig6_reference_roots(tmp_path):
    shipped = sweep_json(tmp_path, FIG6)["reference_roots_invnm2"]
    flipped = edited(FIG6, [
        (("sweep", "tuned_sign"), 1.0), (("sweep", "lo"), -0.45), (("sweep", "hi"), -0.02),
    ])
    roots = sweep_json(tmp_path, flipped)["reference_roots_invnm2"]
    assert len(shipped) == 3
    assert roots == sorted(-r for r in shipped)


def test_sweep_of_negative_emitter_voltages_has_no_reference_roots(tmp_path):
    # tuned_sign 1 maps the positive grid to V_EB < 0, where EQ76 has no level
    doc = sweep_json(tmp_path, edited(FIG6, [(("sweep", "tuned_sign"), 1.0)]))
    assert doc["reference_roots_invnm2"] == []
    assert all(s["convergence_invnm2"] == [] for s in doc["sweeps"])


def test_sweep_of_other_layer_has_no_reference_roots(tmp_path):
    doc = sweep_json(tmp_path, edited(FIG4, [(("sweep", "tuned_layer"), 1)]))
    assert doc["reference_roots_invnm2"] == []
    assert all(s["convergence_invnm2"] == [] for s in doc["sweeps"])


def test_sweep_of_other_squeeze_has_no_reference_roots(tmp_path):
    # EQ73's roots belong to the (1,1) + (2,1) squeeze, not to a (2,1) barrier
    doc = sweep_json(tmp_path, edited(FIG4, [(("layers", 0, "mu"), 2)]))
    assert doc["reference_roots_invnm2"] == []
    assert all(s["convergence_invnm2"] == [] for s in doc["sweeps"])


def test_sweep_within_power_tol_of_the_squeeze_has_its_reference_roots(tmp_path):
    # powers within POWER_TOL of the template are the template, as for
    # squeezed_limit: a (1 + 1e-13, 1 + 1e-13) barrier keeps EQ73's roots
    near = 1.0 + 1e-13
    doc = edited(FIG4, [(("layers", 0, "mu"), near), (("layers", 0, "nu"), near)])
    roots = sweep_json(tmp_path, doc)["reference_roots_invnm2"]
    assert len(roots) == 3
    assert roots == sweep_json(tmp_path, FIG4)["reference_roots_invnm2"]


def test_benchmark_tracer_wraps_nothing_in_lockstep(monkeypatch):
    # the tracer wraps every public function; the lockstep driver has none,
    # so its time stays in the spans of detect_peaks and scan_and_bisect
    monkeypatch.syspath_prepend(str(REPO / "perfbench"))
    spec = importlib.util.spec_from_file_location("tracer", REPO / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.discover(airystack.lockstep) == []


@pytest.fixture
def reference_tool(monkeypatch):
    """perfbench/make_reference.py, loaded as a module."""
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS"):
        monkeypatch.setenv(name, "1")  # the tool sets both on import
    monkeypatch.syspath_prepend(str(REPO / "perfbench"))
    spec = importlib.util.spec_from_file_location(
        "make_reference", REPO / "perfbench" / "make_reference.py"
    )
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_benchmark_reference_tool_runs(tmp_path, reference_tool):
    # perfbench/make_reference.py regenerates the benchmark references through
    # names no sweep calls any more (realize, slope_is_degenerate,
    # airy_layer_params) and StructureSpec.replace_bias, which the resonance
    # finders call too; this keeps them working for it
    tool = reference_tool
    path = tmp_path / "stack.json"
    path.write_text(json.dumps(tool.stack_config(random.Random(1))))
    per_point = tool.series_args_per_point(cli, path)
    assert math.isfinite(per_point) and per_point > 0


# series_args_per_point of stack_config(random.Random(s)), s = 1 ... 8: the
# density decides which generated devices enter the `stack` pool
# (make_reference.STACK_SERIES_BAND), so it must keep its bits
PINNED_SERIES_DENSITIES = (
    "0x1.251eb851eb852p+4", "0x1.f99999999999ap+3", "0x1.270a3d70a3d71p+4",
    "0x1.5d70a3d70a3d7p+4", "0x1.2333333333333p+4", "0x1.2b851eb851eb8p+4",
    "0x1.3000000000000p+4", "0x1.4b851eb851eb8p+4",
)


def test_benchmark_reference_probe_densities_are_pinned(tmp_path, reference_tool):
    path = tmp_path / "stack.json"
    densities = []
    for seed in range(1, 9):
        path.write_text(json.dumps(reference_tool.stack_config(random.Random(seed))))
        densities.append(reference_tool.series_args_per_point(cli, path).hex())
    assert tuple(densities) == PINNED_SERIES_DENSITIES


def test_compare_outputs_names_the_columns_that_moved():
    spec = importlib.util.spec_from_file_location(
        "compare_outputs", REPO / "scripts" / "compare_outputs.py"
    )
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    old = "n,theta,T_n,admissible\n1,,0.25,1\n2,2.0,0.5,0\n3,-1.0,0.75,1\n"
    new = "n,theta,T_n,admissible\n1,,0.25,1\n2,2.0,0.5000000000000001,0\n3,-1.0,0.7,x\n"
    rows, moved = tool.column_changes(old, new)
    assert rows == 3 and sorted(moved) == ["T_n", "admissible"]
    # in units of the benchmark's agreement rule, old the reference
    assert moved["T_n"] == (
        pytest.approx(0.05 / 0.75), pytest.approx(0.05 / (1e-12 * 0.75 + 1e-14)), 2
    )
    assert moved["admissible"] == (math.inf, math.inf, 1)
    assert tool.column_changes(old, old) == (3, {})
    assert tool.column_changes(old, old + "4,,0.1,1\n") is None


def test_bench_pairs_claim_rule_on_fixed_numbers():
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", REPO / "scripts" / "bench_pairs.py"
    )
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    parent = [2.0, 2.1, 2.2, 2.3, 2.4, 2.5, 2.6, 2.7, 2.8, 2.9]  # IQR 2.675 - 2.225
    faster = [p - 0.6 for p in parent]
    s = tool.compare(parent, faster, "lower", 0.25)
    assert s["parent_quartiles"] == pytest.approx([2.225, 2.675])
    assert s["parent_iqr"] == pytest.approx(0.45) and s["parent_median"] == pytest.approx(2.45)
    assert s["pairs_change_better"] == 10 and s["claim_rule_holds"]
    assert s["bound_verdict"] == "within its bound"
    assert tool.compare(parent, [p - 1.0 for p in parent], "lower", 0.25)["bound_verdict"] == (
        "better in every run")
    # nine wins of ten hold, a tie counts for neither side, and eight fail
    nine = faster[:9] + parent[9:]
    assert tool.compare(parent, nine, "lower", 0.25)["claim_rule_holds"]
    eight = faster[:8] + parent[8:]
    assert tool.compare(parent, eight, "lower", 0.25)["pairs_change_better"] == 8
    assert not tool.compare(parent, eight, "lower", 0.25)["claim_rule_holds"]
    # every pair won, but the median gap (0.4) inside the parent's IQR (0.45)
    assert not tool.compare(parent, [p - 0.4 for p in parent], "lower", 0.25)["claim_rule_holds"]
    # fewer than ten pairs, or a larger share of failed jobs, never hold
    assert not tool.compare(parent[:9], faster[:9], "lower", 0.25)["claim_rule_holds"]
    assert not tool.compare(parent, faster, "lower", 0.25, (0.0, 0.01))["claim_rule_holds"]
    # higher is better: the mirror image
    up = tool.compare([-p for p in parent], [-p for p in faster], "higher", 0.25)
    assert up["pairs_change_better"] == 10 and up["claim_rule_holds"]
    # the bound: worse past it, unresolved when the parent spreads past it
    assert tool.compare(parent, [1.3 * p for p in parent], "lower", 0.25)["bound_verdict"] == (
        "worse than its bound")
    assert tool.compare(parent, parent, "lower", 0.25)["bound_verdict"] == "within its bound"
    assert tool.compare(parent, parent, "lower", 0.1)["bound_verdict"].startswith("unresolved")
    # the order follows the seed, so pairs split over several calls still alternate
    assert [tool.order(seed)[0] for seed in range(1001, 1005)] == ["parent", "change"] * 2
    assert tool.order(1000) == ("change", "parent")
