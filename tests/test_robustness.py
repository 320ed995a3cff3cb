"""Robustness judged by generators: any one config number, any command-line
value, any CPU dispatch.

The config generator edits one number of a shipped config, the argument
generator puts an extreme value into one command-line number; both run
the CLI in-process with warnings as errors.  The dispatch test reruns the
figure outputs in a child process with numpy's dispatch targets above its
baseline switched off, and compares their digest with this process's.
"""

import contextlib
import copy
import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys
import tempfile
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from airystack.cli import SCENARIOS, main

REPO = pathlib.Path(__file__).resolve().parent.parent

# the values that replace one config number: signed zeros and subnormals,
# tiny and huge magnitudes, the largest double, and a plain 3
VALUES = (
    0.0, -0.0, 5e-324, -5e-324, 1e-300, 1e-12, 1e12, 1e154, 1e300, -1e300,
    sys.float_info.max, 3.0,
)


def _shipped(name: str) -> dict:
    """configs/<name>.json, its sweep cut to 41 points at eps 0.5 and 0.1."""
    doc = json.loads((REPO / "configs" / f"{name}.json").read_text())
    if "sweep" in doc:
        doc["sweep"].update(points=41, epsilons=[0.5, 0.1])
    return doc


CONFIGS = {name: _shipped(name) for name in ("fig4", "fig6", "barrier")}


def _numbers(doc, path=()):
    """Key path of every number (not a bool) in a JSON document."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _numbers(value, path + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _numbers(value, path + (i,))
    elif isinstance(doc, (int, float)) and not isinstance(doc, bool):
        yield path


NUMBERS = [(name, path) for name, doc in CONFIGS.items() for path in _numbers(doc)]


def run(argv) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_ends_cleanly(argv) -> None:
    """One run with warnings as errors ends in exit 0, 2 or 3, one stderr
    line on a non-zero exit, and no NaN or Infinity on stdout."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(argv)
    assert code in (0, 2, 3), (argv, code, err)
    assert code == 0 or len(err.splitlines()) == 1, (argv, err)
    assert "NaN" not in out and "Infinity" not in out, argv


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(st.sampled_from(NUMBERS), st.sampled_from(VALUES))
def test_generated_configs_end_cleanly(number, value):
    name, path = number
    doc = copy.deepcopy(CONFIGS[name])
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "cfg.json")
        pathlib.Path(cfg).write_text(json.dumps(doc))
        commands = [["scatter", cfg]]
        if "sweep" in doc:
            commands.append(["sweep", cfg])
            for eq in SCENARIOS[doc["scenario"]]:
                commands.append(["resonances", cfg, "--equation", eq.value, "--interval", "-1", "1"])
        for argv in commands:
            assert_ends_cleanly(argv)


# the values put into one command-line number: signed zeros and subnormals,
# tiny, unit and huge magnitudes, and the largest double, each of both signs
ARGS = tuple(
    sign * v
    for v in (0.0, 5e-324, 1e-300, 1e-12, 0.5, 1.0, 1e12, 1e300, sys.float_info.max)
    for sign in (1.0, -1.0)
)
ARG = st.sampled_from(ARGS).map(repr)
# each figure config with the equations of its scenario
FIGURE_EQUATIONS = [
    (name, eq.value) for name in ("fig4", "fig6") for eq in SCENARIOS[CONFIGS[name]["scenario"]]
]
# argv with a config name (CONFIGS) in place of its path
ARGVS = st.one_of(
    st.builds(
        lambda config, lo, hi, units: ["resonances", config[0], "--equation", config[1],
                                       "--interval", lo, hi, "--units", units],
        st.sampled_from(FIGURE_EQUATIONS), ARG, ARG, st.sampled_from(("eV", "invnm2")),
    ),
    st.builds(
        lambda name, flag, value: ["scatter", name, flag, value],
        st.sampled_from(sorted(CONFIGS)), st.sampled_from(("--epsilon", "--energy")), ARG,
    ),
    st.builds(lambda name, value: ["sweep", name, "--epsilons", value],
              st.sampled_from(("fig4", "fig6")), ARG),
)


@pytest.fixture(scope="module")
def config_paths(tmp_path_factory) -> dict:
    """Each of CONFIGS written once: name -> path."""
    tmp = tmp_path_factory.mktemp("configs")
    for name, doc in CONFIGS.items():
        (tmp / f"{name}.json").write_text(json.dumps(doc))
    return {name: str(tmp / f"{name}.json") for name in CONFIGS}


# 500 examples run every scatter and sweep case and about 360 of the 2,592
# resonances cases, in about a second
@settings(derandomize=True, max_examples=500, deadline=None, database=None)
@given(ARGVS)
def test_generated_arguments_end_cleanly(config_paths, argv):
    assert_ends_cleanly([argv[0], config_paths[argv[1]], *argv[2:]])


def figure_digest() -> str:
    """sha256 over the fig4 and fig6 sweep CSVs, the `resonances` stdout of
    each figure set and the `airy-check --verbose` table, each with its
    exit code."""
    configs = REPO / "configs"
    commands = [["sweep", str(configs / "fig4.json")], ["sweep", str(configs / "fig6.json")]]
    for name, eq, lo, hi in (
        ("fig4", "EQ73", "-1", "0"),
        ("fig4", "EQ69", "-1", "0"),
        ("fig6", "EQ76", "0", "0.5"),
        ("fig6", "EQ83", "0", "0.5"),
    ):
        commands.append(["resonances", str(configs / f"{name}.json"), "--equation", eq,
                         "--interval", lo, hi])
    commands.append(["airy-check", "--verbose"])
    h = hashlib.sha256()
    for argv in commands:
        code, out, err = run(argv)
        table = err if argv[0] == "airy-check" else ""
        h.update(f"{argv}\n{code}\n{out}\n{table}\n".encode())
    return h.hexdigest()


def test_outputs_hold_under_every_dispatch_target():
    from numpy._core._multiarray_umath import (
        __cpu_baseline__,
        __cpu_dispatch__,
        __cpu_features__,
    )

    # dispatch targets this CPU runs above numpy's compiled baseline
    targets = [t for t in __cpu_dispatch__ if t not in __cpu_baseline__ and __cpu_features__.get(t)]
    if not targets:
        pytest.skip(f"numpy reports no dispatch target above its baseline {__cpu_baseline__}")
    env = {k: v for k, v in os.environ.items() if not k.startswith(("PYTHON", "NPY_"))}
    env.update(
        NPY_DISABLE_CPU_FEATURES=" ".join(targets),
        PYTHONPATH=os.pathsep.join(str(REPO / d) for d in ("src", "tests")),
        PYTHONDONTWRITEBYTECODE="1",
    )
    child = (
        "from numpy._core._multiarray_umath import __cpu_features__ as f\n"
        f"assert not any(f[t] for t in {targets!r}), 'a dispatch target is still on'\n"
        "from test_robustness import figure_digest\n"
        "print(figure_digest())\n"
    )
    proc = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == figure_digest()
