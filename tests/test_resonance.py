"""Resonance sets: closed forms, transcendental search, dense-scan oracles."""

import gzip
import hashlib
import json
import math
import pathlib

import mpmath
import numpy as np
import pytest

from airystack import resonance
from airystack.cli import load_config, main
from airystack.limits import (
    LimitKind,
    squeezed_limit,
    transistor_resonance_residual,
    two_layer_resonance_residual,
)
from airystack.potential import (
    EV_TO_INVNM2,
    SQUEEZES,
    LayerSpec,
    ResonanceEquation,
    StructureSpec,
)
from airystack.resonance import (
    FINDERS,
    MAX_LEVELS,
    MAX_STEPS,
    ROOT_REL_TOL,
    find_resonances_deltaprime_2layer,
    find_resonances_transistor_deltaprime,
    resonances_delta_barrier_well,
    resonances_transistor_delta,
    scan_and_bisect,
)
from airystack.scattering import scatter
from conftest import (
    barrier_well_stack,
    mp_root,
    mp_transistor_residual,
    mp_two_layer_residual,
    prufer_count,
    random_transistor_device,
    random_two_layer_device,
    refinement_cost,
    scan_and_bisect_one_at_a_time,
    transistor_coefficients,
    transistor_stack,
)

EV = EV_TO_INVNM2
ROOT = pathlib.Path(__file__).resolve().parent.parent


def dense_scan_roots(f, lo, hi, poles, n=10_000):
    """Sign-change counter oracle: n samples per pole-free piece, f taking
    the array of a piece's samples."""
    margin = 1e-10 * (hi - lo)
    edges = [lo]
    for p in sorted(p for p in poles if lo < p < hi):
        edges.extend((p - margin, p + margin))
    edges.append(hi)
    brackets = []
    for a, b in zip(edges[::2], edges[1::2]):
        xs = [a + (b - a) * i / n for i in range(n + 1)]
        fs = f(np.array(xs)).tolist()
        for i in range(n):
            if fs[i] == 0.0 or fs[i] * fs[i + 1] < 0.0:
                brackets.append((xs[i], xs[i + 1]))
    return brackets


# --- closed forms -----------------------------------------------------------


def test_barrier_well_set_matches_figure_values():
    rset = resonances_delta_barrier_well(
        barrier_well_stack(0.5 * EV, 2.0, -0.1 * EV, 10.0), -0.6 * EV, 0.0, energy=0.1 * EV
    )
    got = sorted((-r.value / EV for r in rset.roots))
    assert len(got) == 3
    for val, want in zip(got, (0.050414, 0.238433, 0.501658)):
        assert val == pytest.approx(want, abs=1e-6)
    ns = sorted(r.n for r in rset.roots)
    assert ns == [2, 3, 4]
    assert all(r.trans_prob is not None and 0 < r.trans_prob < 1 for r in rset.roots)


def test_barrier_well_unbiased_root_at_zero():
    a2 = -((math.pi / 10.0) ** 2)
    rset = resonances_delta_barrier_well(barrier_well_stack(1.0, 2.0, a2, 10.0), -0.1, 0.1)
    assert any(r.n == 1 and abs(r.value) < 1e-15 for r in rset.roots)


def test_barrier_well_empty_range():
    rset = resonances_delta_barrier_well(barrier_well_stack(1.0, 2.0, -0.25, 10.0), 0.5, 0.6)
    assert rset.roots == ()


def test_barrier_well_admissibility_flag():
    rset = resonances_delta_barrier_well(
        barrier_well_stack(0.5 * EV, 2.0, -0.1 * EV, 10.0), -0.6 * EV, 0.0
    )
    flags = {r.n: r.admissible for r in rset.roots}
    assert flags[2] and flags[3]
    assert not flags[4]  # -b1 = 0.5017 eV marginally exceeds a1 = 0.5 eV


def test_barrier_well_sorted_ascending():
    rset = resonances_delta_barrier_well(
        barrier_well_stack(0.5 * EV, 2.0, -0.1 * EV, 10.0), -0.6 * EV, 0.0
    )
    vals = rset.values()
    assert list(vals) == sorted(vals)


def test_transistor_delta_set_matches_figure_values():
    rset = resonances_transistor_delta(
        transistor_stack(0.5 * EV, 0.5 * EV, 2.0, 10.0, 2.0, 0.2 * EV), 0.0, 0.4 * EV,
        energy=0.1 * EV,
    )
    got = [r.value / EV for r in rset.roots]
    assert len(got) == 3
    for val, want in zip(got, (0.037604, 0.150415, 0.338433)):
        assert val == pytest.approx(want, abs=1e-6)
    assert [r.n for r in rset.roots] == [1, 2, 3]
    assert rset.roots[0].admissible and rset.roots[1].admissible
    assert not rset.roots[2].admissible  # 0.3384 eV > min(a1, a3 - vcb) = 0.3 eV


def test_transistor_delta_empty_below_first():
    rset = resonances_transistor_delta(
        transistor_stack(1.0, 1.0, 2.0, 10.0, 2.0, 0.0), 0.0, 0.5 * (math.pi / 10.0) ** 2
    )
    assert rset.roots == ()


def test_transistor_delta_scaling_law():
    small = resonances_transistor_delta(transistor_stack(1.0, 1.0, 2.0, 10.0, 2.0, 0.0), 0.0, 1.0)
    large = resonances_transistor_delta(transistor_stack(1.0, 1.0, 2.0, 20.0, 2.0, 0.0), 0.0, 1.0)
    for r_small in small.roots:
        quartered = next(r for r in large.roots if r.n == r_small.n)
        assert quartered.value == pytest.approx(r_small.value / 4.0, rel=1e-12)


def test_closed_forms_agree_with_generic_scanner():
    a2, d2 = -0.1 * EV, 10.0
    closed = resonances_delta_barrier_well(
        barrier_well_stack(0.5 * EV, 2.0, a2, d2), -0.6 * EV, 0.0
    )

    def f(b1):
        return np.sin(np.sqrt(-(a2 + b1)) * d2)

    scanned = scan_and_bisect(f, -0.6 * EV, -1e-9)
    assert len(scanned) == len(closed.roots)
    for x, root in zip(scanned, closed.values()):
        assert x == pytest.approx(root, abs=1e-12)

    d2 = 10.0
    closed = resonances_transistor_delta(transistor_stack(1.0, 1.0, 1.0, d2, 1.0, 0.0), 0.0, 1.2)

    def g(v):
        return np.sin(np.sqrt(v) * d2)

    scanned = scan_and_bisect(g, 1e-9, 1.2)
    assert len(scanned) == len(closed.roots)
    for x, root in zip(scanned, closed.values()):
        assert x == pytest.approx(root, abs=1e-12)


# --- batched scan and bisection ---------------------------------------------

# Most residual calls one scan in these tests may take.  The lockstep
# bisection guarantees only 1 + ceil(MAX_STEPS / 2) = 101 (two steps a
# round); these scans all keep within 1 + ceil(MAX_STEPS / 6) = 35.
MAX_CALLS = 35


def _hex(values):
    return [x.hex() for x in values]


def _one_at_a_time(f):
    """f of one float through the array contract of scan_and_bisect."""
    return lambda x: float(f(np.array([x]))[0])


def _counted(f, calls):
    def counted(xs):
        calls.append(xs.size)
        return f(xs)

    return counted


def _check_against_reference(f, lo, hi, poles=()):
    """scan_and_bisect(f, ...), asserting it equals the one-at-a-time
    reference bit for bit and calls f at most MAX_CALLS times."""
    calls = []
    got = scan_and_bisect(_counted(f, calls), lo, hi, poles)
    assert _hex(got) == _hex(scan_and_bisect_one_at_a_time(_one_at_a_time(f), lo, hi, poles))
    assert len(calls) <= MAX_CALLS
    return got


def test_batched_scan_matches_reference_on_seeded_devices(monkeypatch):
    # every scan the two scanned finders make, on C11's device draws
    scans = []

    def checked(f, lo, hi, poles=()):
        scans.append(len(poles))
        return _check_against_reference(f, lo, hi, poles)

    monkeypatch.setattr(resonance, "scan_and_bisect", checked)
    rng = np.random.default_rng(20260811)
    n_roots = 0
    for _ in range(50):
        a1, d1, a2, d2 = random_two_layer_device(rng)
        rset = find_resonances_deltaprime_2layer(barrier_well_stack(a1, d1, a2, d2), -2.5, 2.5)
        n_roots += len(rset.roots)
    for _ in range(50):
        device = random_transistor_device(rng)
        rset = find_resonances_transistor_deltaprime(transistor_stack(*device), 0.0, device[1])
        n_roots += len(rset.roots)
    assert len(scans) == 100 and sum(scans) > 100 and n_roots > 100


def test_batched_scan_grid_zero_is_a_root():
    # x = 0 is grid point 1024 of [-1, 1]; the other roots lie off the grid
    roots = _check_against_reference(lambda x: x * (x - 0.3) * (x + 0.55), -1.0, 1.0)
    assert 0.0 in roots and len(roots) == 3
    assert roots == pytest.approx([-0.55, 0.0, 0.3], abs=1e-12)


def test_batched_scan_midpoint_zero_ends_the_bracket():
    # f vanishes exactly at the third midpoint of the bracket [xs[1000], xs[1001]]
    a = -1.0 + 2.0 * 1000 / 2048
    b = -1.0 + 2.0 * 1001 / 2048
    m1 = 0.5 * (a + b)
    m2 = 0.5 * (a + m1)
    hit = 0.5 * (m2 + m1)
    roots = _check_against_reference(lambda x: x - hit, -1.0, 1.0)
    assert roots == [hit]


def test_batched_scan_root_next_to_a_pole_cut():
    # a pole at p (f jumps from + to - across it) and a root 2 margins to its
    # right, inside the first step of the piece after the cut
    lo, hi, p = 0.0, 1.0, 0.4
    r = p + 2e-10
    roots = _check_against_reference(lambda x: (x - r) / (x - p), lo, hi, (p,))
    assert roots == pytest.approx([r], rel=1e-12)


def test_batched_scan_root_where_the_interpolation_leaves_the_bracket():
    # tan(x) - 1e4 has its root 1e-4 left of the pole at pi/2, inside the
    # last bracket of the piece before the cut; tan's curvature puts the
    # inverse quadratic root through that bracket and its left neighbour
    # outside the bracket, so the first round heads for the secant root
    p = math.pi / 2

    def f(x):
        return np.tan(x) - 1e4

    step, margin = 3.0 / resonance.SCAN_STEPS, 1e-10 * 3.0
    m = max(2, int(math.ceil((p - margin) / step)) + 1)
    x2, x0, x1 = ((p - margin) * np.arange(m - 3, m) / (m - 1)).tolist()
    f2, f0, f1 = f(np.array([x2, x0, x1])).tolist()
    r = (
        x0 * f1 * f2 / ((f0 - f1) * (f0 - f2))
        + x1 * f0 * f2 / ((f1 - f0) * (f1 - f2))
        + x2 * f0 * f1 / ((f2 - f0) * (f2 - f1))
    )
    assert f0 * f1 < 0.0 and not x0 < r < x1
    roots = _check_against_reference(f, 0.0, 3.0, (p,))
    assert roots == pytest.approx([math.atan(1e4)], rel=1e-12)


def test_batched_scan_piece_of_two_points():
    # two poles closer than one scan step leave a two-point piece between
    # them: its bracket has no scan neighbour in its piece, so no third point
    p1, p2 = 0.5, 0.5 + 0.3 / resonance.SCAN_STEPS
    r = 0.5 + 0.1 / resonance.SCAN_STEPS

    def f(x):
        return (x - r) / ((x - p1) * (p2 - x))

    roots = _check_against_reference(f, 0.0, 1.0, (p1, p2))
    assert roots == pytest.approx([r], rel=1e-12)


def test_batched_scan_root_off_grid_at_zero_takes_max_steps():
    # f(0) != 0 and the root is exactly 0: the relative width never reaches
    # ROOT_REL_TOL, so the bracket runs the full MAX_STEPS
    def f(x):
        return np.where(x > 0.0, 1.0, -1.0)

    reference_calls = []

    def counted(x):
        reference_calls.append(x)
        return f(x)

    assert scan_and_bisect_one_at_a_time(counted, -0.3, 0.7) == pytest.approx([0.0], abs=1e-40)
    assert len(reference_calls) == 2049 + MAX_STEPS
    calls = []
    assert _hex(scan_and_bisect(_counted(f, calls), -0.3, 0.7)) == _hex(
        scan_and_bisect_one_at_a_time(f, -0.3, 0.7)
    )
    # f is +-1, so no three values are distinct and each round's prediction
    # is the secant root, its bracket's midpoint: the predicted path holds for about four steps a round until the bracket is
    # symmetric about 0 (42 steps), and from there (right at f(0) = -1, then
    # left for good) for the last 158 steps in one round
    assert len(calls) == 13


def test_batched_scan_takes_a_first_step_inside_the_tolerance():
    # every scan bracket is narrower than ROOT_REL_TOL * 1e6 from the start,
    # yet each still takes one bisection step, as the reference does
    def f(x):
        return (x - 1e6) * 1e10 - 0.37

    roots = _check_against_reference(f, 1e6, 1e6 + 3e-6)
    assert _hex(roots) == ["0x1.e848000000003p+19"]


def test_batched_scan_calls_independent_of_bracket_count():
    # 95 sign changes still take one scan call and a few lockstep rounds
    roots = _check_against_reference(lambda x: np.sin(300.0 * x), 0.01, 1.0)
    assert len(roots) == 95


def test_batched_scan_sign_test_does_not_underflow():
    # |f0 f1| < ~5e-324 would read as no sign change in a product test
    def sine(x):
        return np.sin(20.0 * x)

    c = 1e-170
    roots = _check_against_reference(lambda x: c * sine(x), 0.01, 1.0)
    assert len(roots) == 6
    assert _hex(roots) == _hex(scan_and_bisect(sine, 0.01, 1.0))
    roots = _check_against_reference(lambda x: c * (x - 0.3), 0.0, 1.0)
    assert roots == pytest.approx([0.3], rel=1e-12)


def test_scan_of_an_interval_narrower_than_its_steps_is_an_error():
    with pytest.raises(ValueError, match="too narrow"):
        scan_and_bisect(lambda x: x, -1e-322, 0.0)
    assert scan_and_bisect(lambda x: x + 5e-321, -1e-320, 0.0)


def test_scan_of_an_empty_interval_has_no_roots():
    def never(x):
        raise AssertionError("f was called on an empty interval")

    assert scan_and_bisect(never, 1.0, 1.0) == []


@pytest.mark.parametrize(
    "config, equation, interval",
    [
        ("fig4", ResonanceEquation.EQ69_DELTAPRIME_2LAYER, (-1.0 * EV, 0.0)),
        ("fig6", ResonanceEquation.EQ83_TRANSISTOR_DELTAPRIME, (0.0, 0.5 * EV)),
    ],
)
def test_figure_sets_take_few_residual_calls(monkeypatch, config, equation, interval):
    calls = []
    scan = resonance.scan_and_bisect
    monkeypatch.setattr(
        resonance, "scan_and_bisect", lambda f, *args: scan(_counted(f, calls), *args)
    )
    cfg = load_config(f"{ROOT}/configs/{config}.json")
    rset = FINDERS[equation](cfg.spec, *interval, cfg.energy)
    assert len(rset.roots) >= 3
    # the scan, a round on the interpolated paths and one that closes the
    # brackets whose path broke
    assert len(calls) <= 3


# --- scanned roots against mpmath --------------------------------------------

# A scanned root's error bound, fixed before any error was looked at: the
# bisection's closure width plus the residual's round-off, 1e-15 of its
# scale, carried to the root by its condition kappa = scale / |root f'|.
ORACLE_ROUNDOFF = 1e-15


def _figure_case(name, equation, interval):
    cfg = load_config(f"{ROOT}/configs/{name}.json")
    return cfg.spec, equation, interval[0] * EV, interval[1] * EV


def _seeded_case(kind, seed):
    rng = np.random.default_rng(seed)
    if kind == "two-layer":
        a1, d1, a2, d2 = random_two_layer_device(rng)
        eq = ResonanceEquation.EQ69_DELTAPRIME_2LAYER
        return barrier_well_stack(a1, d1, a2, d2), eq, -2.5, 2.5
    device = random_transistor_device(rng)
    eq = ResonanceEquation.EQ83_TRANSISTOR_DELTAPRIME
    return transistor_stack(*device), eq, 0.0, device[1]


ROOT_ORACLE_CASES = {
    "fig4-EQ69": (_figure_case, "fig4", ResonanceEquation.EQ69_DELTAPRIME_2LAYER, (-1.0, 0.0)),
    "fig6-EQ83": (_figure_case, "fig6", ResonanceEquation.EQ83_TRANSISTOR_DELTAPRIME, (0.0, 0.5)),
    **{f"{kind}-{seed}": (_seeded_case, kind, seed)
       for kind in ("two-layer", "transistor") for seed in (1, 2)},
}


@pytest.mark.parametrize("case", sorted(ROOT_ORACLE_CASES))
def test_scanned_roots_against_mpmath(case):
    make, *args = ROOT_ORACLE_CASES[case]
    stack, eq, lo, hi = make(*args)
    if eq is ResonanceEquation.EQ69_DELTAPRIME_2LAYER:
        barrier, well = stack.layers
        residual = mp_two_layer_residual(barrier.a, well.a, barrier.d, well.d)
    else:
        residual = mp_transistor_residual(stack)
    roots = FINDERS[eq](stack, lo, hi).values()
    assert len(roots) >= 2
    for root in roots:
        exact, kappa = mp_root(residual, root)
        error = float(abs(root - exact))
        bound = (ROOT_REL_TOL + kappa * ORACLE_ROUNDOFF) * abs(root)
        assert error <= bound, (root, error / abs(root), kappa)


# --- scanned root counts against the Prufer angle ----------------------------

EQ69 = ResonanceEquation.EQ69_DELTAPRIME_2LAYER
EQ83 = ResonanceEquation.EQ83_TRANSISTOR_DELTAPRIME


def _prufer_roots(stack, eq, lo, hi):
    """The number of zeros of (Pi M0)21 over the finder's own domain: EQ69
    below the branch edge b1 = -a2, its well's q0 = a2 + b1; EQ83 inside
    (0, a3), the base's q0 = -V and the collector's a3 - V."""
    layers = stack.layers
    widths = [layer.d for layer in layers]
    if eq is EQ69:
        a1, a2 = layers[0].a, layers[1].a
        return prufer_count(lambda b1: (a1, a2 + b1), widths, lo, min(hi, -a2))
    a1, a3 = layers[0].a, layers[2].a
    return prufer_count(lambda v: (a1, -v, a3 - v), widths, max(lo, 0.0), min(hi, a3))


@pytest.mark.parametrize(
    "name, eq, interval", [("fig4", EQ69, (-1.0, 0.0)), ("fig6", EQ83, (0.0, 0.5))]
)
def test_figure_root_count_equals_prufer_count(name, eq, interval):
    cfg = load_config(f"{ROOT}/configs/{name}.json")
    lo, hi = interval[0] * EV, interval[1] * EV
    count = _prufer_roots(cfg.spec, eq, lo, hi)
    assert len(FINDERS[eq](cfg.spec, lo, hi).roots) == count >= 2


# each equation on its figure config and the interval of the figure
FIGURE_SETS = [
    ("fig4", ResonanceEquation.EQ73_DELTA_BARRIER_WELL, (-1.0 * EV, 0.0)),
    ("fig4", ResonanceEquation.EQ69_DELTAPRIME_2LAYER, (-1.0 * EV, 0.0)),
    ("fig6", ResonanceEquation.EQ76_TRANSISTOR_DELTA, (0.0, 0.5 * EV)),
    ("fig6", ResonanceEquation.EQ83_TRANSISTOR_DELTAPRIME, (0.0, 0.5 * EV)),
]


# The third EQ83 root of transistor device 27 lies 5.2e-5 nm^-2 above a
# tangent pole; the RESIDUAL_RTOL gate of limits._transistor_deltaprime
# classifies it as a wall (CHANGES.md, the FOUND line on that gate).
DROPPED_ROOT = ("transistor", 27, EQ83.value)


def _pool():
    """The `resonances` benchmark pool, read only: per kind, each device's
    config and its sets (equation, interval in eV, reference rows)."""
    with gzip.open(ROOT / "perfbench" / "reference" / "resonances.json.gz", "rt") as fh:
        return json.load(fh)


def _pool_sets():
    pool = _pool()
    for kind in ("barrier_well", "transistor"):
        for i, device in enumerate(pool[kind]):
            for s in device["sets"]:
                if s["equation"] not in (EQ69.value, EQ83.value):
                    continue
                marks = ()
                if (kind, i, s["equation"]) == DROPPED_ROOT:
                    marks = pytest.mark.xfail(strict=True, reason="the finder drops a real root")
                yield pytest.param(
                    device["config"], s["equation"], s["interval"],
                    id=f"{kind}-{i}-{s['equation'][:4]}", marks=marks,
                )


@pytest.mark.parametrize("config, equation, interval", _pool_sets())
def test_pool_root_count_equals_prufer_count(tmp_path, config, equation, interval):
    path = tmp_path / "device.json"
    path.write_text(json.dumps(config))
    stack, eq = load_config(str(path)).spec, ResonanceEquation(equation)
    lo, hi = interval[0] * EV, interval[1] * EV
    assert len(FINDERS[eq](stack, lo, hi).roots) == _prufer_roots(stack, eq, lo, hi)


def test_pool_refinement_cost_is_pinned(tmp_path, monkeypatch):
    # the 192 scanned sets (EQ69, EQ83) of the `resonances` benchmark workload
    path, sets = tmp_path / "device.json", 0
    cost = refinement_cost(monkeypatch, resonance)
    pool = _pool()
    for kind in ("barrier_well", "transistor"):
        for device in pool[kind]:
            path.write_text(json.dumps(device["config"]))
            stack = load_config(str(path)).spec
            for s in device["sets"]:
                if s["equation"] in (EQ69.value, EQ83.value):
                    sets += 1
                    lo, hi = s["interval"]
                    FINDERS[ResonanceEquation(s["equation"])](stack, lo * EV, hi * EV)
    assert sets == 192
    assert cost[0] <= 401 and cost[1] <= 29_279, cost


def test_pool_trans_prob_matches_the_closed_form_reference(tmp_path):
    # the reference's T_n column holds the paper's closed form
    # (conftest.limit_transmission_closed_form); each root's T_n comes from
    # its limit matrix through scattering's formula
    pool, path = _pool(), tmp_path / "device.json"
    sets, worst = 0, 0.0
    for kind in ("barrier_well", "transistor"):
        for device in pool[kind]:
            path.write_text(json.dumps(device["config"]))
            cfg = load_config(str(path))
            for s in device["sets"]:
                lo, hi = s["interval"][0] * EV, s["interval"][1] * EV
                finder = FINDERS[ResonanceEquation(s["equation"])]
                roots = finder(cfg.spec, lo, hi, cfg.energy).roots
                assert len(roots) == len(s["rows"])
                for root, row in zip(roots, s["rows"]):
                    worst = max(worst, abs(root.trans_prob - row[5]) / row[5])
                sets += 1
    assert sets == 384 and worst <= 1e-14


# sha256 of the `resonances` stdout of the pool's 384 sets in pool order,
# then of fig4 EQ73/EQ69 on [-1, 0] eV and fig6 EQ76/EQ83 on [0, 0.5] eV
RESONANCES_STDOUT_SHA256 = "6444971f05f18902f0f154346dc886c04c1fc24043ec5421b40500c42ddc46f7"


def test_resonances_stdout_keeps_its_bits(tmp_path, capsys):
    commands = []
    pool = _pool()
    for kind in ("barrier_well", "transistor"):
        for i, device in enumerate(pool[kind]):
            path = tmp_path / f"{kind}-{i}.json"
            path.write_text(json.dumps(device["config"]))
            for s in device["sets"]:
                interval = [repr(float(x)) for x in s["interval"]]
                commands.append((path, s["equation"], interval))
    assert len(commands) == 384
    for name, eq, interval in (("fig4", "EQ73", ("-1", "0")), ("fig4", "EQ69", ("-1", "0")),
                               ("fig6", "EQ76", ("0", "0.5")), ("fig6", "EQ83", ("0", "0.5"))):
        commands.append((ROOT / "configs" / f"{name}.json", eq, interval))
    digest = hashlib.sha256()
    for path, eq, interval in commands:
        assert main(["resonances", str(path), "--equation", eq, "--interval", *interval]) == 0
        digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == RESONANCES_STDOUT_SHA256


def _at_powers(stack, powers):
    """stack with layer i squeezed at powers[i]."""
    layers = (LayerSpec(x.a, x.b, x.d, mu, nu) for x, (mu, nu) in zip(stack.layers, powers))
    return StructureSpec(tuple(layers), stack.v_left, stack.v_right_override)


def _tuned(stack, eq, value):
    """stack at the equation's template: each layer at its SQUEEZES powers,
    layer 0's bias at the tuned variable's b1 = s * value."""
    powers, sign = SQUEEZES[eq]
    return _at_powers(stack, powers).replace_bias(0, sign * value)


@pytest.mark.parametrize("config, equation, interval", FIGURE_SETS)
def test_finders_ignore_the_stack_powers(config, equation, interval):
    # a finder reads widths, coefficients, biases and leads only: the figure
    # stack at the scenario's powers, at the equation's own and at (0, 0)
    # gives one set
    cfg = load_config(f"{ROOT}/configs/{config}.json")
    sets = [
        FINDERS[equation](_at_powers(cfg.spec, powers), *interval, cfg.energy)
        for powers in ([(x.mu, x.nu) for x in cfg.spec.layers], SQUEEZES[equation][0],
                       [(0.0, 0.0)] * len(cfg.spec.layers))
    ]
    assert len(sets[0].roots) >= 2
    assert sets[1] == sets[0] and sets[2] == sets[0]


def test_root_t_n_of_a_huge_theta_is_zero():
    # theta ~ 1e201 at both roots: the closed form's (k / theta + k_r theta)^2
    # overflows a double, while T of the limit matrix, 4 k_l / k_r over
    # 4 k_l / k_r + p^2 + q^2, rounds to 0 as trans_prob's does
    stack = barrier_well_stack(52900.0, 2.0, -0.1 * EV, 10.0)
    roots = find_resonances_deltaprime_2layer(stack, -1.5, 0.0, 0.1 * EV).roots
    assert len(roots) == 2
    assert all(abs(r.theta) > 1e200 and r.trans_prob == 0.0 for r in roots)


# --- closed-form levels, alpha and theta against mpmath ----------------------

# Each bound below was fixed, from its expression's condition, before any
# error was looked at.  u = 2^-53 is the unit round-off; every libm call
# is taken as correct to one ulp, and a phase phi = sqrt(.) d carries at
# most 3u relative error, which a factor f(phi) turns into
# phi |f'(phi) / f(phi)| relative error of f.
# - level -(n pi / d)^2 + offset: pi, n pi, / d and the square give at most
#   6u of the term, the sum u of the result: 8u (term + |offset|).
# - alpha = sum over barriers of (a + u + b / 2) d: three roundings per
#   barrier and one for the sum: 4u sum (|a| + |u| + |b| / 2) d.
# - EQ69 theta = cosh(phi1) / cos(phi2): 8u (1 + phi1 + phi2 |tan phi2|).
# - EQ83 theta = I1 = N / cosh(phi3), N = cosh(phi1) cos(phi2)
#   + (q1 / k2) sinh(phi1) sin(phi2): N's terms each err by at most
#   8u (1 + phi1 + phi2) of their moduli, and N can cancel, so
#   8u ((1 + phi1 + phi2) (cosh(phi1) + (q1 / k2) sinh(phi1)) / |N| + 1 + phi3).
U = 2.0**-53
CLOSED_FORM = {
    ResonanceEquation.EQ69_DELTAPRIME_2LAYER: ResonanceEquation.EQ73_DELTA_BARRIER_WELL,
    ResonanceEquation.EQ83_TRANSISTOR_DELTAPRIME: ResonanceEquation.EQ76_TRANSISTOR_DELTA,
}


def _mp_levels_and_alpha(stack, eq, root):
    """The root's level, its error bound, the barriers' summed strength and
    its bound, in 50-digit arithmetic from the stack's float values."""
    n, b1 = mpmath.mpf(root.n), root.value
    if eq is ResonanceEquation.EQ73_DELTA_BARRIER_WELL:
        barrier, well = stack.layers
        offset = -mpmath.mpf(well.a)
        barriers = ((barrier.a, 0.0, b1, barrier.d),)
    else:
        b1 = -root.value
        emitter, base, collector = stack.layers
        offset = mpmath.mpf(0)
        barriers = ((emitter.a, 0.0, b1, emitter.d), (collector.a, b1, collector.b, collector.d))
    term = (n * mpmath.pi / stack.layers[1].d) ** 2
    level = (-term if eq is ResonanceEquation.EQ73_DELTA_BARRIER_WELL else term) + offset
    alpha = mpmath.fsum((mpmath.mpf(a) + u + mpmath.mpf(b) / 2) * d for a, u, b, d in barriers)
    alpha_bound = 4 * U * sum((abs(a) + abs(u) + abs(b) / 2) * d for a, u, b, d in barriers)
    return level, 8 * U * (term + abs(offset)), alpha, alpha_bound


def _mp_theta(stack, eq, value):
    """theta of the scanned set at the float root value, and its error
    bound relative to theta, in 50-digit arithmetic."""
    if eq is ResonanceEquation.EQ69_DELTAPRIME_2LAYER:
        barrier, well = stack.layers
        phi1 = mpmath.sqrt(barrier.a) * barrier.d
        phi2 = mpmath.sqrt(-(mpmath.mpf(well.a) + value)) * well.d
        theta = mpmath.cosh(phi1) / mpmath.cos(phi2)
        return theta, 8 * U * (1 + phi1 + phi2 * abs(mpmath.tan(phi2)))
    a1, a3, d1, d2, d3 = transistor_coefficients(stack)
    q1, k2 = mpmath.sqrt(a1), mpmath.sqrt(value)
    phi1, phi2 = q1 * d1, k2 * d2
    phi3 = mpmath.sqrt(a3 - mpmath.mpf(value)) * d3
    c1h, s1h = mpmath.cosh(phi1), mpmath.sinh(phi1)
    numerator = c1h * mpmath.cos(phi2) + (q1 / k2) * s1h * mpmath.sin(phi2)
    theta = numerator / mpmath.cosh(phi3)
    spread = (1 + phi1 + phi2) * (c1h + (q1 / k2) * s1h) / abs(numerator)
    return theta, 8 * U * (spread + 1 + phi3)


@pytest.mark.parametrize("case", sorted(ROOT_ORACLE_CASES))
def test_closed_form_levels_and_alpha_against_mpmath(case):
    make, *args = ROOT_ORACLE_CASES[case]
    stack, scanned, lo, hi = make(*args)
    eq = CLOSED_FORM[scanned]
    roots = FINDERS[eq](stack, lo, hi).roots
    assert roots
    with mpmath.workdps(50):
        for root in roots:
            level, level_bound, alpha, alpha_bound = _mp_levels_and_alpha(stack, eq, root)
            assert abs(root.value - level) <= level_bound, (root.n, root.value, level)
            assert abs(root.alpha - alpha) <= alpha_bound, (root.n, root.alpha, alpha)


@pytest.mark.parametrize("case", sorted(ROOT_ORACLE_CASES))
def test_scanned_theta_against_mpmath(case):
    make, *args = ROOT_ORACLE_CASES[case]
    stack, eq, lo, hi = make(*args)
    roots = FINDERS[eq](stack, lo, hi).roots
    assert len(roots) >= 2
    with mpmath.workdps(50):
        for root in roots:
            theta, bound = _mp_theta(stack, eq, root.value)
            assert abs(root.theta - theta) <= bound * abs(theta), (root.value, root.theta, theta)


# --- two-layer transcendental search ----------------------------------------


def _poles_2layer(a2, d2, lo, hi):
    poles = []
    m = 0
    while True:
        b = -(((m + 0.5) * math.pi / d2) ** 2) - a2
        if b < lo:
            break
        if b <= hi:
            poles.append(b)
        m += 1
    return poles


def test_2layer_roots_match_dense_scan(rng):
    for _ in range(10):
        a1 = rng.uniform(0.2, 2.0)
        d1 = rng.uniform(0.5, 3.0)
        a2 = rng.uniform(-1.0, 0.5)
        d2 = rng.uniform(3.0, 12.0)
        lo, hi = -2.5, min(2.5, -a2 - 1e-12 * max(1.0, abs(a2)))
        rset = find_resonances_deltaprime_2layer(barrier_well_stack(a1, d1, a2, d2), lo, 2.5)

        def f(b1):
            return two_layer_resonance_residual(a1, a2 + b1, d1, d2)[0]

        brackets = dense_scan_roots(f, lo, hi, _poles_2layer(a2, d2, lo, hi))
        assert len(brackets) == len(rset.roots)
        for (bl, bh), root in zip(brackets, rset.values()):
            assert bl - 1e-9 <= root <= bh + 1e-9


def test_2layer_residuals_small():
    rset = find_resonances_deltaprime_2layer(barrier_well_stack(1.0, 2.0, -0.3, 10.0), -2.0, 0.29)
    assert rset.roots
    for root in rset.roots:
        resid, scale = two_layer_resonance_residual(1.0, -0.3 + root.value, 2.0, 10.0)
        assert abs(resid) / max(scale, 1e-300) < 1e-9
        assert abs(resid) < 1e-8 * max(scale, 1.0)


def test_2layer_one_root_per_pole_branch():
    a1, a2, d1, d2 = 1.0, -0.2, 2.0, 10.0
    lo, hi = -3.0, -a2 - 1e-9
    rset = find_resonances_deltaprime_2layer(barrier_well_stack(a1, d1, a2, d2), lo, hi)
    poles = sorted(_poles_2layer(a2, d2, lo, hi))
    edges = [lo] + poles + [hi]
    for a, b in zip(edges, edges[1:]):
        inside = [v for v in rset.values() if a < v < b]
        assert len(inside) <= 1
        f_a = two_layer_resonance_residual(a1, a2 + a + 1e-9, d1, d2)[0]
        f_b = two_layer_resonance_residual(a1, a2 + b - 1e-9, d1, d2)[0]
        assert (len(inside) == 1) == (f_a * f_b < 0)


def test_2layer_roots_approach_poles_for_stiff_barrier():
    # as the barrier coefficient grows the equation balances only near the
    # tangent poles, so each root drifts toward its pole
    a2, d1, d2 = -0.2, 2.0, 10.0
    lo, hi = -3.0, -a2 - 1e-9
    poles = sorted(_poles_2layer(a2, d2, lo, hi))
    dist = {}
    for a1 in (4.0, 400.0):
        rset = find_resonances_deltaprime_2layer(barrier_well_stack(a1, d1, a2, d2), lo, hi)
        dist[a1] = [min(abs(v - p) for p in poles) for v in rset.values()]
    assert len(dist[4.0]) == len(dist[400.0])
    for d_soft, d_stiff in zip(dist[4.0], dist[400.0]):
        assert d_stiff < d_soft


def test_2layer_interval_clipped_at_branch_boundary():
    # interval straddling b1 = -a2 only searches the well side
    rset = find_resonances_deltaprime_2layer(barrier_well_stack(1.0, 2.0, -0.3, 10.0), -2.0, 5.0)
    assert all(v < 0.3 for v in rset.values())


def test_2layer_determinism():
    args = (barrier_well_stack(1.0, 2.0, -0.3, 10.0), -2.0, 0.29)
    r1 = find_resonances_deltaprime_2layer(*args)
    r2 = find_resonances_deltaprime_2layer(*args)
    assert r1.values() == r2.values()


# --- transistor transcendental search ---------------------------------------

FIG6 = dict(a1=0.5 * EV, a3=0.5 * EV, d1=2.0, d2=10.0, d3=2.0, v_cb=0.2 * EV)
FIG6_STACK = transistor_stack(**FIG6)


def test_transistor_deltaprime_fig6_count_matches_dense_scan():
    lo, hi = 1e-6, 0.5 * EV
    rset = find_resonances_transistor_deltaprime(FIG6_STACK, lo, hi)

    def f(v):
        return transistor_resonance_residual(FIG6_STACK, v)[0]

    margin = 1e-8 * max(1.0, FIG6["a3"])
    poles = []
    m = 0
    while True:
        p = ((m + 0.5) * math.pi / FIG6["d2"]) ** 2
        if p > hi:
            break
        poles.append(p)
        m += 1
    brackets = dense_scan_roots(f, max(lo, margin), min(hi, FIG6["a3"] - margin), poles)
    assert len(brackets) == len(rset.roots) > 0
    for (bl, bh), v in zip(brackets, rset.values()):
        assert bl - 1e-9 <= v <= bh + 1e-9


def test_transistor_deltaprime_residuals_and_thetas():
    rset = find_resonances_transistor_deltaprime(FIG6_STACK, 1e-6, 0.5 * EV, energy=0.1 * EV)
    for root in rset.roots:
        resid, scale = transistor_resonance_residual(FIG6_STACK, root.value)
        assert abs(resid) / max(scale, 1e-300) < 1e-9
        assert root.theta is not None and abs(root.theta) > 1.0
        assert root.trans_prob is not None and 0.0 < root.trans_prob < 1.0


def test_transistor_deltaprime_wide_base_approaches_delta_set():
    # a wide base makes the tangent term dominate: the roots sit below the
    # delta-model set by a relative offset ~ 2c/d2 with
    # c = (q1 T1 + q3 T3)/(q1 q3 T1 T3), so the sets merge as d2 grows
    offsets = {}
    for d2 in (100.0, 400.0):
        vmax = (3.2 * math.pi / d2) ** 2
        stack = transistor_stack(1.0, 1.0, 2.0, d2, 2.0, 0.2)
        wide = find_resonances_transistor_deltaprime(stack, 1e-7, vmax)
        delta_set = resonances_transistor_delta(stack, 0.0, vmax)
        assert len(wide.roots) >= 3
        offsets[d2] = [
            abs(g - w) / w for g, w in zip(wide.values()[:3], delta_set.values()[:3])
        ]
    t1 = math.tanh(2.0)
    predicted = 2.0 * (2.0 / t1)
    for d2, offs in offsets.items():
        for o in offs:
            assert o == pytest.approx(predicted / d2, rel=0.15)
    assert all(o < 0.012 for o in offsets[400.0])


def test_transistor_deltaprime_determinism():
    args = (FIG6_STACK, 1e-6, 0.5 * EV)
    assert (
        find_resonances_transistor_deltaprime(*args).values()
        == find_resonances_transistor_deltaprime(*args).values()
    )


# --- limit data of every root ------------------------------------------------

FIG4 = dict(a1=0.5 * EV, a2=-0.1 * EV, d1=2.0, d2=10.0)
ENERGY = 0.1 * EV


# (v_left, pinned v_right or None): the default leads, a raised left lead
# and a pinned right lead
LEADS = ((0.0, None), (0.03 * EV, None), (0.02 * EV, -0.05 * EV))


def _limit_trans(theta, alpha, v_left, v_right):
    matrix = [[theta, 0.0], [alpha, 1.0 / theta]]
    return scatter(matrix, v_left, v_right, ENERGY).trans_prob


@pytest.mark.parametrize("b2", [0.0, -0.05 * EV])
def test_barrier_well_trans_prob_is_limit_scattering(b2):
    a1, a2, d1, d2 = FIG4["a1"], FIG4["a2"], FIG4["d1"], FIG4["d2"]
    for v_left, v_right in LEADS:
        stack = barrier_well_stack(a1, d1, a2, d2, b2, v_left, v_right)
        delta = resonances_delta_barrier_well(stack, -0.6 * EV, 0.0, energy=ENERGY)
        prime = find_resonances_deltaprime_2layer(stack, -0.6 * EV, 0.0, energy=ENERGY)
        assert len(delta.roots) == 3 and len(prime.roots) >= 2
        for root in delta.roots:
            # the delta set's right lead sits at v_left + b1 unless pinned
            lead = v_left + root.value if v_right is None else v_right
            want = _limit_trans(1.0, root.alpha, v_left, lead)
            assert root.trans_prob == pytest.approx(want, rel=1e-12)
        for root in prime.roots:
            lead = v_left + root.value + b2 if v_right is None else v_right
            want = _limit_trans(root.theta, root.alpha, v_left, lead)
            assert root.theta != 1.0 and root.trans_prob == pytest.approx(want, rel=1e-12)


def test_transistor_trans_prob_is_limit_scattering():
    p = FIG6
    for v_left, v_right in LEADS:
        stack = transistor_stack(**p, v_left=v_left, v_right=v_right)
        delta = resonances_transistor_delta(stack, 0.0, 0.45 * EV, energy=ENERGY)
        prime = find_resonances_transistor_deltaprime(stack, 1e-6, 0.5 * EV, energy=ENERGY)
        assert len(delta.roots) == 3 and prime.roots
        for root in delta.roots + prime.roots:
            lead = v_left - (root.value + p["v_cb"]) if v_right is None else v_right
            want = _limit_trans(root.theta, root.alpha, v_left, lead)
            assert root.trans_prob == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("config, equation, interval", FIGURE_SETS)
def test_figure_root_t_n_is_scatter_of_its_limit_matrix(config, equation, interval):
    # _root's float arithmetic and scatter's give the same bits
    cfg = load_config(f"{ROOT}/configs/{config}.json")
    roots = FINDERS[equation](cfg.spec, *interval, cfg.energy).roots
    assert len(roots) >= 2
    for root in roots:
        tuned = _tuned(cfg.spec, equation, root.value)
        rows = squeezed_limit(tuned).elements()
        assert root.trans_prob == scatter(rows, *tuned.lead_potentials(), cfg.energy).trans_prob


def _alpha_barrier_well(a1, a2, b1, b2, d1, d2):
    """Off-diagonal strength of the barrier-well delta-prime limit in real
    arithmetic (a1 > 0, a2 + b1 < 0; independent coding): each bias tilt
    weighted by kappa^-3 of its own layer.  Returns (alpha, term scale)."""
    q1 = math.sqrt(a1)
    kap2 = math.sqrt(-(a2 + b1))
    common = 0.25 * math.sinh(q1 * d1) * math.sin(kap2 * d2)
    t2 = q1 * b2 / (kap2**3 * d2)
    t1 = kap2 * b1 / (a1**1.5 * d1)
    return (t2 - t1) * common, (abs(t1) + abs(t2)) * abs(common)


def test_2layer_alpha_against_real_barrier_well_form(rng):
    devices = [(FIG4["a1"], FIG4["a2"], FIG4["d1"], FIG4["d2"], b2)
               for b2 in (0.0, -0.05 * EV, 0.1 * EV)]
    for _ in range(10):
        devices.append((rng.uniform(0.2, 2.0), rng.uniform(-1.0, 0.5), rng.uniform(0.5, 3.0),
                        rng.uniform(3.0, 12.0), rng.uniform(-0.5, 0.5)))
    checked = 0
    for a1, a2, d1, d2, b2 in devices:
        rset = find_resonances_deltaprime_2layer(barrier_well_stack(a1, d1, a2, d2, b2), -2.5, 2.5)
        for root in rset.roots:
            want, scale = _alpha_barrier_well(a1, a2, root.value, b2, d1, d2)
            assert abs(root.alpha - want) <= 1e-12 * scale
            checked += 1
    assert checked > 20


def test_squeezed_limit_kind_matches_each_equation():
    # at every root a finder returns, squeezed_limit of its stack at the
    # equation's template finds the equation's classifier, of the equation's kind
    fig4 = barrier_well_stack(FIG4["a1"], FIG4["d1"], FIG4["a2"], FIG4["d2"])
    eq73, eq69, eq76, eq83 = (
        ResonanceEquation.EQ73_DELTA_BARRIER_WELL,
        ResonanceEquation.EQ69_DELTAPRIME_2LAYER,
        ResonanceEquation.EQ76_TRANSISTOR_DELTA,
        ResonanceEquation.EQ83_TRANSISTOR_DELTAPRIME,
    )
    cases = {
        eq73: (fig4, -0.6 * EV, 0.0, LimitKind.RESONANT_DELTA),
        eq69: (fig4, -0.6 * EV, 0.0, LimitKind.DELTA_PRIME_FAMILY),
        eq76: (FIG6_STACK, 0.0, 0.45 * EV, LimitKind.RESONANT_DELTA),
        eq83: (FIG6_STACK, 1e-6, 0.5 * EV, LimitKind.DELTA_PRIME_FAMILY),
    }
    assert set(cases) == set(ResonanceEquation)
    for eq, (stack, lo, hi, kind) in cases.items():
        rset = FINDERS[eq](stack, lo, hi)
        assert len(rset.roots) >= 2
        for root in rset.roots:
            assert squeezed_limit(_tuned(stack, eq, root.value)).kind is kind


def test_transistor_deltaprime_residual_gate_drops_the_root(monkeypatch):
    # a gate below a root's scaled residual makes the classifier a wall,
    # and the finder drops the root it judges
    from airystack import limits

    eq = ResonanceEquation.EQ83_TRANSISTOR_DELTAPRIME
    root = find_resonances_transistor_deltaprime(FIG6_STACK, 1e-6, 0.5 * EV).roots[0].value
    tuned = _tuned(FIG6_STACK, eq, root)
    assert squeezed_limit(tuned).kind is LimitKind.DELTA_PRIME_FAMILY
    residual, scale = limits.transistor_resonance_residual(tuned, root)
    assert residual != 0.0
    monkeypatch.setattr(limits, "RESIDUAL_RTOL", 0.5 * abs(residual) / scale)
    assert squeezed_limit(tuned).kind is LimitKind.OPAQUE_WALL
    kept = find_resonances_transistor_deltaprime(FIG6_STACK, 1e-6, 0.5 * EV).values()
    assert root not in kept


# --- level enumeration --------------------------------------------------------


def _naive_levels(start, d, sign, offset, lo, hi):
    """Every sign * (x pi / d)^2 + offset in [lo, hi], x walked up from start
    until the levels leave the interval (the direct loop)."""
    out, x = [], start
    while True:
        v = sign * (x * math.pi / d) ** 2 + offset
        if (sign < 0 and v < lo) or (sign > 0 and v > hi):
            return out
        if lo <= v <= hi:
            out.append(v)
        x += 1


def test_closed_form_sets_match_direct_level_loop(rng):
    for i in range(400):
        a1, a2, d2 = 1.0, rng.uniform(-2.0, 1.0), 10.0 ** rng.uniform(0.0, 3.0)
        lo = rng.uniform(-5.0, 1.0)
        hi = lo + rng.choice([1e-3, 0.1, 3.0])
        if i % 2:
            # interval ends exactly on levels, where round-off decides
            n_hi, n_lo = sorted(rng.integers(1, 300, 2))
            lo, hi = (-((n * math.pi / d2) ** 2) - a2 for n in (n_lo, n_hi))
        rset = resonances_delta_barrier_well(barrier_well_stack(a1, 2.0, a2, d2), lo, hi)
        assert list(rset.values()) == sorted(_naive_levels(1, d2, -1.0, -a2, lo, hi))
        v_max = rng.uniform(1e-3, 5.0) if i % 2 else (rng.integers(1, 300) * math.pi / d2) ** 2
        transistor = transistor_stack(1.0, 1.0, 1.0, d2, 1.0, 0.0)
        rset = resonances_transistor_delta(transistor, 0.0, v_max)
        assert list(rset.values()) == _naive_levels(1, d2, 1.0, 0.0, 0.0, v_max)
        assert [r.n for r in rset.roots] == list(range(1, len(rset.roots) + 1))


def test_transistor_delta_set_starts_at_lower_bound(rng):
    # the finder itself keeps [lo, hi]: enumeration starts at max(lo, 0)
    d2 = 10.0
    transistor = transistor_stack(1.0, 1.0, 1.0, d2, 1.0, 0.0)
    for _ in range(100):
        lo = rng.uniform(-0.5, 3.0)
        hi = max(lo, 0.0) + rng.uniform(1e-3, 3.0)
        rset = resonances_transistor_delta(transistor, lo, hi)
        levels = _naive_levels(1, d2, 1.0, 0.0, lo, hi)
        assert list(rset.values()) == levels
        assert [r.n for r in rset.roots] == [round(d2 * math.sqrt(v) / math.pi) for v in levels]


def test_level_count_bounded_before_enumeration():
    transistor = transistor_stack(1.0, 1.0, 1.0, 10.0, 1.0, 0.0)
    barrier_well = barrier_well_stack(1.0, 2.0, -0.1, 10.0)
    with pytest.raises(ValueError, match="levels"):
        resonances_transistor_delta(transistor, 0.0, 1e300)
    with pytest.raises(ValueError, match="levels"):
        resonances_delta_barrier_well(barrier_well, -1e300, 0.0)
    with pytest.raises(ValueError, match="levels"):
        find_resonances_deltaprime_2layer(barrier_well, -1e300, 0.0)
    # just under the bound: (n pi / d2)^2 <= v_max for n <= MAX_LEVELS - 1
    v_max = ((MAX_LEVELS - 0.5) * math.pi / 10.0) ** 2
    assert len(resonances_transistor_delta(transistor, 0.0, v_max).roots) == MAX_LEVELS - 1


def test_closed_form_level_the_classifier_cannot_resolve_is_an_error():
    # a2 + b cancels to ~1e-9 relative at |a2| = 1e7, beyond the classifier's
    # on-set tolerance: the level is rejected, not returned without limit data
    with pytest.raises(ValueError, match="double precision"):
        resonances_delta_barrier_well(barrier_well_stack(1.0, 2.0, -1e7, 10.0), 1e7 - 1.0, 1e7)
    rset = resonances_delta_barrier_well(barrier_well_stack(1.0, 2.0, -1e6, 10.0), 1e6 - 1.0, 1e6)
    assert len(rset.roots) == 3
