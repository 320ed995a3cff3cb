"""Sweep engine: curves, peak detection/refinement, determinism, gaps."""

import json
import math
import pathlib
import tracemalloc

import numpy as np
import pytest

import airystack.sweep
import airystack.transfer
from airystack.airy import SERIES_RADIUS
from airystack.cli import load_config, main
from airystack.potential import LayerSpec, StructureSpec
from airystack.sweep import (
    PEAK_REL_TOL,
    SweepRequest,
    _golden_max,
    detect_peaks,
    run_sweep,
    sweep_to_csv,
    sweep_to_json,
)

from conftest import (
    golden_max_per_bracket,
    mixed_stack,
    random_superlattice,
    refinement_cost,
    stack_pool,
)

EV = 2.62464


def free_structure():
    return StructureSpec((LayerSpec(0.0, 0.0, 1.0, 1.0, 1.0),))


def fig4_structure():
    return StructureSpec(
        (
            LayerSpec(0.5 * EV, 0.0, 2.0, 1.0, 1.0),
            LayerSpec(-0.1 * EV, 0.0, 10.0, 2.0, 1.0),
        )
    )


def test_flat_free_curve():
    req = SweepRequest(
        structure=free_structure(),
        tuned_layer=0,
        grid_lo=0.01,
        grid_hi=0.2,
        grid_points=21,
        epsilons=(0.5,),
        energy=1.0,
        tuned_sign=0.0,  # bias pinned to zero: genuinely free propagation
    )
    result = run_sweep(req)
    assert all(t == pytest.approx(1.0) for t in result.transmission[0])
    assert result.peaks[0] == ()


def test_curve_values_in_unit_interval():
    req = SweepRequest(
        structure=fig4_structure(),
        tuned_layer=0,
        grid_lo=0.01 * EV,
        grid_hi=0.3 * EV,
        grid_points=61,
        epsilons=(0.5, 0.25),
        energy=0.1 * EV,
    )
    result = run_sweep(req)
    for row in result.transmission:
        for t in row:
            assert 0.0 <= t <= 1.0


def test_detect_peaks_monotone_empty():
    xs = np.arange(10.0)
    assert detect_peaks(xs, 0.01 * xs, 0.001) == []


def test_detect_peaks_triangular_bump():
    xs = np.array([0.1 * i for i in range(11)])
    peaks = detect_peaks(xs, 1.0 - np.abs(xs - 0.52), 0.1)
    assert len(peaks) == 1
    assert abs(peaks[0] - 0.5) <= 0.1  # within one grid step of the bump


def test_detect_peaks_refinement_against_evaluator():
    true_peak = 0.537

    def t_of(v):
        return 1.0 / (1.0 + (v - true_peak) ** 2 * 40.0)

    xs = np.array([0.05 * i for i in range(21)])
    peaks = detect_peaks(xs, t_of(xs), 0.1, evaluator=t_of)
    assert len(peaks) == 1
    assert peaks[0] == pytest.approx(true_peak, abs=2e-6)


def test_detect_peaks_nan_gap_split():
    xs = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
    ts = np.array([0.2, 0.9, math.nan, 0.8, 0.3])
    # the maximum at x=1 borders the gap and is skipped, not crashed on
    assert detect_peaks(xs, ts, 0.1) == []


def test_gap_recording_for_evanescent_leads():
    # positive tuned bias raises the right lead above the energy mid-grid
    req = SweepRequest(
        structure=free_structure(),
        tuned_layer=0,
        grid_lo=0.5,
        grid_hi=2.0,
        grid_points=16,
        epsilons=(1.0,),
        energy=1.0,
        tuned_sign=1.0,
    )
    result = run_sweep(req)
    ts = result.transmission[0].tolist()
    assert any(math.isnan(t) for t in ts)
    assert any(not math.isnan(t) for t in ts)


def test_fig4_mini_sweep_finds_three_peaks():
    roots = tuple(
        (n * math.pi / 10.0) ** 2 - 0.1 * EV for n in (2, 3, 4)
    )  # -b1 in nm^-2
    req = SweepRequest(
        structure=fig4_structure(),
        tuned_layer=0,
        grid_lo=0.0005 * EV,
        grid_hi=0.6 * EV,
        grid_points=601,
        epsilons=(0.1,),
        energy=0.1 * EV,
    )
    result = run_sweep(req, reference_roots=roots)
    assert len(result.peaks[0]) == 3
    assert result.convergence[0][2] < 0.05 * roots[2]


def test_determinism_bytes():
    req = SweepRequest(
        structure=fig4_structure(),
        tuned_layer=0,
        grid_lo=0.02 * EV,
        grid_hi=0.3 * EV,
        grid_points=41,
        epsilons=(0.25,),
        energy=0.1 * EV,
    )
    a = run_sweep(req, reference_roots=(0.3,))
    b = run_sweep(req, reference_roots=(0.3,))
    assert sweep_to_csv(a) == sweep_to_csv(b)
    assert sweep_to_json(a) == sweep_to_json(b)


def test_csv_layout():
    req = SweepRequest(
        structure=free_structure(),
        tuned_layer=0,
        grid_lo=0.1,
        grid_hi=0.2,
        grid_points=3,
        epsilons=(1.0, 0.5),
        energy=1.0,
        tuned_sign=0.0,
    )
    text = sweep_to_csv(run_sweep(req))
    lines = text.strip().split("\n")
    assert lines[0] == "epsilon,tuned_value_eV,tuned_value_invnm2,T,R"
    assert len(lines) == 1 + 2 * 3
    first = lines[1].split(",")
    assert float(first[0]) == 1.0
    assert float(first[2]) == pytest.approx(0.1)
    assert float(first[1]) == pytest.approx(0.1 / EV)
    assert float(first[3]) + float(first[4]) == pytest.approx(1.0)


def test_request_validation():
    with pytest.raises(ValueError):
        SweepRequest(free_structure(), 0, 0.1, 0.2, 1, (0.5,), 1.0)
    with pytest.raises(ValueError):
        SweepRequest(free_structure(), 0, 0.1, 0.2, 5, (0.25, 0.5), 1.0)  # ascending
    with pytest.raises(ValueError):
        SweepRequest(free_structure(), 3, 0.1, 0.2, 5, (0.5,), 1.0)  # bad layer


def test_batched_curve_equals_batch_of_one(monkeypatch):
    spec, energy, tuned = mixed_stack()
    req = SweepRequest(spec, tuned, -40.0, 40.0, 161, (1.0, 0.5), energy, tuned_sign=1.0)
    grid = np.linspace(-40.0, 40.0, 161)
    seen = []
    airy = airystack.transfer.airy_eval_scaled
    monkeypatch.setattr(airystack.transfer, "airy_eval_scaled",
                        lambda z: seen.append(np.array(z)) or airy(z))
    batched = {eps: req.transmission(grid, eps) for eps in req.epsilons}
    z = np.concatenate(seen)
    # the device reaches every case the batched path masks
    assert np.any(np.abs(z) <= SERIES_RADIUS)
    assert np.any(z > SERIES_RADIUS) and np.any(z < -SERIES_RADIUS)
    assert np.any(z == SERIES_RADIUS)
    assert np.any(z == 2.25) and np.any(z == 3.25)  # k/2 + 1/4: rint rounds to even
    for eps, curve in batched.items():
        single = np.array([req.transmission(float(v), eps) for v in grid])
        gaps = np.isnan(curve)
        assert 0 < gaps.sum() < len(grid)
        assert np.array_equal(gaps, np.isnan(single))
        assert np.all(np.abs(curve[~gaps] - single[~gaps]) <= 1e-14 * np.abs(single[~gaps]))


def test_long_transmission_call_runs_in_bounded_memory():
    # `stack` pool device 28: 24 layers, so 10,001 points are 240,024 layer
    # matrices; evaluated in one block they peak at ~96 MB under tracemalloc
    cfg = stack_pool()[28]
    sweep = cfg.sweep
    assert len(cfg.spec.layers) == 24
    req = SweepRequest(cfg.spec, sweep["tuned_layer"], sweep["lo"], sweep["hi"], 10_001,
                       (1.0,), cfg.energy, sweep["tuned_sign"])
    grid = np.linspace(sweep["lo"], sweep["hi"], 10_001)
    tracemalloc.start()
    try:
        t = req.transmission(grid, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16e6, peak
    halves = np.concatenate([req.transmission(half, 1.0) for half in np.array_split(grid, 2)])
    assert t.tobytes() == halves.tobytes()


def test_lockstep_refinement_equals_per_bracket_golden_section():
    centres = np.array([-3.1, -0.42, 0.05, 0.61, 2.37, 7.9])
    widths = np.array([0.3, 0.01, 0.2, 0.004, 0.05, 0.5])

    def t_of(x):
        x = np.asarray(x, dtype=float)
        d = (x[..., None] - centres) / widths
        t = (1.0 / (1.0 + d * d)).sum(axis=-1)
        return np.where((x > 4.0) & (x < 5.0), np.nan, t)  # a gap

    xs = np.linspace(-5.0, 10.0, 301)
    peaks = detect_peaks(xs, t_of(xs), 0.1, evaluator=t_of)
    grid_peaks = detect_peaks(xs, t_of(xs), 0.1)
    assert len(peaks) == len(grid_peaks) >= 5
    at = [xs.tolist().index(x) for x in grid_peaks]
    expected = [
        golden_max_per_bracket(lambda v: float(t_of(v)), xs[i - 1], xs[i + 1], 1e-6)
        for i in at
    ]
    assert peaks == expected  # bit for bit


def _counted(f):
    """f and the list of the sizes of the calls made to it."""
    sizes = []

    def counted(x):
        sizes.append(np.size(x))
        return f(x)

    return counted, sizes


def _refine_as_reference(f, lo, hi):
    """_golden_max of the array function f on the brackets [lo, hi], seeded
    with their midpoints, checked bit for bit against one golden step and
    one call of f at a time, and against ceil(steps / 2) calls
    for the most steps any bracket takes.  Returns the peaks, the sizes of
    the calls and each bracket's steps."""
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    x = np.stack([lo, 0.5 * (lo + hi), hi], axis=1)
    counted, sizes = _counted(f)
    peaks = _golden_max(counted, x, f(x))
    expected, steps = [], []
    for a, b in zip(lo.tolist(), hi.tolist()):
        one, one_sizes = _counted(lambda v: float(f(np.array([v]))[0]))
        expected.append(golden_max_per_bracket(one, a, b, PEAK_REL_TOL))
        steps.append(len(one_sizes) - 2)
    assert peaks == expected  # bit for bit
    assert len(sizes) <= math.ceil(max(steps) / 2)
    return peaks, sizes, steps


@pytest.mark.parametrize("name", ["fig4", "fig6"])
def test_figure_peaks_equal_per_bracket_golden_section(name):
    cfg = load_config(str(pathlib.Path(__file__).parents[1] / "configs" / f"{name}.json"))
    sweep = cfg.sweep
    req = SweepRequest(cfg.spec, sweep["tuned_layer"], sweep["lo"], sweep["hi"], sweep["points"],
                       sweep["epsilons"], cfg.energy, sweep["tuned_sign"])
    result = run_sweep(req)
    grid = result.grid
    for eps, t, swept in zip(req.epsilons, result.transmission, result.peaks):
        at = np.flatnonzero(np.isin(grid, detect_peaks(grid, t, req.peak_floor)))
        assert at.size == 3
        peaks, _, _ = _refine_as_reference(lambda v: req.transmission(v, eps),
                                           grid[at - 1], grid[at + 1])
        assert swept == tuple(peaks)
        counted, sizes = _counted(lambda v: req.transmission(v, eps))
        assert detect_peaks(grid, t, req.peak_floor, evaluator=counted) == peaks
        assert len(sizes) <= 3


def test_superlattice_peaks_equal_per_bracket_golden_section():
    rng = np.random.default_rng(20261018)
    found, calls = 0, 0
    for _ in range(8):
        spec, energy = random_superlattice(rng)
        req = SweepRequest(spec, 0, 0.0, 0.2 * EV, 200, (1.0,), energy)
        result = run_sweep(req)
        grid, t = result.grid, result.transmission[0]
        at = np.flatnonzero(np.isin(grid, detect_peaks(grid, t, 0.01)))
        found += at.size
        if at.size:
            peaks, _, _ = _refine_as_reference(lambda v: req.transmission(v, 1.0),
                                               grid[at - 1], grid[at + 1])
            assert list(result.peaks[0]) == peaks
        counted, sizes = _counted(lambda v: req.transmission(v, 1.0))
        assert detect_peaks(grid, t, 0.01, evaluator=counted) == list(result.peaks[0])
        calls += len(sizes)
    assert found >= 16
    assert calls <= 3 * 8  # a mean of at most three refinement calls per sweep


def test_refinement_ties_and_nan_follow_the_per_bracket_walk():
    def plateau(x):
        # flat tops give fc == fd; the NaN band sits inside the bracket at 3
        t = np.minimum(1.0, 2.0 - np.abs(x - np.round(x)) * 8.0)
        return np.where((x > 3.02) & (x < 3.05), np.nan, t)

    lo = [-0.3, 0.95, 1.6, 2.9, 2.99, 4.1]
    hi = [0.3, 1.1, 2.2, 3.1, 3.2, 4.15]
    assert plateau(np.array([0.5 * (lo[0] + hi[0])]))[0] == 1.0
    _refine_as_reference(plateau, lo, hi)


@pytest.mark.parametrize(
    "f",
    [
        lambda x: np.where(x < 0.3141, 1.0, 0.0),  # a step: ties, then a cliff
        lambda x: -np.abs(x - 0.2718),  # a kink no parabola fits
        lambda x: np.where(x < 0.1, np.exp((x - 0.1) / 1e-3), 1.0 / (1.0 + (x - 0.1) / 0.3)),
    ],
    ids=["step", "kink", "lopsided"],
)
def test_mispredicted_paths_take_more_rounds_not_other_peaks(f):
    _, sizes, _ = _refine_as_reference(f, [-0.5, 0.0], [0.7, 0.55])
    assert len(sizes) > 1


def test_closed_bracket_adds_no_evaluation():
    def f(x):
        return np.cos(x)

    closed_lo, closed_hi = 0.5, 0.5 + 5e-7  # narrower than PEAK_REL_TOL
    peaks, sizes, steps = _refine_as_reference(f, [closed_lo], [closed_hi])
    assert peaks == [0.5 * (closed_lo + closed_hi)] and steps == [0] and sizes == []
    _, alone, _ = _refine_as_reference(f, [-0.4], [0.3])
    peaks, mixed, _ = _refine_as_reference(f, [-0.4, closed_lo], [0.3, closed_hi])
    assert peaks[1] == 0.5 * (closed_lo + closed_hi)
    assert mixed == alone


def test_brackets_closing_in_different_rounds():
    centres = np.array([0.1, 0.3, 0.7, 1.3, 2.0, 2.9])
    widths = np.array([3e-6, 1e-4, 1e-2, 0.3, 1.0, 30.0])

    def f(x):
        d = (np.asarray(x)[..., None] - centres) / np.maximum(widths, 1e-3)
        return (1.0 / (1.0 + d * d)).sum(axis=-1)

    lo, hi = centres - widths / 2.3, centres + widths / 1.7
    # the first two brackets plan the same floats: both must get their own
    peaks, sizes, steps = _refine_as_reference(f, np.r_[lo[1], lo], np.r_[hi[1], hi])
    assert peaks[0] == peaks[2]
    assert len({math.ceil(s / 2) for s in steps}) >= 4


def test_refinement_calls_do_not_grow_with_brackets():
    def f(x):
        return 0.5 + 0.5 * np.sin(7.3 * x) * np.cos(0.11 * x)

    xs = np.linspace(0.0, 60.0, 1201)
    grid_peaks = detect_peaks(xs, f(xs), 0.1)
    assert len(grid_peaks) >= 50
    at = np.flatnonzero(np.isin(xs, grid_peaks))
    peaks, sizes, steps = _refine_as_reference(f, xs[at - 1], xs[at + 1])
    counted, detect_sizes = _counted(f)
    assert detect_peaks(xs, f(xs), 0.1, evaluator=counted) == peaks
    assert len(detect_sizes) <= math.ceil(max(steps) / 2)


def _swept(cfg):
    """run_sweep of a loaded config's sweep, without reference roots."""
    sweep = cfg.sweep
    return run_sweep(SweepRequest(cfg.spec, sweep["tuned_layer"], sweep["lo"], sweep["hi"],
                                  sweep["points"], sweep["epsilons"], cfg.energy,
                                  sweep["tuned_sign"]))


def test_figure_refinement_cost_is_pinned(monkeypatch):
    # fig4 and fig6 together are one job of the `figures` benchmark workload
    cost = refinement_cost(monkeypatch, airystack.sweep)
    for name in ("fig4", "fig6"):
        _swept(load_config(str(pathlib.Path(__file__).parents[1] / "configs" / f"{name}.json")))
    assert cost[0] <= 11 and cost[1] <= 342, cost


def test_stack_pool_refinement_cost_is_pinned(monkeypatch):
    # the 48 devices of the `stack` benchmark workload
    pool = stack_pool()
    cost = refinement_cost(monkeypatch, airystack.sweep)
    for cfg in pool:
        _swept(cfg)
    assert len(pool) == 48
    assert cost[0] <= 129 and cost[1] <= 5_508, cost


def test_sweep_outputs_are_python_float_reprs(tmp_path):
    prefix = tmp_path / "fig4"
    config = pathlib.Path(__file__).parents[1] / "configs" / "fig4.json"
    assert main(["sweep", str(config), "--out", str(prefix)]) == 0
    lines = (tmp_path / "fig4.csv").read_text().splitlines()
    assert len(lines) == 1 + 3 * 2001
    for line in lines[1:]:
        for field in line.split(","):
            assert field == "" or field == repr(float(field)), line
    text = (tmp_path / "fig4.json").read_text()
    assert "np." not in text
    assert all(isinstance(p, float) for s in json.loads(text)["sweeps"] for p in s["peaks_invnm2"])
