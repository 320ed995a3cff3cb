"""Sweep engine: curves, peak detection/refinement, determinism, gaps."""

import json
import math
import pathlib

import numpy as np
import pytest

import airystack.transfer
from airystack.airy import SERIES_RADIUS
from airystack.cli import main
from airystack.potential import LayerSpec, StructureSpec
from airystack.sweep import (
    SweepRequest,
    detect_peaks,
    run_sweep,
    sweep_to_csv,
    sweep_to_json,
)

from conftest import golden_max_per_bracket, mixed_stack

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
