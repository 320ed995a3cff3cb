"""Acceptance gate: one test per criterion, each printing its pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are fixed here and match the stated contract; nothing
is calibrated at runtime.
"""

import math
import time

import numpy as np

from airystack import (
    LayerSpec,
    StructureSpec,
    realize,
    scatter,
    single_layer_limit,
)
from airystack.airy import wronskian_sweep
from airystack.limits import (
    transistor_resonance_residual,
    transistor_theta_representations,
    two_layer_resonance_residual,
)
from airystack.potential import EV_TO_INVNM2
from airystack.resonance import (
    find_resonances_deltaprime_2layer,
    find_resonances_transistor_deltaprime,
)
from airystack.sweep import SweepRequest, run_sweep
from airystack.transfer import slope_is_degenerate

from conftest import (
    barrier_well_stack,
    det,
    lambda_k_form,
    lambda_large_z,
    layer_matrices,
    limit_transmission_closed_form,
    ode_transfer_matrix,
    structure_matrix,
    transistor_stack,
)

EV = EV_TO_INVNM2
SEED = 20260811


def report(cid, name, ok, detail):
    print(f"[ACCEPTANCE] C{cid:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_c01_airy_wronskian():
    t0 = time.perf_counter()
    worst, _ = wronskian_sweep(-20.0, 8.0, 2000)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and elapsed < 1.0
    report(1, "airy-wronskian", ok, f"max dev {worst:.2e}, {elapsed:.2f} s")
    assert worst < 1e-10
    assert elapsed < 1.0


def test_c02_determinant_law():
    rng = np.random.default_rng(SEED)
    t0 = time.perf_counter()
    worst_single = 0.0
    for _ in range(1000):
        v0 = rng.uniform(-3.0, 3.0)
        width = rng.uniform(0.05, 0.6)
        energy = rng.uniform(0.3, 6.0)
        if rng.random() < 0.5:
            m = layer_matrices(v0, v0, width, energy)
        else:
            v1 = v0 + rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 2.5)
            assert not slope_is_degenerate((v0, v1, width), energy)
            m = layer_matrices(v0, v1, width, energy)
        worst_single = max(worst_single, abs(det(m) - 1.0))
    worst_product = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 17))
        layers = [
            (
                v0 := rng.uniform(-3.0, 3.0),
                v0 + rng.choice([0.0, -1.0, 1.0]) * rng.uniform(0.3, 2.0),
                rng.uniform(0.05, 0.3),
            )
            for _ in range(n)
        ]
        m = structure_matrix(layers, rng.uniform(0.3, 6.0))
        worst_product = max(worst_product, abs(det(m) - 1.0))
    elapsed = time.perf_counter() - t0
    ok = worst_single < 1e-9 and worst_product < 1e-8 and elapsed < 10.0
    report(
        2,
        "determinant-law",
        ok,
        f"single {worst_single:.2e}, product {worst_product:.2e}, {elapsed:.1f} s",
    )
    assert worst_single < 1e-9
    assert worst_product < 1e-8
    assert elapsed < 10.0


def test_c03_conservation():
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(1000):
        l11 = rng.uniform(0.2, 3.0) * rng.choice([-1.0, 1.0])
        l12 = rng.uniform(-2.0, 2.0)
        l21 = rng.uniform(-2.0, 2.0)
        m = [[l11, l12], [l21, (1.0 + l12 * l21) / l11]]
        v_l = rng.uniform(-2.0, 1.0)
        v_r = rng.uniform(-2.0, 1.0)
        energy = max(v_l, v_r) + rng.uniform(0.1, 3.0)
        res = scatter(m, v_l, v_r, energy)
        worst = max(worst, abs(res.refl_prob + res.trans_prob - 1.0))
    ok = worst < 1e-9
    report(3, "conservation", ok, f"max |R+T-1| = {worst:.2e}")
    assert worst < 1e-9


def test_c04_constant_profile_limit():
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(100):
        v0 = rng.uniform(-3.0, 3.0)
        width = rng.uniform(0.6, 1.5)
        energy = rng.uniform(0.2, 3.0)
        layer = (v0, v0 + 1e-8 * width, width)
        assert not slope_is_degenerate(layer, energy)
        m = layer_matrices(*layer, energy)
        v_mid = v0 + 0.5e-8 * width
        ref = layer_matrices(v_mid, v_mid, width, energy)
        worst = max(worst, float(np.max(np.abs(m - ref))))
    ok = worst < 1e-6
    report(4, "constant-profile-limit", ok, f"max element diff = {worst:.2e}")
    assert worst < 1e-6


def test_c05_ode_oracle_equivalence():
    rng = np.random.default_rng(SEED)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        v0 = rng.uniform(-3.0, 3.0)
        v1 = v0 + rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 3.0)
        width = rng.uniform(0.3, 1.5)
        energy = rng.uniform(0.2, 4.0)
        assert not slope_is_degenerate((v0, v1, width), energy)
        m = layer_matrices(v0, v1, width, energy)
        ref = ode_transfer_matrix(v0, v1, width, energy)
        worst = max(worst, float(np.max(np.abs(m - ref) / np.maximum(1.0, np.abs(ref)))))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-7 and elapsed < 30.0
    report(5, "ode-oracle", ok, f"max element err = {worst:.2e}, {elapsed:.1f} s")
    assert worst < 1e-7
    assert elapsed < 30.0


def test_c06_asymptotic_regime():
    def rel(m, ref):
        return float(np.max(np.abs(m - ref) / np.abs(ref)))

    def exact(z0, z1, sigma, energy=1.0):
        v0 = energy + z0 * sigma * sigma
        v1 = energy + z1 * sigma * sigma
        layer = (v0, v1, (z1 - z0) / sigma)
        assert not slope_is_degenerate(layer, energy)
        return layer_matrices(*layer, energy)

    pairs = ((50.0, 9.0), (100.0, 6.4), (200.0, 4.5), (400.0, 3.2))
    errs = {"osc": [], "exp": [], "kf-well": [], "kf-barrier": []}
    for mag, delta in pairs:
        ref = exact(-mag, -mag - delta, -1.0)
        errs["osc"].append(rel(lambda_large_z(-mag, -mag - delta, -1.0).matrix, ref))
        errs["kf-well"].append(rel(lambda_k_form(mag, mag + delta, delta).matrix, ref))
        ref = exact(mag, mag + delta, 1.0)
        errs["exp"].append(rel(lambda_large_z(mag, mag + delta, 1.0).matrix, ref))
        errs["kf-barrier"].append(rel(lambda_k_form(-mag, -mag - delta, delta).matrix, ref))
    ok = all(v[1] < 5e-3 for v in errs.values()) and all(
        v == sorted(v, reverse=True) for v in errs.values()
    )
    report(
        6,
        "asymptotic-regime",
        ok,
        "; ".join(f"{k}@100: {v[1]:.1e}" for k, v in errs.items()),
    )
    for v in errs.values():
        assert v[1] < 5e-3
        assert v == sorted(v, reverse=True)


def _figure_sweep(structure, grid_lo_ev, grid_hi_ev, roots_ev):
    req = SweepRequest(
        structure=structure,
        tuned_layer=0,
        grid_lo=grid_lo_ev * EV,
        grid_hi=grid_hi_ev * EV,
        grid_points=2001,
        epsilons=(0.5, 0.25, 0.1),
        energy=0.1 * EV,
    )
    roots = tuple(r * EV for r in roots_ev)
    return run_sweep(req, reference_roots=roots), roots


def test_c07_barrier_well_figure():
    t0 = time.perf_counter()
    structure = StructureSpec(
        (
            LayerSpec(0.5 * EV, 0.0, 2.0, 1.0, 1.0),
            LayerSpec(-0.1 * EV, 0.0, 10.0, 2.0, 1.0),
        )
    )
    roots_ev = (0.050414, 0.238433, 0.501658)
    result, roots = _figure_sweep(structure, 0.0005, 0.6, roots_ev)
    elapsed = time.perf_counter() - t0
    n_peaks = len(result.peaks[-1])
    rel_errors = [err / r for err, r in zip(result.convergence[-1], roots)]
    tighter = [
        e_fine < e_coarse
        for e_fine, e_coarse in zip(result.convergence[-1], result.convergence[0])
    ]
    ok = (
        n_peaks == 3
        and all(e <= 0.10 for e in rel_errors)
        and all(tighter)
        and elapsed < 60.0
    )
    report(
        7,
        "barrier-well-figure",
        ok,
        f"{n_peaks} peaks; rel err {['%.3f' % e for e in rel_errors]}; "
        f"tighter-than-eps0.5 {tighter}; {elapsed:.1f} s",
    )
    assert elapsed < 60.0
    assert n_peaks == 3
    assert all(e <= 0.10 for e in rel_errors)
    assert all(tighter)


def test_c08_transistor_figure():
    t0 = time.perf_counter()
    structure = StructureSpec(
        (
            LayerSpec(0.5 * EV, 0.0, 2.0, 1.0, 1.0),
            LayerSpec(0.0, 0.0, 10.0, 2.0, 0.0),
            LayerSpec(0.5 * EV, -0.2 * EV, 2.0, 1.0, 1.0),
        )
    )
    roots_ev = (0.037604, 0.150415, 0.338433)
    result, roots = _figure_sweep(structure, 0.02, 0.45, roots_ev)
    elapsed = time.perf_counter() - t0
    n_peaks = len(result.peaks[-1])
    rel_errors = [err / r for err, r in zip(result.convergence[-1], roots)]
    tighter = [
        e_fine < e_coarse
        for e_fine, e_coarse in zip(result.convergence[-1], result.convergence[0])
    ]
    ok = (
        n_peaks == 3
        and all(e <= 0.10 for e in rel_errors)
        and all(tighter)
        and elapsed < 60.0
    )
    report(
        8,
        "transistor-figure",
        ok,
        f"{n_peaks} peaks; rel err {['%.3f' % e for e in rel_errors]}; "
        f"tighter-than-eps0.5 {tighter}; {elapsed:.1f} s",
    )
    assert elapsed < 60.0
    assert n_peaks == 3
    assert all(e <= 0.10 for e in rel_errors)
    assert all(tighter)


def test_c09_delta_limit_convergence():
    rng = np.random.default_rng(SEED)
    all_monotone = True
    worst_final = 0.0
    for _ in range(10):
        a = rng.uniform(0.5, 1.2)
        b = -rng.uniform(0.05, 0.4) * a  # forward polarity, as in the devices
        d = rng.uniform(0.7, 1.5)
        energy = rng.uniform(0.25, 0.9)
        layer = LayerSpec(a, b, d, 1.0, 1.0)
        spec = StructureSpec((layer,))
        v_l, v_r = spec.lead_potentials()
        alpha = single_layer_limit(layer).alpha
        t_limit = limit_transmission_closed_form(
            1.0, alpha, math.sqrt(energy), math.sqrt(energy - v_r)
        )
        errs = []
        for eps in (0.5, 0.25, 0.1, 0.05):
            t = scatter(
                structure_matrix(realize(spec, eps), energy), v_l, v_r, energy
            ).trans_prob
            errs.append(abs(t - t_limit))
        all_monotone = all_monotone and all(x > y for x, y in zip(errs, errs[1:]))
        worst_final = max(worst_final, errs[-1])
    ok = all_monotone and worst_final < 0.01
    report(
        9,
        "delta-limit-convergence",
        ok,
        f"monotone {all_monotone}, worst |T(0.05)-T_lim| = {worst_final:.4f}",
    )
    assert all_monotone
    assert worst_final < 0.01


def test_c10_resonant_wall_dichotomy():
    d = 10.0
    energy = 0.25
    sigma1 = -((math.pi / d) ** 2)
    sigma2 = -((2.0 * math.pi / d) ** 2)

    def exact_t(depth):
        spec = StructureSpec((LayerSpec(depth, 0.0, d, 2.0, 1.0),))
        return scatter(
            structure_matrix(realize(spec, 0.01), energy), 0.0, 0.0, energy
        ).trans_prob

    t_on = exact_t(sigma1)
    t_off = exact_t(0.5 * (sigma1 + sigma2))
    ok = t_on > 0.05 and t_off < 1e-3
    report(10, "resonant-wall-dichotomy", ok, f"T(on)={t_on:.3f}, T(off)={t_off:.2e}")
    assert t_on > 0.05
    assert t_off < 1e-3


def _dense_scan_brackets(f, lo, hi, poles, n=10_000):
    margin = 1e-10 * (hi - lo)
    edges = [lo]
    for p in sorted(p for p in poles if lo < p < hi):
        edges.extend((p - margin, p + margin))
    edges.append(hi)
    out = []
    for a, b in zip(edges[::2], edges[1::2]):
        xs = [a + (b - a) * i / n for i in range(n + 1)]
        fs = f(np.array(xs)).tolist()
        for i in range(n):
            if fs[i] == 0.0 or fs[i] * fs[i + 1] < 0.0:
                out.append((xs[i], xs[i + 1]))
    return out


def test_c11_transcendental_root_finders():
    rng = np.random.default_rng(SEED)
    ok_2layer = True
    for _ in range(50):
        a1 = rng.uniform(0.2, 2.0)
        d1 = rng.uniform(0.5, 3.0)
        a2 = rng.uniform(-1.0, 0.5)
        d2 = rng.uniform(3.0, 12.0)
        lo = -2.5
        hi = min(2.5, -a2 - 1e-12 * max(1.0, abs(a2)))
        rset = find_resonances_deltaprime_2layer(barrier_well_stack(a1, d1, a2, d2), lo, 2.5)

        def f(b1):
            return two_layer_resonance_residual(a1, a2 + b1, d1, d2)[0]

        poles = []
        m = 0
        while True:
            b = -(((m + 0.5) * math.pi / d2) ** 2) - a2
            if b < lo:
                break
            if b <= hi:
                poles.append(b)
            m += 1
        brackets = _dense_scan_brackets(f, lo, hi, poles)
        ok_2layer &= len(brackets) == len(rset.roots)
        for root in rset.roots:
            resid, scale = two_layer_resonance_residual(a1, a2 + root.value, d1, d2)
            ok_2layer &= bool(abs(resid) / max(scale, 1e-300) < 1e-9)
        for (bl, bh), v in zip(brackets, rset.values()):
            ok_2layer &= bl - 1e-9 <= v <= bh + 1e-9

    ok_transistor = True
    theta_ok = True
    for _ in range(50):
        a1 = rng.uniform(0.5, 2.5)
        a3 = rng.uniform(0.5, 2.5)
        d1 = rng.uniform(0.5, 3.0)
        d3 = rng.uniform(0.5, 3.0)
        d2 = rng.uniform(4.0, 12.0)
        v_cb = rng.uniform(0.0, 0.8)
        stack = transistor_stack(a1, a3, d1, d2, d3, v_cb)
        rset = find_resonances_transistor_deltaprime(stack, 0.0, a3)

        def g(v):
            return transistor_resonance_residual(stack, v)[0]

        margin = 1e-8 * max(1.0, a3)
        poles = []
        m = 0
        while True:
            p = ((m + 0.5) * math.pi / d2) ** 2
            if p > a3 - margin:
                break
            if p > margin:
                poles.append(p)
            m += 1
        brackets = _dense_scan_brackets(g, margin, a3 - margin, poles)
        ok_transistor &= len(brackets) == len(rset.roots)
        for root in rset.roots:
            resid, scale = transistor_resonance_residual(stack, root.value)
            ok_transistor &= bool(abs(resid) / max(scale, 1e-300) < 1e-9)
        for (bl, bh), v in zip(brackets, rset.values()):
            ok_transistor &= bl - 1e-9 <= v <= bh + 1e-9
        for root in rset.roots:
            reps = transistor_theta_representations(stack, root.value)
            spread = max(abs(r - reps[0]) for r in reps[1:])
            theta_ok &= spread <= 1e-7 * abs(reps[0])

    ok = ok_2layer and ok_transistor and theta_ok
    report(
        11,
        "transcendental-root-finders",
        ok,
        f"2-layer match {ok_2layer}, transistor match {ok_transistor}, "
        f"theta 4-way {theta_ok}",
    )
    assert ok_2layer
    assert ok_transistor
    assert theta_ok
