"""Scattering amplitudes, probabilities, conservation, S-matrix unitarity,
and T against a 60-digit mpmath product."""

import math
import pathlib
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from airystack.cli import load_config
from airystack.errors import EvanescentLeadError
from airystack.potential import ev_to_invnm2, realize, stack_potentials
from airystack.scattering import scatter, trans_prob
from airystack.transfer import structure_matrices

from conftest import (
    layer_matrices,
    mp_structure_matrix,
    random_superlattice,
    rect_barrier_transmission,
    s_matrix,
    stack_pool,
    structure_matrix,
)

REPO = pathlib.Path(__file__).resolve().parent.parent


def random_unimodular(rng):
    l11 = rng.uniform(0.2, 3.0) * rng.choice([-1.0, 1.0])
    l12 = rng.uniform(-2.0, 2.0)
    l21 = rng.uniform(-2.0, 2.0)
    l22 = (1.0 + l12 * l21) / l11
    return np.array([[l11, l12], [l21, l22]])


def test_identity_full_transmission():
    res = scatter(np.eye(2), 0.0, 0.0, 1.0)
    assert res.trans_prob == pytest.approx(1.0)
    assert res.refl_prob == pytest.approx(0.0, abs=1e-15)
    assert res.r_left == pytest.approx(0.0)
    assert res.r_left == 0.0 and res.r_right == 0.0  # p = q = 0 exactly


def test_point_kick_half_transmission():
    # lower-triangular kick of strength 2 at k = 1: T = 1/(1 + (alpha/2k)^2)
    res = scatter([[1.0, 0.0], [2.0, 1.0]], 0.0, 0.0, 1.0)
    assert res.trans_prob == pytest.approx(0.5, rel=1e-12)


def test_rectangular_barrier_against_closed_form():
    v, width, energy = 1.0, 1.0, 0.5
    m = layer_matrices(v, v, width, energy)
    res = scatter(m, 0.0, 0.0, energy)
    oracle = rect_barrier_transmission(v, width, energy)
    assert res.trans_prob == pytest.approx(oracle, rel=1e-12)
    # frozen oracle output
    assert res.trans_prob == pytest.approx(0.6292902736348536, rel=1e-10)


def test_conservation_and_denominator_identity(rng):
    for _ in range(1000):
        m = random_unimodular(rng)
        v_l = rng.uniform(-2.0, 1.0)
        v_r = rng.uniform(-2.0, 1.0)
        energy = max(v_l, v_r) + rng.uniform(0.1, 3.0)
        res = scatter(m, v_l, v_r, energy)
        assert res.refl_prob + res.trans_prob == pytest.approx(1.0, abs=1e-9)
        # R and T share the denominator 4 k_L / k_R + p^2 + q^2, which is
        # |d|^2 of the amplitudes' denominator d when det = 1
        assert abs(res.r_left) ** 2 == pytest.approx(res.refl_prob, rel=1e-9)
        flux = abs(res.t_left) ** 2 * res.k_right / res.k_left
        assert flux == pytest.approx(res.trans_prob, rel=1e-9)


def test_left_right_transmission_probability_equality(rng):
    for _ in range(200):
        m = random_unimodular(rng)
        v_l, v_r = rng.uniform(-2.0, 0.5, size=2)
        energy = max(v_l, v_r) + rng.uniform(0.2, 2.0)
        res = scatter(m, v_l, v_r, energy)
        t_from_left = (res.k_right / res.k_left) * abs(res.t_left) ** 2
        t_from_right = (res.k_left / res.k_right) * abs(res.t_right) ** 2
        assert t_from_left == pytest.approx(t_from_right, abs=1e-10)
        assert t_from_left == pytest.approx(res.trans_prob, rel=1e-9)
        refl = abs(res.r_left) ** 2
        assert refl == pytest.approx(res.refl_prob, rel=1e-9, abs=1e-12)


def test_time_reversal_equal_leads(rng):
    for _ in range(50):
        m = random_unimodular(rng)
        res = scatter(m, 0.3, 0.3, 1.7)
        assert abs(res.t_left) == pytest.approx(abs(res.t_right), abs=1e-12)


def _array_route(matrices, v_l, v_r, energy):
    """(R, T) of matrices (..., 2, 2) on arrays: T from trans_prob, and R
    as p^2 + q^2 over T's denominator, 1 where that overflows."""
    m = np.asarray(matrices, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        k_l, k_r = np.sqrt(energy - v_l), np.sqrt(energy - v_r)
        ratio = k_l / k_r
        p = m[..., 0, 0] - ratio * m[..., 1, 1]
        q = k_l * m[..., 0, 1] + m[..., 1, 0] / k_r
        denom = 4.0 * ratio + p * p + q * q
        refl = np.where(np.isinf(denom), 1.0, (p * p + q * q) / denom)
    return refl, trans_prob(m, v_l, v_r, energy)


def test_scatter_probabilities_equal_the_array_route(rng):
    energy = 1.7
    matrices = np.array([random_unimodular(rng) for _ in range(2000)])
    v_l, v_r = rng.uniform(-2.0, 1.6, size=(2, 2000))
    refl, trans = _array_route(matrices, v_l, v_r, energy)
    for m, a, b, r, t in zip(matrices, v_l.tolist(), v_r.tolist(), refl.tolist(), trans.tolist()):
        res = scatter(m, a, b, energy)
        assert (res.refl_prob, res.trans_prob) == (r, t)


@pytest.mark.parametrize(
    "matrix, v_lead, energy",
    [
        ([[1e200, 0.0], [0.0, 1e-200]], 0.0, 1.0),  # p^2 overflows
        ([[1.0, 0.0], [2.0, 1.0]], 0.0, 5e-324),  # (l21 / k_r)^2 overflows
    ],
    ids=["p-squared-overflows", "energy-one-subnormal-above-the-leads"],
)
def test_total_reflection_on_both_routes(matrix, v_lead, energy):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = scatter(matrix, v_lead, v_lead, energy)
    assert (res.refl_prob, res.trans_prob) == (1.0, 0.0)
    refl, trans = _array_route(matrix, v_lead, v_lead, energy)
    assert (float(refl), float(trans)) == (1.0, 0.0)


def test_evanescent_lead_errors():
    m = np.eye(2)
    with pytest.raises(EvanescentLeadError):
        scatter(m, 0.0, 2.0, 1.0)
    with pytest.raises(EvanescentLeadError):
        scatter(m, 1.0, 0.0, 1.0)  # energy == v_left


def test_s_matrix_identity_case():
    res = scatter(np.eye(2), 0.0, 0.0, 1.0)
    s = s_matrix(res)
    assert s[0, 0] == pytest.approx(0.0)
    assert s[0, 1] == pytest.approx(1.0)
    assert s[1, 0] == pytest.approx(1.0)
    assert s[1, 1] == pytest.approx(0.0)


def test_s_matrix_point_kick_entry():
    res = scatter([[1.0, 0.0], [2.0, 1.0]], 0.0, 0.0, 1.0)
    s = s_matrix(res)
    assert abs(s[0, 1]) ** 2 == pytest.approx(0.5, rel=1e-12)


def test_s_matrix_unitarity(rng):
    for _ in range(200):
        m = random_unimodular(rng)
        v_l, v_r = rng.uniform(-1.5, 0.5, size=2)
        energy = max(v_l, v_r) + rng.uniform(0.2, 2.0)
        s = s_matrix(scatter(m, v_l, v_r, energy))
        assert np.max(np.abs(s.conj().T @ s - np.eye(2))) < 1e-9


@settings(max_examples=200, deadline=None)
@given(
    st.floats(min_value=0.2, max_value=3.0),
    st.floats(min_value=-2.0, max_value=2.0),
    st.floats(min_value=-2.0, max_value=2.0),
    st.floats(min_value=-1.0, max_value=1.0),
    st.floats(min_value=-1.0, max_value=1.0),
    st.floats(min_value=0.1, max_value=3.0),
)
def test_conservation_property(l11, l12, l21, v_l, v_r, de):
    m = [[l11, l12], [l21, (1.0 + l12 * l21) / l11]]
    res = scatter(m, v_l, v_r, max(v_l, v_r) + de)
    assert res.refl_prob + res.trans_prob == pytest.approx(1.0, abs=1e-9)
    assert 0.0 <= res.trans_prob <= 1.0


# T against mp_structure_matrix.  The bound follows from the problem alone,
# fixed before any error was looked at: each layer matrix is taken as exact
# to C * EPS normwise (EPS = 1e-13, the accuracy airy states for Ai and Bi;
# C = 4 for the difference of two products of quad values in each element),
# so an n-layer product is exact to n * C * EPS * kappa, with
# kappa = prod |M_i| / |prod M_i| (Frobenius norms), and T to tau times
# that, tau = |P| sum |dT/dP_ij| / T being T's first-order condition on the
# matrix P.
ORACLE_C, ORACLE_EPS = 4.0, 1e-13


def _superlattice(seed):
    spec, energy = random_superlattice(np.random.default_rng(seed))
    return spec, energy, 1.0


def _config(name, epsilon, bias_ev=None):
    """A shipped config at epsilon, with layer 0's bias set to bias_ev (a
    point of its sweep) unless None."""
    cfg = load_config(str(REPO / "configs" / f"{name}.json"))
    spec = cfg.spec if bias_ev is None else cfg.spec.replace_bias(0, ev_to_invnm2(bias_ev))
    return spec, cfg.energy, epsilon


def _stack_device(index, point):
    """Device `index` of the `stack` benchmark pool at grid point `point`
    of its sweep, at epsilon 1."""
    cfg = stack_pool()[index]
    sweep = cfg.sweep
    value = sweep["lo"] + (sweep["hi"] - sweep["lo"]) * point / (sweep["points"] - 1)
    return cfg.spec.replace_bias(sweep["tuned_layer"], sweep["tuned_sign"] * value), cfg.energy, 1.0


ORACLE_CASES = {f"superlattice-{seed}": (_superlattice, seed) for seed in range(4)}
# ill-conditioned: 24 layers; point 35 has the largest T error of its 200
# (1.9e-12, against a bound of 8.0e-6)
ORACLE_CASES["stack-28"] = (_stack_device, 28, 35)
# layer 0 biased by a few meV: z_left ~ 100, where Bi swamps Ai
for _point in range(1, 7):
    ORACLE_CASES[f"stack-28-point{_point}"] = (_stack_device, 28, _point)
for _eps in (1.0, 0.5, 0.1):
    for _name in ("barrier", "fig4", "fig6"):
        ORACLE_CASES[f"{_name}-eps{_eps}"] = (_config, _name, _eps)
    # layer 0 tilted, as at a point of each figure's sweep
    ORACLE_CASES[f"fig4-b1-eps{_eps}"] = (_config, "fig4", _eps, -0.3)
    ORACLE_CASES[f"fig6-b1-eps{_eps}"] = (_config, "fig6", _eps, -0.2)


def _t_and_tau(product, k_l, k_r, norm):
    """T of the matrix product (rows of floats or mpf) between leads of
    wavenumbers k_l and k_r, and tau = norm sum |dT/dP_ij| / T, norm = |P|."""
    (p11, p12), (p21, p22) = product
    ratio = k_l / k_r
    p = p11 - ratio * p22
    q = k_l * p12 + p21 / k_r
    t = 4 * ratio / (4 * ratio + p * p + q * q)
    # |dT/dP_ij|: dT = -T^2 / (4 ratio) (2 p dp + 2 q dq)
    slope = t**2 / (2 * ratio) * (abs(p) * (1 + ratio) + abs(q) * (k_l + 1 / k_r))
    return t, norm * slope / t


def transmission_error(case):
    """(relative error of P, its bound, relative error of T, its bound)."""
    make, *args = ORACLE_CASES[case]
    spec, energy, epsilon = make(*args)
    layers = realize(spec, epsilon)
    product = structure_matrix(layers, energy)
    v_l, v_r = spec.lead_potentials()
    t = float(trans_prob(product, v_l, v_r, energy))
    with mpmath.workdps(60):
        exact = mp_structure_matrix(*zip(*layers), energy)
        k_l, k_r = mpmath.sqrt(energy - mpmath.mpf(v_l)), mpmath.sqrt(energy - mpmath.mpf(v_r))
        norm = mpmath.mnorm(exact, "f")
        t_exact, tau = _t_and_tau(exact.tolist(), k_l, k_r, norm)
        p_err = float(mpmath.mnorm(mpmath.matrix(product.tolist()) - exact, "f") / norm)
        t_err = float(abs(t - t_exact) / t_exact)
        tau = float(tau)
    kappa = math.prod(np.linalg.norm(layer_matrices(*layer, energy)) for layer in layers) / float(norm)
    p_bound = len(layers) * ORACLE_C * ORACLE_EPS * kappa
    return p_err, p_bound, t_err, p_bound * tau


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_transmission_against_mpmath(case):
    p_err, p_bound, t_err, t_bound = transmission_error(case)
    assert p_err <= p_bound
    assert t_err <= t_bound


# Invariances of T, checked without an oracle: scaling every length by s
# with every potential and the energy by 1 / s^2, shifting every potential
# and the energy by one constant, and mirroring the device (layers
# reversed, each layer's edges and the leads swapped) leave the exact T
# unchanged.  Each pair is judged against the sum of both sides' bounds
# n C EPS kappa tau, kappa and tau taken from the double product as
# transmission_error takes them from the exact one.
INVARIANCE_CASES = {f"superlattice-{seed}": (_superlattice, seed) for seed in range(24)}
for _eps in (1.0, 0.5, 0.1):
    for _name, _bias in (("fig4", -0.3), ("fig6", -0.2)):
        INVARIANCE_CASES[f"{_name}-eps{_eps}"] = (_config, _name, _eps)
        INVARIANCE_CASES[f"{_name}-b1-eps{_eps}"] = (_config, _name, _eps, _bias)


def _scaled(s):
    def scaled(v_left, v_right, widths, leads, energy):
        return v_left / (s * s), v_right / (s * s), widths * s, leads / (s * s), energy / (s * s)

    return scaled


def _shifted(v_left, v_right, widths, leads, energy, c=0.013):
    return v_left + c, v_right + c, widths, leads + c, energy + c


def _mirrored(v_left, v_right, widths, leads, energy):
    return v_right[::-1], v_left[::-1], widths[::-1], leads[::-1], energy


INVARIANCES = {"scale-2": _scaled(2.0), "scale-3": _scaled(3.0), "scale-0.7": _scaled(0.7),
               "shift": _shifted, "mirror": _mirrored}


def _transmission_and_bound(v_left, v_right, widths, leads, energy):
    """T of the layers (edge potentials and widths in nm^-2 and nm) between
    the leads, and its bound n C EPS kappa tau from the double product."""
    product = structure_matrices([v_left], [v_right], [widths], energy)[0]
    t = float(trans_prob(product, *leads, energy))
    k_l, k_r = (math.sqrt(energy - v) for v in leads)
    norm = float(np.linalg.norm(product))
    _, tau = _t_and_tau(product.tolist(), k_l, k_r, norm)
    layers = layer_matrices(v_left, v_right, widths, energy)
    kappa = math.prod(float(np.linalg.norm(m)) for m in layers) / norm
    return t, len(widths) * ORACLE_C * ORACLE_EPS * kappa * tau


@pytest.mark.parametrize("case", sorted(INVARIANCE_CASES))
def test_transmission_invariances_within_both_bounds(case):
    make, *args = INVARIANCE_CASES[case]
    spec, energy, epsilon = make(*args)
    v_left, v_right, widths = stack_potentials(spec, epsilon, [[layer.b for layer in spec.layers]])
    device = (v_left[0], v_right[0], widths, np.array(spec.lead_potentials()), energy)
    t, bound = _transmission_and_bound(*device)
    for name, transform in INVARIANCES.items():
        t_other, bound_other = _transmission_and_bound(*transform(*device))
        assert abs(t_other - t) <= (bound + bound_other) * t, name
