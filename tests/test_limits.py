"""Asymptotic matrix forms and zero-thickness limit classifications."""

import cmath
import math
from dataclasses import replace
from types import SimpleNamespace

import mpmath as mp
import numpy as np
import pytest

from airystack.errors import NoClosedFormLimitError
from airystack.limits import (
    _kappa_tan,
    LimitClassification,
    LimitKind,
    squeezed_limit,
    transistor_resonance_residual,
    two_layer_resonance_residual,
)
from airystack.potential import LayerSpec, StructureSpec, realize
from airystack.scattering import scatter, trans_prob
from airystack.transfer import slope_is_degenerate
from conftest import (
    AsymptoticRegime,
    barrier_well_stack,
    det,
    kappa_tan_math,
    lambda_k_form,
    lambda_large_z,
    lambda_small_z,
    layer_matrices,
    limit_transmission_closed_form,
    random_transistor_device,
    random_two_layer_device,
    richardson_limit,
    structure_matrix,
    transistor_resonance_residual_math,
    transistor_resonance_residual_product_form,
    transistor_stack,
    transistor_theta_representations,
    two_layer_resonance_residual_math,
)


def exact_matrix_from_z(z0, z1, sigma, energy=1.0):
    """Layer with prescribed Airy-edge arguments, evaluated exactly."""
    v0 = energy + z0 * sigma * sigma
    v1 = energy + z1 * sigma * sigma
    width = (z1 - z0) / sigma
    assert not slope_is_degenerate((v0, v1, width), energy)
    return layer_matrices(v0, v1, width, energy)


def max_rel_diff(m, ref):
    return float(np.max(np.abs(m - ref) / np.abs(ref)))


# --- small-argument form ----------------------------------------------------


def test_small_z_identity_at_origin():
    m = lambda_small_z(0.0, 0.0, 1.0).matrix
    assert m.tolist() == [[1.0, 0.0], [0.0, 1.0]]


def test_small_z_l12_is_width():
    sigma = 0.7
    z0, z1 = -0.03, -0.01
    out = lambda_small_z(z0, z1, sigma)
    assert out.matrix[0, 1] == pytest.approx((z1 - z0) / sigma)
    assert out.regime is AsymptoticRegime.SMALL_Z


def test_small_z_l21_arithmetic():
    out = lambda_small_z(-0.01, -0.02, 1.0)
    assert out.matrix[1, 0] == pytest.approx(0.5 * (4e-4 - 1e-4), rel=1e-12)


def test_small_z_matches_exact():
    m = lambda_small_z(-0.02, -0.05, -0.7).matrix
    ref = exact_matrix_from_z(-0.02, -0.05, -0.7)
    assert max_rel_diff(m, ref) < 1e-4


def test_small_z_det_tolerance():
    m = lambda_small_z(-0.01, -0.008, 1.0).matrix
    assert det(m) == pytest.approx(1.0, abs=2e-6)


# --- large-argument forms ---------------------------------------------------


def test_large_z_equal_arguments_identity():
    out = lambda_large_z(-50.0, -50.0, 1.0)
    m = out.matrix
    assert out.chi == 0.0
    assert m[0, 0] == pytest.approx(1.0) and m[1, 1] == pytest.approx(1.0)
    assert m[0, 1] == pytest.approx(0.0, abs=1e-14)
    assert m[1, 0] == pytest.approx(0.0, abs=1e-12)


def test_large_z_oscillatory_against_exact():
    # z falls along the layer, so sigma is the negative cube root
    m = lambda_large_z(-100.0, -110.0, -1.0).matrix
    ref = exact_matrix_from_z(-100.0, -110.0, -1.0)
    assert max_rel_diff(m, ref) < 5e-3


def test_large_z_exponential_det_in_double_range():
    m = lambda_large_z(50.0, 50.2, 1.0).matrix
    assert det(m) == pytest.approx(1.0, rel=1e-10)
    m = lambda_large_z(-100.0, -101.0, 1.0).matrix
    assert det(m) == pytest.approx(1.0, rel=1e-10)


def test_large_z_exponential_det_identity_high_precision():
    # At chi ~ 74 (z0=50 -> z1=60) the determinant cancellation exceeds double
    # range, so the algebraic det = 1 identity is checked with 120-digit
    # arithmetic on the same expressions.
    with mp.workdps(120):
        z0, z1 = mp.mpf(50), mp.mpf(60)
        chi = mp.mpf(2) / 3 * (z1**mp.mpf(1.5) - z0**mp.mpf(1.5))
        ch, sh = mp.cosh(chi), mp.sinh(chi)
        p, q = z0 ** mp.mpf(0.25), z1 ** mp.mpf(0.25)
        pq = p * q
        sigma = mp.mpf(1)
        l11 = (p / q) * ch + sh / (4 * z0 * pq)
        l12 = sh / (sigma * pq)
        l21 = (sigma / pq**2) * ((pq**3 - 1 / (16 * pq**3)) * sh + (1 / mp.mpf(4)) * ((q / p) ** 3 - (p / q) ** 3) * ch)
        l22 = (q / p) * ch - sh / (4 * z1 * pq)
        assert abs(l11 * l22 - l12 * l21 - 1) < mp.mpf("1e-30")


def test_large_z_rejects_mixed_and_small():
    with pytest.raises(ValueError):
        lambda_large_z(-30.0, 30.0, 1.0)
    with pytest.raises(ValueError):
        lambda_large_z(0.5, 30.0, 1.0)


def test_continuation_identity():
    # the oscillatory form, continued to positive arguments through the
    # principal complex branches, reproduces the exponential form exactly
    def osc_complex(z0, z1, sigma):
        a = (-z0 + 0j) ** 0.25
        b = (-z1 + 0j) ** 0.25
        chi = (2.0 / 3.0) * ((-z1 + 0j) ** 1.5 - (-z0 + 0j) ** 1.5)
        c, s = cmath.cos(chi), cmath.sin(chi)
        ab = a * b
        l11 = (a / b) * c - s / (4.0 * z0 * ab)
        l12 = -s / (sigma * ab)
        l21 = (sigma / ab**2) * (
            (ab**3 + 1.0 / (16.0 * ab**3)) * s + 0.25 * ((a / b) ** 3 - (b / a) ** 3) * c
        )
        l22 = (b / a) * c + s / (4.0 * z1 * ab)
        return l11, l12, l21, l22

    z0, z1, sigma = 4.0, 4.4, 1.3
    exp_form = lambda_large_z(z0, z1, sigma).matrix
    cont = osc_complex(z0, z1, sigma)
    for got, want in zip(cont, exp_form.ravel()):
        assert abs(got.imag) < 1e-10 * max(1.0, abs(want))
        assert got.real == pytest.approx(want, rel=1e-10)


def test_k_form_reduces_to_constant_profile():
    out = lambda_k_form(1.0, 1.0, math.pi)
    m = out.matrix
    assert m[0, 0] == pytest.approx(-1.0, abs=1e-12)
    assert m[1, 1] == pytest.approx(-1.0, abs=1e-12)
    assert abs(m[0, 1]) < 1e-12 and abs(m[1, 0]) < 1e-12
    ref = layer_matrices(0.0, 0.0, math.pi, 1.0)
    assert m[0, 0] == pytest.approx(ref[0, 0], abs=1e-12)


def test_k_form_averaged_wavenumber():
    # k10 = 2 (k0^2 + k1^2 + k0 k1) / (3 (k0 + k1)) = 14/9 for k0=2, k1=1
    out = lambda_k_form(4.0, 1.0, 1.0)
    k10 = 14.0 / 9.0
    assert out.chi == pytest.approx(k10, rel=1e-12)
    assert out.matrix[0, 1] == pytest.approx(math.sin(k10) / math.sqrt(2.0), rel=1e-12)


def test_k_form_deep_well_against_exact():
    sigma = -1.0
    z0, z1 = -200.0, -204.5
    ref = exact_matrix_from_z(z0, z1, sigma)
    m = lambda_k_form(-z0 * sigma**2, -z1 * sigma**2, (z1 - z0) / sigma).matrix
    assert max_rel_diff(m, ref) < 5e-3


def test_k_form_barrier_branch_against_exact():
    sigma = 1.0
    z0, z1 = 100.0, 106.4
    ref = exact_matrix_from_z(z0, z1, sigma)
    m = lambda_k_form(-z0, -z1, z1 - z0).matrix
    assert max_rel_diff(m, ref) < 5e-3


def test_k_form_guards():
    with pytest.raises(ValueError):
        lambda_k_form(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        lambda_k_form(-1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        lambda_k_form(1.0, 1.0, -1.0)


def test_asymptotic_consistency_monotone():
    # both large-z routes approach the exact matrix as |z| grows; fixed-chi
    # geometry keeps every element away from zero
    pairs = ((50.0, 9.0), (100.0, 6.4), (200.0, 4.5), (400.0, 3.2))
    errs_neg, errs_kf = [], []
    for mag, delta in pairs:
        z0, z1 = -mag, -mag - delta
        ref = exact_matrix_from_z(z0, z1, -1.0)
        errs_neg.append(max_rel_diff(lambda_large_z(z0, z1, -1.0).matrix, ref))
        errs_kf.append(max_rel_diff(lambda_k_form(-z0, -z1, delta).matrix, ref))
    assert errs_neg[1] < 5e-3 and errs_kf[1] < 5e-3
    assert errs_neg == sorted(errs_neg, reverse=True)
    assert errs_kf == sorted(errs_kf, reverse=True)


# --- single-layer limits ----------------------------------------------------


def _squeezed_layer(layer):
    """The squeezed limit of a one-layer stack."""
    return squeezed_limit(StructureSpec((layer,)))


def test_single_layer_delta_strength():
    lim = _squeezed_layer(LayerSpec(1.31232, -0.524928, 2.0, 1.0, 1.0))
    assert lim.kind is LimitKind.DELTA
    assert lim.alpha == pytest.approx(2.099712, rel=1e-12)
    m = np.array(lim.elements())
    assert (m[0, 0], m[0, 1], m[1, 1]) == (1.0, 0.0, 1.0)
    assert m[1, 0] == pytest.approx(2.099712)


def test_single_layer_transparent_below_one():
    for nu in (0.0, 0.25, 0.5):
        lim = _squeezed_layer(LayerSpec(3.0, 0.0, 1.0, 0.5, nu))
        assert lim.kind is LimitKind.TRANSPARENT


def test_single_layer_interior_delta_drops_slow_bias():
    lim = _squeezed_layer(LayerSpec(2.0, 1.0, 1.5, 1.0, 0.8))
    assert lim.kind is LimitKind.DELTA
    assert lim.alpha == pytest.approx(2.0 * 1.5)


def test_single_layer_wall_above_one():
    lim = _squeezed_layer(LayerSpec(1.0, 0.5, 1.0, 1.5, 1.5))
    assert lim.kind is LimitKind.OPAQUE_WALL
    assert lim.elements() is None


def test_single_layer_resonant_well_depths():
    for n in (1, 2):
        lim = _squeezed_layer(LayerSpec(-((n * math.pi / 10.0) ** 2), 0.0, 10.0, 2.0, 1.0))
        assert lim.kind is LimitKind.RESONANT_DELTA and lim.n == n and lim.sign == (-1) ** n
    lim = _squeezed_layer(LayerSpec(-1.0, 0.0, 10.0, 2.0, 1.0))
    assert lim.kind is LimitKind.OPAQUE_WALL  # depth -1.0 itself is off the discrete set
    assert lim.elements() is None


def test_single_layer_resonant_well_on_set():
    depth = -((3 * math.pi / 10.0) ** 2)
    lim = _squeezed_layer(LayerSpec(depth, 0.0, 10.0, 2.0, 1.0))
    assert lim.kind is LimitKind.RESONANT_DELTA
    assert lim.n == 3 and lim.sign == -1
    m = np.array(lim.elements())
    assert m[0, 0] == -1.0 and m[1, 1] == -1.0 and m[1, 0] == 0.0


@pytest.mark.parametrize("kind", list(LimitKind), ids=lambda kind: kind.value)
def test_elements_and_matrix_agree_bit_for_bit(kind):
    # sign is read by RESONANT_DELTA only, theta by DELTA_PRIME_FAMILY only
    alpha, theta, sign = -0.7391283514, 1.3e-3, -1
    limit = LimitClassification(kind, alpha=alpha, theta=theta, sign=sign, n=3)
    want = {
        LimitKind.TRANSPARENT: ((1.0, 0.0), (0.0, 1.0)),
        LimitKind.DELTA: ((1.0, 0.0), (alpha, 1.0)),
        LimitKind.DELTA_PRIME_FAMILY: ((theta, 0.0), (alpha, 1.0 / theta)),
        LimitKind.RESONANT_DELTA: ((-1.0, 0.0), (-alpha, -1.0)),
        LimitKind.OPAQUE_WALL: None,
    }[kind]
    rows = limit.elements()
    assert rows == want
    if want is None:
        return
    assert all(type(x) is float for row in rows for x in row)
    # the matrix trans_prob and scatter build from the rows
    m = np.asarray(rows, dtype=float)
    assert m.dtype == np.float64 and m.shape == (2, 2)
    assert [x.hex() for x in m.ravel().tolist()] == [x.hex() for row in rows for x in row]


def test_single_layer_barrier_wall_at_21():
    lim = _squeezed_layer(LayerSpec(0.5, 0.0, 10.0, 2.0, 1.0))
    assert lim.kind is LimitKind.OPAQUE_WALL


def test_single_layer_unsupported_powers():
    with pytest.raises(NoClosedFormLimitError):
        _squeezed_layer(LayerSpec(1.0, 0.0, 1.0, 2.0, 0.0))  # isolated (2,0) point
    with pytest.raises(NoClosedFormLimitError):
        _squeezed_layer(LayerSpec(1.0, 0.0, 1.0, 1.5, 0.0))  # divergent-side line


# --- point transmission formulas --------------------------------------------


def _point_t(limit, k, k_right):
    """T of the limit's matrix through scattering.trans_prob, between leads
    of wavenumbers k and k_right (energy k^2, so the left lead is at 0)."""
    energy = k * k
    return float(trans_prob(limit.elements(), 0.0, energy - k_right * k_right, energy))


def _delta(alpha):
    return LimitClassification(LimitKind.DELTA, alpha)


def test_delta_point_transmission_free_point():
    assert _point_t(_delta(0.0), 0.7, 0.7) == pytest.approx(1.0)


def test_delta_point_transmission_half():
    assert _point_t(_delta(2.0), 1.0, 1.0) == pytest.approx(0.5)


def test_delta_point_transmission_unequal_leads_against_scatter():
    alpha, k, k_r = 2.099712, 0.5, math.sqrt(0.25 + 0.524928)
    want = _point_t(_delta(alpha), k, k_r)
    # scatter the explicit kick matrix against leads chosen so that
    # k_left = 0.5 and k_right = k_r at E = 0.25
    res = scatter([[1.0, 0.0], [alpha, 1.0]], 0.0, 0.25 - k_r * k_r, 0.25)
    assert res.trans_prob == pytest.approx(want, rel=1e-12)
    assert want == pytest.approx(0.27883984134224704, rel=1e-10)  # frozen oracle value


def test_limit_transmission_reduces_to_delta():
    # the delta formula 4 k k' / ((k + k')^2 + alpha^2)
    k, alpha = 0.6, 1.3
    k_r = math.sqrt(k * k + 0.45)  # the right lead at -0.45
    assert _point_t(_delta(alpha), k, k_r) == pytest.approx(
        4.0 * k * k_r / ((k + k_r) ** 2 + alpha**2), rel=1e-14
    )


def test_limit_transmission_theta_examples():
    def family(theta):
        return LimitClassification(LimitKind.DELTA_PRIME_FAMILY, 0.0, theta)

    assert _point_t(family(1.0), 0.8, 0.8) == pytest.approx(1.0)
    assert _point_t(family(2.0), 1.0, 1.0) == pytest.approx(0.64)


@pytest.mark.parametrize(
    "limit, theta, alpha",
    [
        (LimitClassification(LimitKind.TRANSPARENT), 1.0, 0.0),
        (LimitClassification(LimitKind.DELTA, 1.3), 1.0, 1.3),
        (LimitClassification(LimitKind.RESONANT_DELTA, -0.8, sign=1, n=2), 1.0, -0.8),
        (LimitClassification(LimitKind.RESONANT_DELTA, 0.45, sign=-1, n=1), 1.0, 0.45),
        (LimitClassification(LimitKind.DELTA_PRIME_FAMILY, 0.7, -2.5), -2.5, 0.7),
    ],
    ids=["transparent", "delta", "resonant-delta-even", "resonant-delta-odd", "delta-prime"],
)
@pytest.mark.parametrize("k, k_right", [(0.7, 0.7), (0.6, 0.95), (1.1, 0.3)])
def test_limit_matrix_transmission_is_the_closed_form(limit, theta, alpha, k, k_right):
    want = limit_transmission_closed_form(theta, alpha, k, k_right)
    assert _point_t(limit, k, k_right) == pytest.approx(want, rel=1e-14, abs=0.0)


# --- two-layer limits -------------------------------------------------------


def _fig4_spec(b1):
    return StructureSpec(
        (
            LayerSpec(1.31232, b1, 2.0, 1.0, 1.0),
            LayerSpec(-0.262464, 0.0, 10.0, 2.0, 1.0),
        )
    )


def test_two_layer_resonant_delta_at_root():
    b1 = -((2 * math.pi / 10.0) ** 2) - (-0.262464)
    assert -b1 / 2.62464 == pytest.approx(0.050414, abs=1e-6)  # the eV value
    lim = squeezed_limit(_fig4_spec(b1))
    assert lim.kind is LimitKind.RESONANT_DELTA
    assert lim.n == 2 and lim.sign == 1
    assert lim.alpha == pytest.approx((1.31232 + 0.5 * b1) * 2.0, rel=1e-12)


def test_two_layer_admissibility_warning():
    # the barrier's right edge a1 + b1 = 1.31232 + b1 must stay positive
    for n, admissible in ((2, True), (4, False)):
        b1 = -((n * math.pi / 10.0) ** 2) + 0.262464
        lim = squeezed_limit(_fig4_spec(b1))
        assert lim.kind is LimitKind.RESONANT_DELTA and lim.n == n
        assert lim.admissible == admissible == (-b1 < 1.31232)
    assert not squeezed_limit(_fig4_spec(-2.0)).admissible


def test_two_layer_resonant_delta_off_root():
    lim = squeezed_limit(_fig4_spec(-0.2))
    assert lim.kind is LimitKind.OPAQUE_WALL


def test_two_layer_resonant_delta_unbiased_persists():
    # with no biases the condition collapses to a2 = -(n pi / d2)^2
    spec = StructureSpec(
        (
            LayerSpec(1.0, 0.0, 2.0, 1.0, 1.0),
            LayerSpec(-((2 * math.pi / 10.0) ** 2), 0.0, 10.0, 2.0, 1.0),
        )
    )
    lim = squeezed_limit(spec)
    assert lim.kind is LimitKind.RESONANT_DELTA
    assert lim.alpha == pytest.approx(2.0)


def test_two_layer_delta_prime_unbiased_symmetric():
    # pick the well depth that solves the diagonal-limit condition at b = 0
    a1, d1, d2 = 1.0, 2.0, 10.0

    def f(a2):
        return two_layer_resonance_residual(a1, a2, d1, d2)[0]

    lo, hi = -((0.49 * math.pi / d2) ** 2), -((0.01 * math.pi / d2) ** 2)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(lo) * f(mid) <= 0:
            hi = mid
        else:
            lo = mid
    a2 = 0.5 * (lo + hi)
    spec = StructureSpec(
        (LayerSpec(a1, 0.0, d1, 2.0, 1.0), LayerSpec(a2, 0.0, d2, 2.0, 1.0))
    )
    lim = squeezed_limit(spec)
    assert lim.kind is LimitKind.DELTA_PRIME_FAMILY
    assert lim.alpha == pytest.approx(0.0, abs=1e-12)
    assert lim.theta == pytest.approx(
        math.cosh(math.sqrt(a1) * d1) / math.cos(math.sqrt(-a2) * d2), rel=1e-9
    )
    assert det(lim.elements()) == pytest.approx(1.0, rel=1e-12)


def test_two_layer_delta_prime_off_root():
    spec = StructureSpec(
        (LayerSpec(1.0, 0.0, 2.0, 2.0, 1.0), LayerSpec(-0.1, 0.0, 10.0, 2.0, 1.0))
    )
    lim = squeezed_limit(spec)
    assert lim.kind is LimitKind.OPAQUE_WALL


# --- transistor limits ------------------------------------------------------

FIG6 = SimpleNamespace(a1=1.31232, a3=1.31232, d1=2.0, d2=10.0, d3=2.0)
VCB = 0.524928  # 0.2 eV
FIG6_STACK = transistor_stack(FIG6.a1, FIG6.a3, FIG6.d1, FIG6.d2, FIG6.d3, VCB)


def _fig6_at(v_eb, mu):
    """FIG6_STACK at emitter voltage v_eb (b1 = -v_eb), barriers squeezed at (mu, 1)."""
    emitter, base, collector = FIG6_STACK.layers
    return StructureSpec((replace(emitter, b=-v_eb, mu=mu), base, replace(collector, mu=mu)))


def test_transistor_delta_resonance_values():
    for n, ev in ((1, 0.037604), (2, 0.150415), (3, 0.338433)):
        v = (n * math.pi / 10.0) ** 2
        assert v / 2.62464 == pytest.approx(ev, abs=5e-7)
        lim = squeezed_limit(_fig6_at(v, 1.0))
        assert lim.kind is LimitKind.RESONANT_DELTA
        assert lim.n == n and lim.sign == (-1) ** n


def test_transistor_delta_alpha_positive_for_fig6():
    v1 = (math.pi / 10.0) ** 2
    lim = squeezed_limit(_fig6_at(v1, 1.0))
    want = (FIG6.a1 - 0.5 * v1) * FIG6.d1 + (FIG6.a3 - v1 - 0.5 * VCB) * FIG6.d3
    assert lim.alpha == pytest.approx(want, rel=1e-12)
    assert lim.alpha > 0


def test_transistor_delta_off_resonance_and_warnings():
    lim = squeezed_limit(_fig6_at(0.123, 1.0))
    assert lim.kind is LimitKind.OPAQUE_WALL
    v3 = (3 * math.pi / 10.0) ** 2  # 0.3384 eV > min(a1, a3, a3 - vcb) = 0.3 eV
    lim = squeezed_limit(_fig6_at(v3, 1.0))
    assert lim.kind is LimitKind.RESONANT_DELTA  # kept, only flagged
    assert not lim.admissible


def test_transistor_deltaprime_root_cross_checks():
    from airystack.resonance import find_resonances_transistor_deltaprime

    rset = find_resonances_transistor_deltaprime(FIG6_STACK, 1e-6, FIG6.a3 - 1e-6)
    assert rset.roots
    for root in rset.roots:
        v = root.value
        lim = squeezed_limit(_fig6_at(v, 2.0))
        assert lim.kind is LimitKind.DELTA_PRIME_FAMILY
        reps = transistor_theta_representations(FIG6_STACK, v)
        spread = abs(reps[0] - reps[1]) + abs(1.0 / reps[2] - 1.0 / reps[3]) + abs(
            reps[0] / reps[2] - 1.0
        )
        assert spread < 1e-7
        # original three-term form also vanishes at the root
        resid, scale = transistor_resonance_residual_product_form(FIG6_STACK, v)
        assert abs(resid) < 1e-8 * scale
        # limit matrix is unimodular by construction
        assert det(lim.elements()) == pytest.approx(1.0, rel=1e-12)
        # grouped and expanded codings of the off-diagonal strength agree
        expanded = _alpha_expanded(FIG6, v, VCB)
        assert lim.alpha == pytest.approx(expanded, rel=1e-10)


def _alpha_expanded(params, v, vcb):
    """Term-by-term expansion of the off-diagonal strength (independent coding)."""
    q1 = math.sqrt(params.a1)
    q3 = math.sqrt(params.a3 - v)
    k2 = math.sqrt(v)
    c1h, s1h = math.cosh(q1 * params.d1), math.sinh(q1 * params.d1)
    c3h, s3h = math.cosh(q3 * params.d3), math.sinh(q3 * params.d3)
    c2, s2 = math.cos(k2 * params.d2), math.sin(k2 * params.d2)
    w1 = params.a1**-1.5 * v / (4.0 * params.d1)
    w3 = (params.a3 - v) ** -1.5 * vcb / (4.0 * params.d3)
    terms = (
        w1 * s1h * k2 * c3h * s2,
        -w1 * s1h * q3 * s3h * c2,
        -w3 * s3h * k2 * c1h * s2,
        w3 * s3h * q1 * s1h * c2,
    )
    return math.fsum(terms)


# --- the entry point ----------------------------------------------------------


def test_squeezed_limit_off_the_set_is_a_wall():
    # each squeeze off its resonance set, including a transistor bias outside
    # the domain of its condition
    pair = StructureSpec(
        (LayerSpec(1.0, 0.0, 2.0, 2.0, 1.0), LayerSpec(-0.1, 0.0, 10.0, 2.0, 1.0))
    )
    off = (
        _fig4_spec(-0.2),
        pair,
        _fig6_at(0.123, 1.0),
        _fig6_at(-0.1, 1.0),
        _fig6_at(0.1234, 2.0),
        _fig6_at(FIG6.a3, 2.0),
    )
    for stack in off:
        lim = squeezed_limit(stack)
        assert lim.kind is LimitKind.OPAQUE_WALL and lim.elements() is None


def test_squeezed_limit_without_closed_form():
    barrier = LayerSpec(1.31232, -0.2, 2.0, 1.0, 1.0)
    with pytest.raises(NoClosedFormLimitError):
        squeezed_limit(StructureSpec((barrier, barrier)))  # (1,1) + (1,1)
    with pytest.raises(NoClosedFormLimitError):
        squeezed_limit(StructureSpec(FIG6_STACK.layers + (barrier,)))


def _assert_matches_math(got, want, scale):
    """Each element of an array residual within 1e-14 of its math recoding,
    relative to the element's scale."""
    for g, w, sc in zip(got.tolist(), want, scale):
        assert abs(g - w) <= 1e-14 * sc


def test_kappa_tan_branches_match_math_recoding():
    rng = np.random.default_rng(11)
    # well, barrier and the shifted = 0 boundary, with tan and tanh arguments past 1
    shifted = np.concatenate([rng.uniform(-3.0, 3.0, 400), [0.0, -1e-300, 1e-300, -2.4, 2.4]])
    for d in (0.7, 10.0):
        want = [kappa_tan_math(s, d) for s in shifted.tolist()]
        _assert_matches_math(_kappa_tan(shifted, d), want, np.abs(want))
    assert _kappa_tan(np.array([0.0]), 10.0).tolist() == [0.0]


def test_array_residuals_match_math_recoding():
    rng = np.random.default_rng(12)
    s1 = np.concatenate([rng.uniform(-2.0, 2.0, 300), [0.0, 0.0, 1.5]])
    s2 = np.concatenate([rng.uniform(-2.0, 2.0, 300), [0.0, -0.8, 0.0]])
    resid, scale = two_layer_resonance_residual(s1, s2, 1.3, 9.0)
    want = [two_layer_resonance_residual_math(a, b, 1.3, 9.0) for a, b in zip(s1.tolist(), s2.tolist())]
    _assert_matches_math(resid, [w[0] for w in want], [w[1] for w in want])
    _assert_matches_math(scale, [w[1] for w in want], [w[1] for w in want])

    v = np.concatenate([rng.uniform(0.0, FIG6.a3, 300), [1e-8, FIG6.a3 * (1.0 - 1e-8)]])
    resid, scale = transistor_resonance_residual(FIG6_STACK, v)
    want = [transistor_resonance_residual_math(FIG6_STACK, x) for x in v.tolist()]
    _assert_matches_math(resid, [w[0] for w in want], [w[1] for w in want])
    _assert_matches_math(scale, [w[1] for w in want], [w[1] for w in want])


@pytest.mark.parametrize("bad", [0.0, -0.1, FIG6.a3, 2.0 * FIG6.a3, math.nan])
def test_transistor_residual_rejects_any_element_outside_domain(bad):
    v = np.array([0.1, 0.2, bad, 0.3])
    with pytest.raises(ValueError, match="inside"):
        transistor_resonance_residual(FIG6_STACK, v)


def test_scanned_roots_carry_python_floats():
    from airystack.resonance import (
        find_resonances_deltaprime_2layer,
        find_resonances_transistor_deltaprime,
    )

    sets = (
        find_resonances_deltaprime_2layer(barrier_well_stack(1.31, 2.0, -0.26, 10.0), -2.6, 0.0, 0.26),
        find_resonances_transistor_deltaprime(FIG6_STACK, 0.0, FIG6.a3, 0.26),
    )
    for rset in sets:
        assert rset.roots
        for root in rset.roots:
            for field in (root.value, root.alpha, root.theta, root.trans_prob):
                assert type(field) is float
    lim = squeezed_limit(_fig6_at(sets[1].roots[0].value, 2.0))
    assert lim.kind is LimitKind.DELTA_PRIME_FAMILY
    assert type(lim.alpha) is float and type(lim.theta) is float


def test_transistor_residual_forms_share_roots():
    # the explicit and product forms vanish together
    from airystack.resonance import find_resonances_transistor_deltaprime

    rset = find_resonances_transistor_deltaprime(FIG6_STACK, 0.01, 1.2)
    for root in rset.roots:
        r1, s1 = transistor_resonance_residual(FIG6_STACK, root.value)
        r2, s2 = transistor_resonance_residual_product_form(FIG6_STACK, root.value)
        assert abs(r1) < 1e-8 * s1
        assert abs(r2) < 1e-8 * s2


# --- squeezing convergence (the module's central claim) ----------------------


def test_delta_limit_squeezing_convergence():
    layer = LayerSpec(0.9, -0.25, 1.1, 1.0, 1.0)
    spec = StructureSpec((layer,))
    energy = 0.7
    v_l, v_r = spec.lead_potentials()
    lim = _squeezed_layer(layer)
    t_limit = limit_transmission_closed_form(
        1.0, lim.alpha, math.sqrt(energy), math.sqrt(energy - v_r)
    )
    errs = []
    for eps in (0.5, 0.25, 0.1, 0.05):
        t = scatter(
            structure_matrix(realize(spec, eps), energy), v_l, v_r, energy
        ).trans_prob
        errs.append(abs(t - t_limit))
    assert errs == sorted(errs, reverse=True)
    assert errs[-1] < 0.01


def test_resonant_wall_dichotomy():
    d = 10.0
    energy = 0.25
    sigma1 = -((math.pi / d) ** 2)
    sigma2 = -((2 * math.pi / d) ** 2)
    for depth, check in ((sigma1, lambda t: t > 0.05), ((sigma1 + sigma2) / 2, lambda t: t < 1e-3)):
        spec = StructureSpec((LayerSpec(depth, 0.0, d, 2.0, 1.0),))
        t = scatter(
            structure_matrix(realize(spec, 0.01), energy), 0.0, 0.0, energy
        ).trans_prob
        assert check(t)


# --- the delta family against the exact stack's limit -------------------------


def _delta_family_cases() -> dict:
    """Seeded delta-family stacks on their resonance sets (and the a = 0
    layer), every (2, 1) layer biased."""
    rng = np.random.default_rng(73)
    cases = {}
    for n in (1, 2, 3):
        for k in range(2):
            d, b = rng.uniform(3.0, 12.0), rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 0.5)
            well = LayerSpec(-((n * math.pi / d) ** 2), b, d, 2.0, 1.0)
            cases[f"well-n{n}-{k}"] = StructureSpec((well,))
    for k, (b, d) in enumerate(((0.3, 4.0), (-0.2, 7.5))):
        cases[f"flat-21-{k}"] = StructureSpec((LayerSpec(0.0, b, d, 2.0, 1.0),))
    for k in range(4):
        a1, d1, a2, d2 = random_two_layer_device(rng)
        n = k % 3 + 1
        b1 = -((n * math.pi / d2) ** 2) - a2
        b2 = rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 0.5)
        layers = (LayerSpec(a1, b1, d1, 1.0, 1.0), LayerSpec(a2, b2, d2, 2.0, 1.0))
        cases[f"barrier-well-{k}"] = StructureSpec(layers)
    for k in range(4):
        a1, a3, d1, d2, d3, v_cb = random_transistor_device(rng)
        v_eb = ((k % 3 + 1) * math.pi / d2) ** 2
        emitter, base, collector = transistor_stack(a1, a3, d1, d2, d3, v_cb).layers
        cases[f"transistor-{k}"] = StructureSpec((replace(emitter, b=-v_eb), base, collector))
    return cases


DELTA_FAMILY = _delta_family_cases()


@pytest.mark.parametrize("case", sorted(DELTA_FAMILY))
def test_delta_family_is_the_exact_stacks_limit(case):
    # a (2, 1) well's own ramp adds b d / 4 to its delta; the a = 0 layer
    # is a delta of strength b d / 2
    stack = DELTA_FAMILY[case]
    lim = squeezed_limit(stack)
    assert lim.kind is (LimitKind.DELTA if case.startswith("flat") else LimitKind.RESONANT_DELTA)
    want = richardson_limit(stack)
    assert np.all(np.abs(np.array(lim.elements()) - want) <= 1e-3 * max(1.0, abs(want[1, 0])))


def test_biased_well_ramp_terms():
    d, b = 4.0, 0.3
    well = squeezed_limit(StructureSpec((LayerSpec(-((math.pi / d) ** 2), b, d, 2.0, 1.0),)))
    assert (well.kind, well.sign, well.alpha) == (LimitKind.RESONANT_DELTA, -1, 0.25 * b * d)
    flat = squeezed_limit(StructureSpec((LayerSpec(0.0, b, d, 2.0, 1.0),)))
    assert (flat.kind, flat.alpha) == (LimitKind.DELTA, 0.5 * b * d)
    flat = squeezed_limit(StructureSpec((LayerSpec(0.0, 0.0, d, 2.0, 1.0),)))
    assert flat.kind is LimitKind.TRANSPARENT
    # a barrier-well stack whose well sits at k = 0 stays a wall
    pair = StructureSpec((LayerSpec(1.0, 0.2, 2.0, 1.0, 1.0), LayerSpec(-0.2, b, d, 2.0, 1.0)))
    assert squeezed_limit(pair).kind is LimitKind.OPAQUE_WALL
