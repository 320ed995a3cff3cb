"""Airy evaluator against independent oracles (scipy, mpmath, raw series)."""

import hashlib
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from airystack.airy import SERIES_RADIUS, airy_eval_scaled, wronskian_sweep

from conftest import airy_unscaled

# mpmath precision of every oracle here, set per use so it never leaks
# into other modules' tests
DPS = 40


@mp.workdps(DPS)
def series_oracle(z, terms=40):
    """Maclaurin f/g series summed in 40-digit arithmetic; independent of the
    package's Taylor-step path."""
    zm = mp.mpf(z)
    c1 = mp.mpf(3) ** mp.mpf("-2/3") / mp.gamma(mp.mpf(2) / 3)
    c2 = mp.mpf(3) ** mp.mpf("-1/3") / mp.gamma(mp.mpf(1) / 3)
    w = zm**3
    f = tf = mp.mpf(1)
    g = tg = zm
    fp = mp.mpf(0)
    tp = zm * zm / 2
    gp = tq = mp.mpf(1)
    for k in range(1, terms + 1):
        tf *= w / (3 * k * (3 * k - 1))
        tg *= w / ((3 * k + 1) * 3 * k)
        if k > 1:
            tp *= w / ((3 * k - 1) * (3 * k - 3))
        tq *= w / (3 * k * (3 * k - 2))
        f += tf
        g += tg
        fp += tp
        gp += tq
    fp += zm * zm / 2
    ai = c1 * f - c2 * g
    bi = mp.sqrt(3) * (c1 * f + c2 * g)
    aip = c1 * fp - c2 * gp
    bip = mp.sqrt(3) * (c1 * fp + c2 * gp)
    return float(ai), float(bi), float(aip), float(bip)


def test_values_at_zero():
    q = airy_unscaled(0.0)
    ai, bi, aip, bip = series_oracle(0.0)
    assert q.ai == pytest.approx(ai, rel=1e-14)
    assert q.bi == pytest.approx(bi, rel=1e-14)
    assert q.ai_prime == pytest.approx(aip, rel=1e-14)
    assert q.bi_prime == pytest.approx(bip, rel=1e-14)
    # frozen oracle outputs
    assert q.ai == pytest.approx(0.3550280538878172, rel=1e-12)
    assert q.bi == pytest.approx(0.6149266274460007, rel=1e-12)
    assert q.ai_prime == pytest.approx(-0.2588194037928068, rel=1e-12)
    assert q.bi_prime == pytest.approx(0.4482883573538264, rel=1e-12)


def test_wronskian_at_zero():
    q = airy_unscaled(0.0)
    assert q.ai * q.bi_prime - q.ai_prime * q.bi == pytest.approx(1.0 / math.pi, abs=1e-14)


def test_values_at_one_against_series_oracle():
    q = airy_unscaled(1.0)
    ai, bi, _, _ = series_oracle(1.0)
    assert q.ai == pytest.approx(ai, rel=1e-13)
    assert q.bi == pytest.approx(bi, rel=1e-13)
    assert q.ai == pytest.approx(0.13529241631288141, rel=1e-12)
    assert q.bi == pytest.approx(1.2074235949528713, rel=1e-12)


# +-12 and +-12.5 straddle SERIES_RADIUS; +-9 and +-9.5 are series points
@pytest.mark.parametrize("z", [-40.0, -20.0, -12.5, -12.0, -9.5, -9.0, -5.5, -2.0, -0.3, 0.0,
                               0.7, 3.0, 5.5, 8.0, 9.0, 9.5, 12.0, 12.5, 15.0, 30.0, 80.0,
                               104.0])
def test_against_scipy_and_mpmath(z):
    q = airy_unscaled(z)
    sai, saip, sbi, sbip = special.airy(z)
    # scipy's own error is a few ulp o(1e-14); mpmath referees disagreements.
    # scipy loses Bi to overflow slightly before the true representable limit.
    with mp.workdps(DPS):
        mrefs = (mp.airyai(z), mp.airyai(z, 1), mp.airybi(z), mp.airybi(z, 1))
    for mine, ref, mref in zip(
        (q.ai, q.ai_prime, q.bi, q.bi_prime), (sai, saip, sbi, sbip), mrefs
    ):
        assert mine == pytest.approx(float(mref), rel=5e-13)
        if math.isfinite(ref):
            assert mine == pytest.approx(ref, rel=1e-10)


def test_dense_grid_against_mpmath():
    # z = -9 .. 9 in steps of 0.05 hits every Taylor node k/2 and every node
    # midpoint, where the step is longest.  For z < 0 the bound is relative
    # to the local amplitude, so zeros of Ai or Bi do not turn an absolute
    # accuracy into a meaningless relative one.
    # The same grid also goes through airy_eval_scaled as one array: its
    # scaled values must meet the bound with the exponent it reports.
    zs = np.arange(-180, 181) / 20
    batch = airy_eval_scaled(zs)
    with mp.workdps(DPS):
        for i, z in enumerate(zs.tolist()):
            q = airy_unscaled(z)
            refs = (mp.airyai(z), mp.airyai(z, 1), mp.airybi(z), mp.airybi(z, 1))
            if z < 0:
                amp, amp_prime = mp.hypot(refs[0], refs[2]), mp.hypot(refs[1], refs[3])
                scales = (amp, amp_prime, amp, amp_prime)
            else:
                scales = tuple(abs(r) for r in refs)
            mine = (q.ai, q.ai_prime, q.bi, q.bi_prime)
            for name, value, ref, scale in zip(("Ai", "Ai'", "Bi", "Bi'"), mine, refs, scales):
                assert abs(value - ref) <= 1e-14 * scale, (name, z, float((value - ref) / scale))
            e = mp.exp(mp.mpf(float(batch.exponent[i])))
            scaled = (batch.ai_scaled[i], batch.ai_prime_scaled[i],
                      batch.bi_scaled[i], batch.bi_prime_scaled[i])
            for name, value, ref, scale, f in zip(
                ("Ai", "Ai'", "Bi", "Bi'"), scaled, refs, scales, (e, e, 1 / e, 1 / e)
            ):
                assert abs(value - ref * f) <= 1e-14 * scale * f, (name, z, "scaled")


def test_taylor_step_beats_the_expansion_it_replaced():
    # 9 < |z| <= 12 went from the asymptotic expansions (~6e-15 of the local
    # amplitude there) to the Taylor step; its bound is the dense grid's
    # 1e-15 with a factor 2 of room, fixed before measuring.  Steps of 1/40
    # hit every node k/2 and every node midpoint.
    zs = 9.0 + np.arange(1, 121) / 40
    with mp.workdps(DPS):
        for z in np.r_[zs, -zs].tolist():
            q = airy_unscaled(z)
            refs = (mp.airyai(z), mp.airyai(z, 1), mp.airybi(z), mp.airybi(z, 1))
            if z < 0:
                amp, amp_prime = mp.hypot(refs[0], refs[2]), mp.hypot(refs[1], refs[3])
                scales = (amp, amp_prime, amp, amp_prime)
            else:
                scales = tuple(abs(r) for r in refs)
            mine = (q.ai, q.ai_prime, q.bi, q.bi_prime)
            for name, value, ref, scale in zip(("Ai", "Ai'", "Bi", "Bi'"), mine, refs, scales):
                assert abs(value - ref) <= 2e-15 * scale, (name, z, float((value - ref) / scale))


def test_scaled_identity_below_zero():
    for z in (-7.3, -0.1, 0.0):
        assert airy_eval_scaled(z).exponent == 0.0


def test_exponent_is_removed_only_past_the_series_radius():
    r = SERIES_RADIUS
    assert airy_eval_scaled(np.array([0.5, 9.0, r])).exponent.tolist() == [0.0, 0.0, 0.0]
    past = float(np.nextafter(r, 20.0))
    assert airy_eval_scaled(past).exponent == pytest.approx((2.0 / 3.0) * past**1.5, rel=1e-15)


def test_scaled_product_leading_order_at_100():
    # Ai*Bi ~ 1/(2 pi sqrt(z)) to leading order
    s = airy_eval_scaled(100.0)
    assert s.ai_scaled * s.bi_scaled == pytest.approx(1.0 / (2.0 * math.pi * 10.0), rel=1e-3)


def test_scaled_finite_for_huge_argument():
    s = airy_eval_scaled(1e8)
    assert math.isfinite(s.ai_scaled) and math.isfinite(s.bi_scaled)
    assert s.exponent == pytest.approx((2.0 / 3.0) * 1e12, rel=1e-12)


def test_rejects_non_finite():
    with pytest.raises(ValueError):
        airy_eval_scaled(math.nan)
    with pytest.raises(ValueError):
        airy_eval_scaled(math.inf)


@settings(max_examples=300, deadline=None)
@given(st.floats(min_value=-20.0, max_value=8.0, allow_nan=False))
def test_wronskian_property(z):
    q = airy_unscaled(z)
    assert abs(q.ai * q.bi_prime - q.ai_prime * q.bi - 1.0 / math.pi) < 1e-10


def test_wronskian_sweep_grid():
    worst, per_regime = wronskian_sweep(-20.0, 8.0, 2000)
    assert worst < 1e-10
    assert set(per_regime) == {"series", "oscillatory", "exponential"}
    # the default grid (airy-check's) checks every regime; an empty one reads 0.0
    worst, per_regime = wronskian_sweep()
    assert worst < 1e-10
    assert all(defect < 1e-10 for defect in per_regime.values())
    assert per_regime["exponential"] > 0.0


def test_regime_agreement_at_crossover():
    # the two representations agree where they hand over
    from airystack.airy import _asym_neg, _asym_pos, _series

    def at(kernel, z):
        return [float(x[0]) for x in kernel(np.array([z]))]

    # the nodes reach +-12, so the series is defined up to |z| = 12.25
    for z in (11.5, 11.8, 12.1, 12.2):
        ai_s, aip_s, bi_s, bip_s, zeta = at(_asym_pos, z)
        em, ep = math.exp(-zeta), math.exp(zeta)
        asym = (ai_s * em, aip_s * em, bi_s * ep, bip_s * ep)
        series = at(_series, z)
        for a, b in zip(asym, series):
            assert a == pytest.approx(b, rel=1e-9)
    for z in (-11.5, -11.8, -12.1, -12.2):
        for a, b in zip(at(_asym_neg, z), at(_series, z)):
            assert a == pytest.approx(b, rel=1e-9)


def test_the_floor_ends_every_asymptotic_sum_inside_the_table():
    # Both kernels cut each element's sum of u_k zeta^-k where a term falls
    # below 1e-18: _asym_pos term by term, _asym_neg pair by pair
    # (u_2k, u_2k+1) on the even term.  Just past the radius, where zeta is
    # least and the sums longest, the terms must fall strictly over the whole
    # table, so no sum reaches its smallest term, and the floor must be met
    # inside the table, so that the table's end truncates no sum.
    from airystack.airy import _U, _V, _zeta

    assert len(_V) == len(_U)
    zeta = float(_zeta(np.array(np.nextafter(SERIES_RADIUS, np.inf))))
    terms = [u * zeta**-k for k, u in enumerate(_U)]
    assert all(b < a for a, b in zip(terms, terms[1:]))
    pairs = list(zip(terms[0::2], terms[1::2]))  # whole pairs: _asym_neg reads u_2k+1 too
    assert any(term < 1e-18 for term in terms)
    assert any(even < 1e-18 for even, _ in pairs)


@pytest.mark.parametrize("z", [-10.0, -6.0, -3.0, -1.0, 0.5, 2.0, 5.0])
def test_derivative_consistency(z):
    h = 1e-5
    plus = airy_unscaled(z + h)
    minus = airy_unscaled(z - h)
    q = airy_unscaled(z)
    fd_ai = (plus.ai - minus.ai) / (2.0 * h)
    fd_bi = (plus.bi - minus.bi) / (2.0 * h)
    # central difference error is O(h^2 * |z| * value)
    scale = (1.0 + abs(z)) * max(abs(q.ai), 1e-3)
    assert abs(fd_ai - q.ai_prime) < 5e-9 * scale / max(abs(q.ai), 1e-3) + 1e-9
    assert abs(fd_bi - q.bi_prime) < 1e-8 * (1.0 + abs(q.bi)) * (1.0 + abs(z))


def test_sign_pattern_positive_argument():
    for z in (0.5, 3.0, 9.5, 40.0):
        q = airy_unscaled(z)
        assert q.ai > 0 and q.bi > 0 and q.ai_prime < 0 and q.bi_prime > 0


def test_series_radius_constant():
    assert SERIES_RADIUS == 12.0


def _edges() -> np.ndarray:
    """A dense z grid with +-0.0 and both sides of +-SERIES_RADIUS."""
    r = SERIES_RADIUS
    edges = [0.0, -0.0, 5e-324, -5e-324, r, -r, np.nextafter(r, 0.0), np.nextafter(r, 20.0)]
    edges += [-e for e in edges[-2:]]
    return np.r_[np.linspace(-20.0, 20.0, 40001), edges]


def test_exp_keeps_the_bits_of_libm_exp():
    from airystack.airy import _exp, _libm

    z = _edges()
    zeta = airy_eval_scaled(z).exponent
    assert np.any(zeta == 0.0) and np.any(zeta > 0.0)
    for x in (z, -z, zeta, -zeta, np.array(0.0), np.array(-0.0)):
        assert np.array_equal(_exp(x).view(np.int64), _libm(math.exp, x).view(np.int64))


# Bits of the scaled quad as this numpy and this platform's libm give them
# (math.pow element by element; numpy's sqrt, cos and sin):
# a refactor of the evaluator must leave every value as it was.  The grid
# spans all three regimes and the float neighbours of both crossovers.
QUAD_GRID_SHA256 = "31c0bea43d957837c7367677a01b4d4babb41639c5454c9357837c814a10c029"
QUAD_HEX = {  # z: (ai, bi, ai', bi', exponent), all scaled
    -25.0: ("0x1.4ee705e0d3ea3p-3", "-0x1.8984450b5d98fp-3", "0x1.ecbcebba24f09p-1",
            "0x1.a1a603bbbcae3p-1", "0x0.0p+0"),
    -12.000000000000002: ("-0x1.109c28c3cf367p-4", "-0x1.2ed1335c9af35p-2", "0x1.05ea911169424p+0",
                          "-0x1.e4d3d9bcc2515p-3", "0x0.0p+0"),
    -12.0: ("-0x1.109c28c3cf340p-4", "-0x1.2ed1335c9af36p-2", "0x1.05ea911169423p+0",
            "-0x1.e4d3d9bcc2500p-3", "0x0.0p+0"),
    0.5: ("0x1.da822d7438440p-3", "0x1.b563ccf3b4098p-1", "-0x1.cc9de4b290e92p-3",
          "0x1.16d2371290beep-1", "0x0.0p+0"),
    12.0: ("0x1.39b7a11f5a8eep-43", "0x1.33282b8f944c0p+38", "-0x1.114c208e15be4p-41",
           "0x1.086185756b5efp+40", "0x0.0p+0"),
    12.000000000000002: ("0x1.35a471fc4fe54p-3", "0x1.3732fb16c7c64p-2", "-0x1.0dbf594e99b3bp-1",
                         "0x1.0bdc38493f3dcp+0", "0x1.bb67ae8584cabp+4"),
    25.0: ("0x1.0227a2cc20734p-3", "0x1.0295e1c7fc5efp-2", "-0x1.4355f2986cf38p-1",
           "0x1.42950528a859ap+0", "0x1.4d55555555554p+6"),
}


def _quad_rows(q):
    return q.ai_scaled, q.bi_scaled, q.ai_prime_scaled, q.bi_prime_scaled, q.exponent


def test_scaled_quad_keeps_its_bits():
    r = SERIES_RADIUS
    crossovers = [np.nextafter(-r, -10.0), -r, np.nextafter(-r, 0.0), np.nextafter(r, 0.0), r,
                  np.nextafter(r, 10.0)]
    z = np.concatenate([np.linspace(-30.0, 30.0, 1201), crossovers])
    digest = hashlib.sha256()
    for row in _quad_rows(airy_eval_scaled(z)):
        digest.update(row.tobytes())
    for x, expected in QUAD_HEX.items():
        assert tuple(v.hex() for v in _quad_rows(airy_eval_scaled(x))) == expected, x
    assert digest.hexdigest() == QUAD_GRID_SHA256


# The same, over the asymptotic regimes out to |z| = 1e8: the float neighbour
# above the radius, then 256 points per octave (exact binary fractions, so
# the grid is the same on every platform), both signs.
FAR_GRID_SHA256 = "74ba58c1fcde4f5c40f61f6a372f1adb0c97fa2dc7e6baec10d7a9893b2a5eaf"


def test_far_asymptotic_quad_keeps_its_bits():
    r = SERIES_RADIUS
    z = np.ldexp(1.0 + np.arange(256) / 256, np.arange(3, 27)[:, None]).ravel()
    z = np.r_[np.nextafter(r, np.inf), z[(z > r) & (z <= 1e8)], 1e8]
    digest = hashlib.sha256()
    for row in _quad_rows(airy_eval_scaled(np.r_[z, -z])):
        digest.update(row.tobytes())
    assert digest.hexdigest() == FAR_GRID_SHA256
