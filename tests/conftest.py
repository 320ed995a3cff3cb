"""Shared numerical oracles, all independent of the package's own code paths,
and test helpers."""

import cmath
import gzip
import json
import math
import pathlib
import tempfile
from dataclasses import dataclass
from enum import Enum
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from scipy.integrate import solve_ivp

from airystack.airy import _exp, airy_eval_scaled
from airystack.cli import DeviceConfig, load_config
from airystack.potential import EV_TO_INVNM2, LayerSpec, StructureSpec, stack_potentials
from airystack.resonance import MAX_STEPS, ROOT_REL_TOL, SCAN_STEPS
from airystack.scattering import ScatteringResult
from airystack.transfer import structure_matrices


def airy_unscaled(z) -> SimpleNamespace:
    """Ai, Bi, Ai', Bi' at z (floats for a float z): the scaled quad times
    exp(-+exponent), taken with the package's own libm exp, so each value has
    the bits of Ai(z) etc. as the scaled values define them.  exp(exponent)
    overflows, and raises OverflowError, for z above about 104."""
    q = airy_eval_scaled(z)
    zeta = np.asarray(q.exponent)
    em, ep = _exp(-zeta), _exp(zeta)
    values = (q.ai_scaled * em, q.bi_scaled * ep, q.ai_prime_scaled * em, q.bi_prime_scaled * ep)
    if np.ndim(z) == 0:
        values = tuple(float(v) for v in values)
    return SimpleNamespace(**dict(zip(("ai", "bi", "ai_prime", "bi_prime"), values)))


def ode_transfer_matrix(v0, v1, width, energy, rtol=1e-12, atol=1e-14):
    """Transfer matrix of a linear-profile layer by direct integration of the
    wave equation with canonical initial conditions (independent oracle)."""
    eta = (v1 - v0) / width

    def rhs(x, y):
        return [y[1], (v0 + eta * x - energy) * y[0]]

    cols = []
    for ic in ([1.0, 0.0], [0.0, 1.0]):
        sol = solve_ivp(rhs, (0.0, width), ic, method="DOP853", rtol=rtol, atol=atol)
        assert sol.success
        cols.append([sol.y[0, -1], sol.y[1, -1]])
    return np.array(cols).T


def mp_structure_matrix(v_left, v_right, widths, energy, dps=60):
    """Right-to-left product of the layers' transfer matrices in dps-digit
    arithmetic (an mpmath 2x2 matrix), independent of the package: a tilted
    layer is F(z_right) F(z_left)^-1 with F = [[Ai, Bi], [sigma Ai', sigma Bi']]
    from mpmath's Airy functions (F^-1 in closed form), sigma the real cube
    root of the slope and z = (v - E) / sigma^2; a flat layer is cos/sin
    above its potential, cosh/sinh below.  The float inputs are taken
    exactly."""
    with mpmath.workdps(dps):
        e = mpmath.mpf(energy)
        total = mpmath.eye(2)
        for v0, v1, w in zip(v_left, v_right, widths):
            v0, v1, w = mpmath.mpf(v0), mpmath.mpf(v1), mpmath.mpf(w)
            if v0 == v1:
                k2 = e - v0
                k = mpmath.sqrt(abs(k2))
                if k2 > 0:
                    c, s = mpmath.cos(k * w), mpmath.sin(k * w)
                    m = mpmath.matrix([[c, s / k], [-k * s, c]])
                elif k2 < 0:
                    c, s = mpmath.cosh(k * w), mpmath.sinh(k * w)
                    m = mpmath.matrix([[c, s / k], [k * s, c]])
                else:
                    m = mpmath.matrix([[1, w], [0, 1]])
            else:
                eta = (v1 - v0) / w
                sigma = mpmath.sign(eta) * mpmath.cbrt(abs(eta))

                def fundamental(v):
                    z = (v - e) / sigma**2
                    return mpmath.matrix([
                        [mpmath.airyai(z), mpmath.airybi(z)],
                        [sigma * mpmath.airyai(z, 1), sigma * mpmath.airybi(z, 1)],
                    ])

                # F^-1 from the Wronskian W(Ai, Bi) = 1 / pi, det F = sigma / pi:
                # no pivoting, so Bi >> Ai at large z does not make it singular
                (f11, f12), (f21, f22) = fundamental(v0).tolist()
                inverse = (mpmath.pi / sigma) * mpmath.matrix([[f22, -f12], [-f21, f11]])
                m = fundamental(v1) * inverse
            total = m * total
        return total


def layer_matrices(v_left, v_right, width, energy):
    """Transfer matrices of linear-profile layers, shape (..., 2, 2) for
    edge potentials of shape (...) and widths that broadcast with them
    (floats give one (2, 2) matrix): structure_matrices over a one-layer
    axis, which multiplies nothing."""
    edges = (np.expand_dims(np.asarray(x, dtype=float), -1) for x in (v_left, v_right, width))
    return structure_matrices(*edges, energy)


def structure_matrix(layers, energy):
    """The (2, 2) right-to-left product over a list of (v_left, v_right,
    width) layers, as `realize` lists them."""
    v_left, v_right, widths = zip(*layers)
    return structure_matrices([v_left], [v_right], widths, energy)[0]


def richardson_limit(stack: StructureSpec, energy: float = 0.1) -> np.ndarray:
    """The zero-thickness limit of the exact stack's transfer matrix,
    2 Lambda(5e-5) - Lambda(1e-4), Lambda(eps) the matrix of the stack
    realized at eps: the O(eps) error (where the energy enters) cancels.
    Below eps ~ 1e-6, round-off in Lambda21 = M21 / eps takes over."""
    biases = [[layer.b for layer in stack.layers]]
    coarse, fine = (
        structure_matrices(*stack_potentials(stack, eps, biases), energy)[0] for eps in (1e-4, 5e-5)
    )
    return 2.0 * fine - coarse


def det(m):
    """l11 l22 - l12 l21 of (..., 2, 2) matrices, the formula `airystack
    scatter` reports."""
    m = np.asarray(m)
    return m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]


def ode_wronskian_route_matrix(v0, v1, width, energy):
    """Same layer via the generic route M(x1) M(x0)^-1 with non-canonical
    integrated solutions, exercising the Wronskian-ratio construction."""
    eta = (v1 - v0) / width

    def rhs(x, y):
        return [y[1], (v0 + eta * x - energy) * y[0]]

    cols0 = []
    cols1 = []
    for ic in ([1.0, 0.3], [0.2, 1.0]):
        sol = solve_ivp(rhs, (0.0, width), ic, method="DOP853", rtol=1e-12, atol=1e-14)
        assert sol.success
        cols0.append(ic)
        cols1.append([sol.y[0, -1], sol.y[1, -1]])
    m0 = np.array(cols0).T
    m1 = np.array(cols1).T
    return m1 @ np.linalg.inv(m0)


def rect_barrier_transmission(v, width, energy):
    """Closed-form flat-barrier transmission for zero leads, E < v."""
    import math

    k2 = energy
    q2 = v - energy
    k = math.sqrt(k2)
    q = math.sqrt(q2)
    s = math.sinh(q * width)
    return 1.0 / (1.0 + ((k2 + q2) ** 2 / (4.0 * k2 * q2)) * s * s)


def limit_transmission_closed_form(theta, alpha, k, k_right):
    """The paper's transmission through a lower-triangular limit matrix
    diag(theta, 1/theta) with off-diagonal strength alpha, between leads of
    wavenumbers k and k_right; theta = 1 is the delta formula."""
    return 4.0 * k * k_right / ((k / theta + k_right * theta) ** 2 + alpha * alpha)


# --- single-layer asymptotic forms of the transfer matrix ---------------------


class AsymptoticRegime(Enum):
    SMALL_Z = "SMALL_Z"
    LARGE_Z_OSC = "LARGE_Z_OSC"
    LARGE_Z_EXP = "LARGE_Z_EXP"
    K_FORM = "K_FORM"


@dataclass(frozen=True)
class AsymptoticMatrix:
    matrix: np.ndarray  # (2, 2)
    regime: AsymptoticRegime
    chi: float


def lambda_small_z(z0: float, z1: float, sigma: float) -> AsymptoticMatrix:
    """Leading transfer matrix for both Airy arguments near zero."""
    m = np.array([[1.0 - 0.5 * z0 * z0 * z1, (z1 - z0) / sigma],
                  [0.5 * sigma * (z1 * z1 - z0 * z0), 1.0 - 0.5 * z0 * z1 * z1]])
    return AsymptoticMatrix(m, AsymptoticRegime.SMALL_Z, 0.0)


def lambda_large_z(z0: float, z1: float, sigma: float) -> AsymptoticMatrix:
    """Large-|z| transfer matrix: oscillatory for negative arguments,
    exponential for positive.  Mixed signs have no single-phase form."""
    if abs(z0) <= 1.0 or abs(z1) <= 1.0:
        raise ValueError("lambda_large_z needs |z0|, |z1| > 1")
    if (z0 > 0) != (z1 > 0):
        raise ValueError("lambda_large_z needs z0, z1 of the same sign")
    if z0 < 0:
        a = (-z0) ** 0.25
        b = (-z1) ** 0.25
        chi = (2.0 / 3.0) * ((-z1) ** 1.5 - (-z0) ** 1.5)
        c, s = math.cos(chi), math.sin(chi)
        ab = a * b
        l21 = (sigma / (ab * ab)) * (
            (ab**3 + 1.0 / (16.0 * ab**3)) * s + 0.25 * ((a / b) ** 3 - (b / a) ** 3) * c
        )
        m = np.array([[(a / b) * c - s / (4.0 * z0 * ab), -s / (sigma * ab)],
                      [l21, (b / a) * c + s / (4.0 * z1 * ab)]])
        return AsymptoticMatrix(m, AsymptoticRegime.LARGE_Z_OSC, chi)
    p = z0**0.25
    q = z1**0.25
    chi = (2.0 / 3.0) * (z1**1.5 - z0**1.5)
    ch, sh = math.cosh(chi), math.sinh(chi)
    pq = p * q
    l21 = (sigma / (pq * pq)) * (
        (pq**3 - 1.0 / (16.0 * pq**3)) * sh + 0.25 * ((q / p) ** 3 - (p / q) ** 3) * ch
    )
    m = np.array([[(p / q) * ch + sh / (4.0 * z0 * pq), sh / (sigma * pq)],
                  [l21, (q / p) * ch - sh / (4.0 * z1 * pq)]])
    return AsymptoticMatrix(m, AsymptoticRegime.LARGE_Z_EXP, chi)


def lambda_k_form(k0_sq: float, k1_sq: float, width: float) -> AsymptoticMatrix:
    """Large-|z| matrix in terms of the (signed) squared edge wavenumbers.

    Arguments are k^2 = E - V at the two edges, so both-negative values
    select the evanescent branch.  The diagonal cosines take the averaged
    argument k10 * width; with that reading det = 1 holds identically and
    the equal-wavenumber case reduces to the flat-layer matrix.
    """
    if k0_sq == 0.0 or k1_sq == 0.0:
        raise ValueError("grazing energy: k^2 = 0 makes the prefactors singular")
    if (k0_sq > 0) != (k1_sq > 0):
        raise ValueError("lambda_k_form needs k0^2, k1^2 of the same sign")
    if not width > 0:
        raise ValueError("width must be positive")
    k0 = cmath.sqrt(complex(k0_sq))
    k1 = cmath.sqrt(complex(k1_sq))
    k10 = 2.0 * (k0_sq + k1_sq + k0 * k1) / (3.0 * (k0 + k1))
    arg = k10 * width
    c = cmath.cos(arg)
    s = cmath.sin(arg)
    dk = k1_sq - k0_sq
    l11 = cmath.sqrt(k0 / k1) * c + dk / (4.0 * width) * k0**-2.5 * k1**-0.5 * s
    l12 = s / cmath.sqrt(k0 * k1)
    l21 = 3.0 * dk**2 * k10 / (8.0 * width * (k0 * k1) ** 2.5) * c - cmath.sqrt(k0 * k1) * (
        1.0 + (dk / (4.0 * width)) ** 2 / (k0 * k1) ** 3
    ) * s
    l22 = cmath.sqrt(k1 / k0) * c + (-dk) / (4.0 * width) * k0**-0.5 * k1**-2.5 * s
    vals = (l11, l12, l21, l22)
    scale = max(abs(v) for v in vals)
    if max(abs(v.imag) for v in vals) > 1e-9 * scale:
        raise ValueError("k-form produced a non-real matrix; arguments out of range")
    m = np.array([[l11.real, l12.real], [l21.real, l22.real]])
    chi = arg.real if k0_sq > 0 else arg.imag
    return AsymptoticMatrix(m, AsymptoticRegime.K_FORM, chi)


def transistor_coefficients(stack: StructureSpec) -> tuple[float, ...]:
    """(a1, a3, d1, d2, d3) of a transistor stack: emitter barrier, base,
    collector barrier."""
    emitter, base, collector = stack.layers
    return emitter.a, collector.a, emitter.d, base.d, collector.d


def transistor_resonance_residual_product_form(
    stack: StructureSpec, v_eb: float
) -> tuple[float, float]:
    """The transistor delta-prime condition in its three-term product form
    (independent coding):
    (q1 q3 / k2) T1 T2 T3 + q1 T1 + q3 T3 - k2 T2 with T2 = tan(k2 d2)."""
    a1, a3, d1, d2, d3 = transistor_coefficients(stack)
    if not 0.0 < v_eb < a3:
        raise ValueError("v_eb must lie strictly inside (0, a3)")
    q1 = math.sqrt(a1)
    q3 = math.sqrt(a3 - v_eb)
    k2 = math.sqrt(v_eb)
    t1 = math.tanh(q1 * d1)
    t3 = math.tanh(q3 * d3)
    t2 = math.tan(k2 * d2)
    terms = ((q1 * q3 / k2) * t1 * t2 * t3, q1 * t1, q3 * t3, -k2 * t2)
    return math.fsum(terms), sum(abs(t) for t in terms)


def transistor_theta_representations(
    stack: StructureSpec, v_eb: float
) -> tuple[float, float, float, float]:
    """The four equivalent expressions (I1, I2, 1/J1, 1/J2) for theta_n of
    the transistor delta-prime limit.

    Equality of all four is itself the resonance condition, so their
    spread checks a supplied root independently of the residual that
    found it.
    """
    a1, a3, d1, d2, d3 = transistor_coefficients(stack)
    q1 = math.sqrt(a1)
    q3 = math.sqrt(a3 - v_eb)
    k2 = math.sqrt(v_eb)
    c1h, s1h = math.cosh(q1 * d1), math.sinh(q1 * d1)
    c3h, s3h = math.cosh(q3 * d3), math.sinh(q3 * d3)
    c2, s2 = math.cos(k2 * d2), math.sin(k2 * d2)
    i1 = (c1h * c2 + (q1 / k2) * s1h * s2) / c3h
    i2 = (k2 * c1h * s2 - q1 * s1h * c2) / (q3 * s3h)
    j1 = (c2 * c3h + (q3 / k2) * s2 * s3h) / c1h
    j2 = (k2 * s2 * c3h - q3 * s3h * c2) / (q1 * s1h)
    return i1, i2, 1.0 / j1, 1.0 / j2


def kappa_tan_math(shifted: float, d: float) -> float:
    """kappa tan(kappa d), continued to -q tanh(q d) on the barrier branch,
    for one float through the math module (reference for the array code)."""
    if shifted < 0.0:
        kap = math.sqrt(-shifted)
        return kap * math.tan(kap * d)
    if shifted > 0.0:
        q = math.sqrt(shifted)
        return -q * math.tanh(q * d)
    return 0.0


def two_layer_resonance_residual_math(shifted1, shifted2, d1, d2) -> tuple[float, float]:
    """Two-layer delta-prime residual and scale of one point in math floats."""
    t1 = kappa_tan_math(shifted1, d1)
    t2 = kappa_tan_math(shifted2, d2)
    return t1 + t2, abs(t1) + abs(t2)


def transistor_resonance_residual_math(stack: StructureSpec, v_eb: float) -> tuple[float, float]:
    """Explicit-form transistor delta-prime residual and scale of one point
    in math floats."""
    a1, a3, d1, d2, d3 = transistor_coefficients(stack)
    if not 0.0 < v_eb < a3:
        raise ValueError("v_eb must lie strictly inside (0, a3)")
    r1 = math.sqrt(a1 / v_eb)
    r3 = math.sqrt(a3 / v_eb - 1.0)
    t1 = math.tanh(math.sqrt(a1) * d1)
    t3 = math.tanh(math.sqrt(a3 - v_eb) * d3)
    lhs = r1 * t1 + r3 * t3
    rhs = (1.0 - r1 * r3 * t1 * t3) * math.tan(math.sqrt(v_eb) * d2)
    return lhs - rhs, abs(lhs) + abs(rhs)


def mp_kappa_tan(shifted, d):
    """kappa tan(kappa d), continued to -q tanh(q d) on the barrier branch,
    in mpmath at the working precision."""
    if shifted < 0:
        kap = mpmath.sqrt(-shifted)
        return kap * mpmath.tan(kap * d)
    q = mpmath.sqrt(shifted)
    return -q * mpmath.tanh(q * d)


def mp_two_layer_residual(a1, a2, d1, d2):
    """The EQ69 residual of the tuned bias b1 in mpmath at the working
    precision: b1 -> (kappa1 tan(kappa1 d1) + kappa2 tan(kappa2 d2), sum of
    the terms' moduli), with shifted coefficients a1 and a2 + b1."""

    def residual(b1):
        t1, t2 = mp_kappa_tan(mpmath.mpf(a1), d1), mp_kappa_tan(a2 + b1, d2)
        return t1 + t2, abs(t1) + abs(t2)

    return residual


def mp_transistor_residual(stack: StructureSpec):
    """The EQ83 residual of the emitter voltage V of a transistor stack in
    mpmath at the working precision, in the explicit form of
    limits.transistor_resonance_residual: V -> (lhs - rhs, |lhs| + |rhs|)."""
    a1, a3, d1, d2, d3 = transistor_coefficients(stack)

    def residual(v):
        r1 = mpmath.sqrt(a1 / v)
        r3 = mpmath.sqrt(a3 / v - 1)
        t1 = mpmath.tanh(mpmath.sqrt(a1) * d1)
        t3 = mpmath.tanh(mpmath.sqrt(a3 - v) * d3)
        lhs = r1 * t1 + r3 * t3
        rhs = (1 - r1 * r3 * t1 * t3) * mpmath.tan(mpmath.sqrt(v) * d2)
        return lhs - rhs, abs(lhs) + abs(rhs)

    return residual


def mp_root(residual, x: float, dps: int = 50):
    """The root of residual(t)[0] that mpmath.findroot reaches from x in
    dps-digit arithmetic (an mpf), and its condition scale / |root f'(root)|
    as a float, scale being residual(root)[1]."""
    with mpmath.workdps(dps):
        root = mpmath.findroot(lambda t: residual(t)[0], mpmath.mpf(x))
        slope = mpmath.diff(lambda t: residual(t)[0], root)
        return root, float(residual(root)[1] / abs(root * slope))


def _prufer_step(theta: float, q0: float, d: float) -> float:
    """The Prufer angle theta (tan theta = psi / psi', continuous) at the
    right edge of a flat layer psi'' = q0 psi of width d, from its value at
    the left edge, in closed form.

    In a well (q0 = -k^2) the angle alpha, tan alpha = k tan theta, turns by
    exactly k d, and alpha and theta pass each multiple of pi / 2 together.
    In a barrier (q0 = q^2) or a flat layer, theta' = cos^2 - q0 sin^2
    vanishes at j pi -+ beta, beta = atan(1 / q) (pi / 2 at q = 0), so theta
    never leaves the interval (j pi - beta, (j + 1) pi - beta] it starts in;
    its value there follows from (psi, psi') at the right edge."""
    n = math.floor(theta / math.pi + 0.5)
    if q0 < 0.0:
        k = math.sqrt(-q0)
        alpha = n * math.pi + math.atan(k * math.tan(theta - n * math.pi)) + k * d
        m = math.floor(alpha / math.pi + 0.5)
        return m * math.pi + math.atan(math.tan(alpha - m * math.pi) / k)
    q = math.sqrt(q0)
    beta = math.atan(1.0 / q) if q > 0.0 else 0.5 * math.pi
    low = (math.ceil((theta + beta) / math.pi) - 1) * math.pi - beta
    c, s = (math.cosh(q * d), math.sinh(q * d) / q) if q > 0.0 else (1.0, d)
    sin, cos = math.sin(theta), math.cos(theta)
    base = math.atan2(c * sin + s * cos, q0 * s * sin + c * cos)
    return base + math.pi * (math.floor((low - base) / math.pi) + 1)


def prufer_count(q0s, ds, lo: float, hi: float) -> int:
    """The number of zeros of (Pi M0)21 for v in (lo, hi), counted by the
    Prufer angle (H. Prufer, Math. Ann. 95, 1926).

    M0 is the right-to-left product of the flat-layer matrices of
    psi'' = q0 psi, layer i of width ds[i] with q0 = q0s(v)[i].  The first
    column of Pi M0 is (psi, psi') at the far edge for psi = 1, psi' = 0 at
    the near one, so (Pi M0)21 = 0 where theta = pi / 2 + m pi there.  When
    every q0 moves the same way with v (or not at all), Sturm theory makes
    theta at the far edge monotone in v, so the count is the number of
    those values between its ends.  Independent of the package."""

    def turns(v):
        theta = 0.5 * math.pi
        for q0, d in zip(q0s(v), ds):
            theta = _prufer_step(theta, q0, d)
        return math.floor((theta - 0.5 * math.pi) / math.pi)

    return abs(turns(hi) - turns(lo))


def scan_and_bisect_one_at_a_time(f, lo, hi, poles=()):
    """The pole-split scan and bisection of resonance.scan_and_bisect, one
    point and one bracket at a time: f takes one float.  The reference the
    batched scanner must match bit for bit."""
    if not hi > lo:
        return []
    step = (hi - lo) / SCAN_STEPS
    margin = 1e-10 * (hi - lo)
    cuts = sorted(p for p in poles if lo < p < hi)
    edges = [lo]
    for p in cuts:
        edges.extend((p - margin, p + margin))
    edges.append(hi)
    roots = []
    for a, b in zip(edges[::2], edges[1::2]):
        if not b > a:
            continue
        m = max(2, int(math.ceil((b - a) / step)) + 1)
        xs = [a + (b - a) * i / (m - 1) for i in range(m)]
        fs = [f(x) for x in xs]
        for i in range(m - 1):
            f0, f1 = fs[i], fs[i + 1]
            if f0 == 0.0:
                roots.append(xs[i])
                continue
            if f0 < 0.0 < f1 or f1 < 0.0 < f0:
                x0, x1 = xs[i], xs[i + 1]
                for _ in range(MAX_STEPS):
                    mid = 0.5 * (x0 + x1)
                    fm = f(mid)
                    if fm == 0.0:
                        x0 = x1 = mid
                        break
                    if f0 < 0.0 < fm or fm < 0.0 < f0:
                        x1 = mid
                    else:
                        x0, f0 = mid, fm
                    if (x1 - x0) <= ROOT_REL_TOL * max(abs(x0), abs(x1)):
                        break
                roots.append(0.5 * (x0 + x1))
        if fs[-1] == 0.0:
            roots.append(xs[-1])
    return sorted(set(roots))


def random_two_layer_device(rng) -> tuple[float, float, float, float]:
    """(a1, d1, a2, d2) of a barrier-well device, drawn as C11 draws them."""
    return (
        rng.uniform(0.2, 2.0), rng.uniform(0.5, 3.0), rng.uniform(-1.0, 0.5), rng.uniform(3.0, 12.0)
    )


def random_transistor_device(rng) -> tuple[float, ...]:
    """(a1, a3, d1, d2, d3, v_cb) of a transistor, drawn as C11 draws them."""
    a1, a3 = rng.uniform(0.5, 2.5), rng.uniform(0.5, 2.5)
    d1, d3 = rng.uniform(0.5, 3.0), rng.uniform(0.5, 3.0)
    return a1, a3, d1, rng.uniform(4.0, 12.0), d3, rng.uniform(0.0, 0.8)


def barrier_well_stack(a1, d1, a2, d2, b2=0.0, v_left=0.0, v_right=None):
    """Barrier a1/d1 then well a2/d2 with bias b2, as a resonance finder takes
    it: the finder tunes layer 0's bias and sets the squeeze powers."""
    layers = (LayerSpec(a1, 0.0, d1, 1.0, 1.0), LayerSpec(a2, b2, d2, 2.0, 1.0))
    return StructureSpec(layers, v_left, v_right)


def transistor_stack(a1, a3, d1, d2, d3, v_cb, v_left=0.0, v_right=None):
    """Barrier a1/d1, flat unbiased base d2, barrier a3/d3 biased by -v_cb."""
    layers = (
        LayerSpec(a1, 0.0, d1, 1.0, 1.0),
        LayerSpec(0.0, 0.0, d2, 2.0, 0.0),
        LayerSpec(a3, -v_cb, d3, 1.0, 1.0),
    )
    return StructureSpec(layers, v_left, v_right)


def mixed_stack() -> tuple[StructureSpec, float, int]:
    """A swept device, its energy and its tuned layer, whose Airy arguments
    cover every evaluation case.  At eps = 1 every fixed tilted layer has
    unit slope (sigma = 1), so the arguments before the tuned layer are
    exact; the last layer's arguments move with the tuned bias through all
    three regimes while the leads propagate (tuned bias below -3)."""
    layers = (
        LayerSpec(13.0, 1.0, 1.0, 0.0, 0.0),  # z = 12 -> 13: exactly on SERIES_RADIUS
        LayerSpec(2.25, 1.0, 1.0, 0.0, 0.0),  # z = 2.25 -> 3.25: ties k/2 + 1/4
        LayerSpec(-1.5, 0.0, 0.7, 0.0, 0.0),  # flat well (degenerate slope): cos
        LayerSpec(0.5, 0.0, 0.3, 0.0, 0.0),  # flat barrier (degenerate slope): cosh
        LayerSpec(-16.0, 1.0, 1.0, 0.0, 0.0),  # z = -15 -> -14: oscillatory expansion
        LayerSpec(4.0, 0.0, 0.8, 0.0, 0.0),  # tuned; its bias moves the right lead
        LayerSpec(18.0, 1.0, 1.0, 0.0, 0.0),  # z = 21 + tuned bias
    )
    return StructureSpec(layers), 1.0, 5


def random_superlattice(rng) -> tuple[StructureSpec, float]:
    """A biased superlattice and its energy in nm^-2: 16-24 layers, barriers
    of 0.2-0.5 eV and 1-3 nm alternating with flat-bottom wells of 3-8 nm,
    all tilted by one field of 4-11 meV/nm, powers (0, 0) so that eps = 1
    is the device itself."""
    field = rng.uniform(0.004, 0.011)
    layers = []
    for i in range(int(rng.integers(16, 25))):
        if i % 2 == 0:
            a, d = rng.uniform(0.2, 0.5), rng.uniform(1.0, 3.0)
        else:
            a, d = 0.0, rng.uniform(3.0, 8.0)
        layers.append(LayerSpec(a * EV_TO_INVNM2, -field * d * EV_TO_INVNM2, d, 0.0, 0.0))
    return StructureSpec(tuple(layers)), rng.uniform(0.05, 0.2) * EV_TO_INVNM2


def stack_pool() -> list[DeviceConfig]:
    """The 48 devices of the `stack` benchmark pool, read only from
    perfbench/reference/stack.json.gz and loaded as the CLI loads a config:
    biased superlattices with powers (0, 0), each with its sweep."""
    root = pathlib.Path(__file__).resolve().parent.parent
    with gzip.open(root / "perfbench" / "reference" / "stack.json.gz", "rt") as fh:
        devices = json.load(fh)["devices"]
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "device.json"
        configs = []
        for device in devices:
            path.write_text(json.dumps(device["config"]))
            configs.append(load_config(str(path)))
    return configs


def refinement_cost(monkeypatch, module) -> list[int]:
    """[calls, points]: the calls of f that lockstep refinement makes through
    module.refine from here on, and the points they evaluate, counted by
    wrapping it for the rest of the test."""
    cost, refine = [0, 0], module.refine

    def counting(f, brackets, plan):
        def counted(x):
            cost[0] += 1
            cost[1] += x.size
            return f(x)

        refine(counted, brackets, plan)

    monkeypatch.setattr(module, "refine", counting)
    return cost


def golden_max_per_bracket(f, lo: float, hi: float, rel_tol: float) -> float:
    """Golden-section maximum of a scalar f on one bracket, one step and one
    call of f at a time: the reference for the batched refinement of all
    brackets."""
    g = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - g * (b - a)
    d = a + g * (b - a)
    fc, fd = f(c), f(d)
    tol = rel_tol * max(1.0, abs(lo), abs(hi))
    while (b - a) > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - g * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + g * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def s_matrix(result: ScatteringResult) -> np.ndarray:
    """Unitary 2x2 scattering matrix built from the flux-normalized amplitudes."""
    root = cmath.sqrt(result.k_left / result.k_right)
    return np.array(
        [
            [result.r_left, root * result.t_right],
            [result.t_left / root, result.r_right],
        ],
        dtype=complex,
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20260811)
