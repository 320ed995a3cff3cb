"""Closed-form squeezed limits: asymptotic matrices and point-interaction classes.

Covers the single-layer asymptotic representations of the transfer matrix
(small-argument, large-argument oscillatory/exponential, and the
wavenumber form), the zero-thickness classifications reachable on the
power plane (transparent, delta, delta-prime family, resonant delta,
opaque wall), and the two-layer / three-layer (transistor) limit models
with their bias-controlled resonance sets.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

from .errors import NoClosedFormLimitError, NotAResonanceRootError
from .potential import POWER_TOL, LayerSpec, RegionClass, StructureSpec, classify_region
from .transfer import TransferMatrix

__all__ = [
    "AsymptoticRegime",
    "AsymptoticMatrix",
    "lambda_small_z",
    "lambda_large_z",
    "lambda_k_form",
    "LimitKind",
    "LimitClassification",
    "single_layer_limit",
    "delta_transmission",
    "limit_transmission_on_resonance",
    "TwoLayerMode",
    "two_layer_limit_matrices",
    "TransistorSpec",
    "transistor_delta_limit",
    "transistor_deltaprime_limit",
    "two_layer_resonance_residual",
    "transistor_resonance_residual",
    "transistor_theta_representations",
    "transistor_offdiag_strength",
    "RESIDUAL_RTOL",
]

# A candidate counts as a resonance root when its scaled residual is below
# this; the four theta representations then agree to ~1e-7.
RESIDUAL_RTOL = 1e-9

# Resonant depths a (2, 1) well's classification lists, n = 1 .. N_DEPTHS.
N_DEPTHS = 5


class AsymptoticRegime(Enum):
    SMALL_Z = "SMALL_Z"
    LARGE_Z_OSC = "LARGE_Z_OSC"
    LARGE_Z_EXP = "LARGE_Z_EXP"
    K_FORM = "K_FORM"


@dataclass(frozen=True)
class AsymptoticMatrix:
    matrix: TransferMatrix
    regime: AsymptoticRegime
    chi: float


def lambda_small_z(z0: float, z1: float, sigma: float) -> AsymptoticMatrix:
    """Leading transfer matrix for both Airy arguments near zero."""
    m = TransferMatrix(
        1.0 - 0.5 * z0 * z0 * z1,
        (z1 - z0) / sigma,
        0.5 * sigma * (z1 * z1 - z0 * z0),
        1.0 - 0.5 * z0 * z1 * z1,
    )
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
        m = TransferMatrix(
            (a / b) * c - s / (4.0 * z0 * ab),
            -s / (sigma * ab),
            (sigma / (ab * ab))
            * ((ab**3 + 1.0 / (16.0 * ab**3)) * s + 0.25 * ((a / b) ** 3 - (b / a) ** 3) * c),
            (b / a) * c + s / (4.0 * z1 * ab),
        )
        return AsymptoticMatrix(m, AsymptoticRegime.LARGE_Z_OSC, chi)
    p = z0**0.25
    q = z1**0.25
    chi = (2.0 / 3.0) * (z1**1.5 - z0**1.5)
    ch, sh = math.cosh(chi), math.sinh(chi)
    pq = p * q
    m = TransferMatrix(
        (p / q) * ch + sh / (4.0 * z0 * pq),
        sh / (sigma * pq),
        (sigma / (pq * pq))
        * ((pq**3 - 1.0 / (16.0 * pq**3)) * sh + 0.25 * ((q / p) ** 3 - (p / q) ** 3) * ch),
        (q / p) * ch - sh / (4.0 * z1 * pq),
    )
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
    m = TransferMatrix(l11.real, l12.real, l21.real, l22.real)
    chi = arg.real if k0_sq > 0 else arg.imag
    return AsymptoticMatrix(m, AsymptoticRegime.K_FORM, chi)


class LimitKind(Enum):
    TRANSPARENT = "TRANSPARENT"
    DELTA = "DELTA"
    DELTA_PRIME_FAMILY = "DELTA_PRIME_FAMILY"
    RESONANT_DELTA = "RESONANT_DELTA"
    OPAQUE_WALL = "OPAQUE_WALL"


@dataclass(frozen=True)
class LimitClassification:
    """Zero-thickness limit of a squeezed structure.

    DELTA carries alpha; DELTA_PRIME_FAMILY carries theta != 0 and alpha;
    RESONANT_DELTA carries the parity sign (-1)^n and alpha; OPAQUE_WALL
    has no connection matrix (two-sided Dirichlet wall).
    """

    kind: LimitKind
    alpha: float | None = None
    theta: float | None = None
    sign: int | None = None
    n: int | None = None
    resonance_depths: tuple[float, ...] = ()
    warnings: tuple[str, ...] = ()

    def matrix(self) -> TransferMatrix | None:
        if self.kind is LimitKind.TRANSPARENT:
            return TransferMatrix.identity()
        if self.kind is LimitKind.DELTA:
            return TransferMatrix(1.0, 0.0, self.alpha, 1.0)
        if self.kind is LimitKind.DELTA_PRIME_FAMILY:
            return TransferMatrix(self.theta, 0.0, self.alpha, 1.0 / self.theta)
        if self.kind is LimitKind.RESONANT_DELTA:
            if self.sign is None:
                # resonant family described, but the given depth/bias is off
                # the discrete set: the limit there is the opaque wall
                return None
            s = float(self.sign)
            return TransferMatrix(s, 0.0, s * self.alpha, s)
        return None


def delta_transmission(alpha: float, k: float, k_right: float) -> float:
    """Transmission probability through a delta point with unequal leads."""
    return limit_transmission_on_resonance(1.0, alpha, k, k_right)


def limit_transmission_on_resonance(
    theta: float, alpha: float, k: float, k_right: float
) -> float:
    """Transmission through a lower-triangular limit matrix diag(theta, 1/theta)
    with off-diagonal strength alpha; theta = 1 recovers the delta formula."""
    if theta == 0.0:
        raise ValueError("theta must be nonzero")
    return 4.0 * k * k_right / ((k / theta + k_right * theta) ** 2 + alpha * alpha)


def single_layer_limit(layer: LayerSpec) -> LimitClassification:
    """Zero-thickness limit of one squeezed layer.

    Supported squeezes: the shrinking-argument triangle and its boundary
    lines (transparent below mu = 1, delta at mu = 1, wall above) and the
    (2, 1) point, where a well becomes resonant at the discrete depth set
    -(n pi / d)^2 and a barrier becomes an opaque wall.
    """
    region = classify_region(layer.mu, layer.nu)
    if region is RegionClass.P21:
        if layer.a > 0.0:
            return LimitClassification(LimitKind.OPAQUE_WALL)
        if layer.a == 0.0:
            return LimitClassification(LimitKind.TRANSPARENT)
        depths = tuple(-((n * math.pi / layer.d) ** 2) for n in range(1, N_DEPTHS + 1))
        kap_d = math.sqrt(-layer.a) * layer.d
        n = round(kap_d / math.pi)
        on_set = n >= 1 and abs(kap_d - n * math.pi) <= 1e-9 * max(1.0, kap_d)
        # a well is classified by its resonant family; sign/n attach only
        # when the depth itself lies on the discrete set
        return LimitClassification(
            LimitKind.RESONANT_DELTA,
            alpha=0.0,
            sign=(-1) ** n if on_set else None,
            n=n if on_set else None,
            resonance_depths=depths,
        )
    if region not in (RegionClass.P11, RegionClass.L0_1, RegionClass.L0_2, RegionClass.S0):
        raise NoClosedFormLimitError(
            f"no closed-form zero-thickness limit for (mu, nu) = "
            f"({layer.mu!r}, {layer.nu!r}) [region {region.value}]"
        )
    if layer.mu < 1.0 - POWER_TOL:
        return LimitClassification(LimitKind.TRANSPARENT)
    if abs(layer.mu - 1.0) > POWER_TOL:
        return LimitClassification(LimitKind.OPAQUE_WALL)
    # The bias adds b/2 to the strength only when it diverges at the same
    # rate as the edge value (nu = mu = 1); slower-diverging bias
    # contributes nothing in the limit.
    bias_term = 0.5 * layer.b if abs(layer.nu - 1.0) <= POWER_TOL else 0.0
    return LimitClassification(LimitKind.DELTA, alpha=(layer.a + bias_term) * layer.d)


def _admissibility_warnings(name: str, value: float, lo: float, hi: float) -> tuple[str, ...]:
    """A warning unless lo < value < hi, the range of the tuned bias in
    which every barrier edge potential of the device stays positive."""
    if lo < value < hi:
        return ()
    return (
        f"{name} = {value!r} outside the admissible interval ({lo!r}, {hi!r}); "
        "a barrier edge potential is not positive",
    )


# --- two-layer limits -----------------------------------------------------


class TwoLayerMode(Enum):
    DELTA_PRIME = "DELTA_PRIME"
    RESONANT_DELTA = "RESONANT_DELTA"


def _kappa_tan(shifted: float, d: float) -> float:
    """kappa * tan(kappa * d) continued to the barrier branch.

    For a well (shifted < 0) kappa is real; for a barrier the analytic
    continuation gives -sqrt(shifted) * tanh(sqrt(shifted) d)."""
    if shifted < 0.0:
        kap = math.sqrt(-shifted)
        return kap * math.tan(kap * d)
    if shifted > 0.0:
        q = math.sqrt(shifted)
        return -q * math.tanh(q * d)
    return 0.0


def two_layer_resonance_residual(
    shifted1: float, shifted2: float, d1: float, d2: float
) -> tuple[float, float]:
    """Residual and scale of the two-layer diagonal-limit condition.

    The divergent off-diagonal term of the squeezed product vanishes iff
    kappa1 tan(kappa1 d1) + kappa2 tan(kappa2 d2) = 0 (barrier branches
    continued via tanh); returns (residual, sum of |terms|)."""
    t1 = _kappa_tan(shifted1, d1)
    t2 = _kappa_tan(shifted2, d2)
    return t1 + t2, abs(t1) + abs(t2)


def _cos_branch(shifted: float, d: float) -> float:
    """cos(kappa d) continued to the barrier branch (cosh)."""
    if shifted < 0.0:
        return math.cos(math.sqrt(-shifted) * d)
    return math.cosh(math.sqrt(shifted) * d)


def two_layer_limit_matrices(
    spec: StructureSpec, mode: TwoLayerMode
) -> LimitClassification:
    """Squeezed limit of a two-layer stack at the supported power pairs.

    DELTA_PRIME evaluates the stack at (2,1)+(2,1): on the resonance set
    the limit is diag-dominant with theta != 1; RESONANT_DELTA evaluates
    (1,1)+(2,1): on the set the limit is a parity-signed delta.  Anywhere
    off the resonance set the classification is OPAQUE_WALL.  A first
    layer whose right edge a1 + b1 is not positive is reported as a
    warning, not an error.
    """
    if len(spec.layers) != 2:
        raise ValueError("two_layer_limit_matrices needs exactly 2 layers")
    l1, l2 = spec.layers
    warnings = _admissibility_warnings("-b1", -l1.b, -math.inf, l1.a)

    def powers_are(la, mu, nu):
        return abs(la.mu - mu) <= POWER_TOL and abs(la.nu - nu) <= POWER_TOL

    if mode is TwoLayerMode.RESONANT_DELTA:
        if not (powers_are(l1, 1, 1) and powers_are(l2, 2, 1)):
            raise ValueError("RESONANT_DELTA mode needs powers (1,1) + (2,1)")
        shifted2 = l2.a + l1.b
        if shifted2 > 0.0:
            return LimitClassification(LimitKind.OPAQUE_WALL, warnings=warnings)
        kap_d = math.sqrt(-shifted2) * l2.d
        n = round(kap_d / math.pi)
        if abs(kap_d - n * math.pi) > 1e-9 * max(1.0, kap_d):
            return LimitClassification(LimitKind.OPAQUE_WALL, warnings=warnings)
        alpha = (l1.a + 0.5 * l1.b) * l1.d
        return LimitClassification(
            LimitKind.RESONANT_DELTA, alpha=alpha, sign=(-1) ** n, n=n, warnings=warnings
        )

    if not (powers_are(l1, 2, 1) and powers_are(l2, 2, 1)):
        raise ValueError("DELTA_PRIME mode needs powers (2,1) + (2,1)")
    shifted1 = l1.a
    shifted2 = l2.a + l1.b
    residual, scale = two_layer_resonance_residual(shifted1, shifted2, l1.d, l2.d)
    if abs(residual) > RESIDUAL_RTOL * max(scale, 1e-300):
        return LimitClassification(LimitKind.OPAQUE_WALL, warnings=warnings)
    theta = _cos_branch(shifted1, l1.d) / _cos_branch(shifted2, l2.d)
    # every branch combination through the complex tilt coefficients
    k1c = cmath.sqrt(complex(-shifted1))
    k2c = cmath.sqrt(complex(-shifted2))
    g1 = l1.b / (4.0 * k1c**3 * l1.d)
    g2 = l2.b / (4.0 * k2c**3 * l2.d)
    val = (k2c * g1 - k1c * g2) * cmath.sin(k1c * l1.d) * cmath.sin(k2c * l2.d)
    return LimitClassification(
        LimitKind.DELTA_PRIME_FAMILY, alpha=val.real, theta=theta, warnings=warnings
    )


# --- transistor (three-layer) limits ---------------------------------------


@dataclass(frozen=True)
class TransistorSpec:
    """Double-barrier stack: barrier a1/d1, flat base d2, barrier a3/d3.

    The base coefficient is zero and carries no tilt; the two external
    voltages enter as bias b1 = -v_eb and b3 = -v_cb.
    """

    a1: float
    a3: float
    d1: float
    d2: float
    d3: float

    def __post_init__(self):
        if not (self.a1 > 0 and self.a3 > 0):
            raise ValueError("barrier coefficients a1, a3 must be positive")
        if not (self.d1 > 0 and self.d2 > 0 and self.d3 > 0):
            raise ValueError("layer widths must be positive")


def transistor_delta_limit(
    params: TransistorSpec, v_eb: float, v_cb: float
) -> LimitClassification:
    """Delta-model squeeze of the double barrier (barriers at (1,1)).

    Resonant exactly at v_eb = (n pi / d2)^2: a parity-signed delta whose
    strength sums both barrier contributions; opaque wall elsewhere.
    Admissibility violations are reported as warnings, not errors.
    """
    if v_eb < 0.0:
        raise ValueError("v_eb must be non-negative")
    warnings = _admissibility_warnings("v_eb", v_eb, 0.0, min(params.a1, params.a3 - v_cb))
    x = math.sqrt(v_eb) * params.d2
    n = round(x / math.pi)
    if n < 1 or abs(x - n * math.pi) > 1e-9 * max(1.0, x):
        return LimitClassification(LimitKind.OPAQUE_WALL, warnings=warnings)
    alpha = (params.a1 - 0.5 * v_eb) * params.d1 + (
        params.a3 - v_eb - 0.5 * v_cb
    ) * params.d3
    return LimitClassification(
        LimitKind.RESONANT_DELTA, alpha=alpha, sign=(-1) ** n, n=n, warnings=warnings
    )


def transistor_resonance_residual(
    params: TransistorSpec, v_eb: float
) -> tuple[float, float]:
    """Explicit-form residual of the delta-prime resonance condition.

    sqrt(a1/V) T1 + sqrt(a3/V - 1) T3
        = [1 - sqrt(a1/V) sqrt(a3/V - 1) T1 T3] tan(sqrt(V) d2)
    with T1 = tanh(sqrt(a1) d1), T3 = tanh(sqrt(a3 - V) d3).
    Returns (lhs - rhs, |lhs| + |rhs|); domain 0 < V < a3.
    """
    if not 0.0 < v_eb < params.a3:
        raise ValueError("v_eb must lie strictly inside (0, a3)")
    r1 = math.sqrt(params.a1 / v_eb)
    r3 = math.sqrt(params.a3 / v_eb - 1.0)
    t1 = math.tanh(math.sqrt(params.a1) * params.d1)
    t3 = math.tanh(math.sqrt(params.a3 - v_eb) * params.d3)
    lhs = r1 * t1 + r3 * t3
    rhs = (1.0 - r1 * r3 * t1 * t3) * math.tan(math.sqrt(v_eb) * params.d2)
    return lhs - rhs, abs(lhs) + abs(rhs)


def _transistor_factors(params: TransistorSpec, v_eb: float) -> tuple[float, ...]:
    """q1, q3, k2 and cosh/sinh(q1 d1), cosh/sinh(q3 d3), cos/sin(k2 d2)."""
    q1 = math.sqrt(params.a1)
    q3 = math.sqrt(params.a3 - v_eb)
    k2 = math.sqrt(v_eb)
    return (
        q1, q3, k2,
        math.cosh(q1 * params.d1), math.sinh(q1 * params.d1),
        math.cosh(q3 * params.d3), math.sinh(q3 * params.d3),
        math.cos(k2 * params.d2), math.sin(k2 * params.d2),
    )


def transistor_theta_representations(
    params: TransistorSpec, v_eb: float
) -> tuple[float, float, float, float]:
    """The four equivalent expressions (I1, I2, 1/J1, 1/J2) for theta_n.

    Equality of all four is itself the resonance condition, so their
    spread is the acceptance check for a supplied root.
    """
    q1, q3, k2, c1h, s1h, c3h, s3h, c2, s2 = _transistor_factors(params, v_eb)
    i1 = (c1h * c2 + (q1 / k2) * s1h * s2) / c3h
    i2 = (k2 * c1h * s2 - q1 * s1h * c2) / (q3 * s3h)
    j1 = (c2 * c3h + (q3 / k2) * s2 * s3h) / c1h
    j2 = (k2 * s2 * c3h - q3 * s3h * c2) / (q1 * s1h)
    return i1, i2, 1.0 / j1, 1.0 / j2


def transistor_offdiag_strength(
    params: TransistorSpec, v_eb: float, v_cb: float
) -> float:
    """Off-diagonal element alpha_n of the delta-prime transistor limit
    (grouped form: each barrier tilt weighted by the opposite-side factors)."""
    q1, q3, k2, c1h, s1h, c3h, s3h, c2, s2 = _transistor_factors(params, v_eb)
    return params.a1**-1.5 * (v_eb / (4.0 * params.d1)) * s1h * (
        k2 * c3h * s2 - q3 * s3h * c2
    ) - (params.a3 - v_eb) ** -1.5 * (v_cb / (4.0 * params.d3)) * s3h * (
        k2 * c1h * s2 - q1 * s1h * c2
    )


def transistor_deltaprime_limit(
    params: TransistorSpec, v_eb_root: float, v_cb: float
) -> LimitClassification:
    """Delta-prime-model squeeze of the double barrier (all mu = 2).

    v_eb_root must already satisfy the resonance condition (scaled
    residual below RESIDUAL_RTOL); the four theta representations are
    cross-validated to 1e-7 before anything is returned.
    """
    residual, scale = transistor_resonance_residual(params, v_eb_root)
    if abs(residual) > RESIDUAL_RTOL * max(scale, 1e-300):
        raise NotAResonanceRootError(
            f"scaled residual {abs(residual) / max(scale, 1e-300):.3e} too large"
        )
    reps = transistor_theta_representations(params, v_eb_root)
    theta = reps[0]
    spread = max(abs(r - theta) for r in reps[1:])
    if spread > 1e-7 * abs(theta):
        raise NotAResonanceRootError(
            f"theta representations disagree by {spread:.3e} (not a root)"
        )
    alpha = transistor_offdiag_strength(params, v_eb_root, v_cb)
    warnings = _admissibility_warnings("v_eb", v_eb_root, 0.0, min(params.a1, params.a3 - v_cb))
    return LimitClassification(
        LimitKind.DELTA_PRIME_FAMILY, alpha=alpha, theta=theta, warnings=warnings
    )
