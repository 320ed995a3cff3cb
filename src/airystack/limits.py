"""Closed-form squeezed limits: point-interaction classes and resonance sets.

Covers the zero-thickness classifications reachable on the power plane
(transparent, delta, delta-prime family, resonant delta, opaque wall),
and the two-layer / three-layer (transistor) limit models with their
bias-controlled resonance sets.  squeezed_limit(stack) picks the model
from the layers' powers.  The module computes no probability: the T of
a limit matrix is scattering's.  The single-layer asymptotic forms of the
transfer matrix are test oracles (tests/conftest.py), not package code.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import NoClosedFormLimitError
from .potential import POWER_TOL, TEMPLATE_EQUATIONS, LayerSpec, RegionClass, StructureSpec
from .potential import ResonanceEquation, classify_region

__all__ = [
    "LimitKind",
    "LimitClassification",
    "single_layer_limit",
    "squeezed_limit",
    "two_layer_resonance_residual",
    "transistor_resonance_residual",
    "RESIDUAL_RTOL",
]

# A candidate counts as a resonance root when its scaled residual is below
# this.  The residual is the one judge: on the EQ83 roots of the
# `resonances` pool and fig6, the paper's four theta forms (I1, I2, 1/J1,
# 1/J2) of every root it admits agree to 1.2e-9 relative at most.
RESIDUAL_RTOL = 1e-9


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
    RESONANT_DELTA carries n and alpha, signed by the parity (-1)^n; OPAQUE_WALL
    has no connection matrix (two-sided Dirichlet wall).  admissible is
    False when the tuned bias lets a barrier edge potential of the device
    reach zero or below.
    """

    kind: LimitKind
    alpha: float | None = None
    theta: float | None = None
    n: int | None = None
    admissible: bool = True

    def elements(self) -> tuple[tuple[float, float], tuple[float, float]] | None:
        """The connection matrix's rows ((l11, l12), (l21, l22)); None for OPAQUE_WALL."""
        if self.kind is LimitKind.TRANSPARENT:
            return (1.0, 0.0), (0.0, 1.0)
        if self.kind is LimitKind.DELTA:
            return (1.0, 0.0), (self.alpha, 1.0)
        if self.kind is LimitKind.DELTA_PRIME_FAMILY:
            return (self.theta, 0.0), (self.alpha, 1.0 / self.theta)
        if self.kind is LimitKind.RESONANT_DELTA:
            s = -1.0 if self.n % 2 else 1.0
            return (s, 0.0), (s * self.alpha, s)
        return None


def _on_level(kappa_sq: float, d: float) -> int | None:
    """n >= 1 when kappa d = n pi to 1e-9 relative, kappa = sqrt(kappa_sq);
    None off the levels, and for kappa_sq < 0."""
    if kappa_sq < 0.0:
        return None
    phase = math.sqrt(kappa_sq) * d
    n = round(phase / math.pi)
    return n if n >= 1 and abs(phase - n * math.pi) <= 1e-9 * max(1.0, phase) else None


def _strength(shifted: float, b: float, d: float) -> float:
    """(a + u + b/2) d, the delta strength of a (1,1) layer; shifted = a + u."""
    return (shifted + 0.5 * b) * d


def _resonant_delta(shifted, b, d, alpha, admissible=True) -> LimitClassification:
    """The delta rule of a squeezed well of shifted coefficient a + u: on
    a + u = -(n pi / d)^2, n >= 1, a parity-signed delta of strength alpha
    plus the well's ramp term b d / 4 (b its bias at nu = 1); else a wall."""
    n = _on_level(-shifted, d)
    if n is None:
        return LimitClassification(LimitKind.OPAQUE_WALL, admissible=admissible)
    kind, alpha = LimitKind.RESONANT_DELTA, alpha + 0.25 * b * d
    return LimitClassification(kind, alpha, n=n, admissible=admissible)


def single_layer_limit(layer: LayerSpec) -> LimitClassification:
    """Zero-thickness limit of one squeezed layer.

    Supported squeezes: the shrinking-argument triangle and its boundary
    lines (transparent below mu = 1, delta at mu = 1, wall above) and the
    (2, 1) point, where a well is a parity-signed resonant delta on the
    depth set -(n pi / d)^2 and an opaque wall off it, as is a barrier;
    at a = 0 its ramp alone leaves a delta of strength b d / 2.
    """
    region = classify_region(layer.mu, layer.nu)
    if region is RegionClass.P21:
        if layer.a != 0.0:
            return _resonant_delta(layer.a, layer.b, layer.d, 0.0)
        if layer.b == 0.0:
            return LimitClassification(LimitKind.TRANSPARENT)
        return LimitClassification(LimitKind.DELTA, alpha=_strength(layer.a, layer.b, layer.d))
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
    bias = layer.b if abs(layer.nu - 1.0) <= POWER_TOL else 0.0
    return LimitClassification(LimitKind.DELTA, alpha=_strength(layer.a, bias, layer.d))


# --- two-layer limits -----------------------------------------------------


def _kappa_tan(shifted, d: float):
    """kappa * tan(kappa * d) continued to the barrier branch, element by
    element.

    For a well (shifted < 0) kappa is real; for a barrier the analytic
    continuation gives -sqrt(shifted) * tanh(sqrt(shifted) d).  At
    shifted = 0 the well branch is q tan(q d) = 0 exactly."""
    q = np.sqrt(np.abs(shifted))
    return np.where(shifted > 0.0, -q * np.tanh(q * d), q * np.tan(q * d))


def two_layer_resonance_residual(shifted1, shifted2, d1: float, d2: float):
    """Residual and scale of the two-layer diagonal-limit condition, element
    by element over array arguments.

    The divergent off-diagonal term of the squeezed product vanishes iff
    kappa1 tan(kappa1 d1) + kappa2 tan(kappa2 d2) = 0 (barrier branches
    continued via tanh); returns (residual, sum of |terms|) as arrays."""
    t1 = _kappa_tan(shifted1, d1)
    t2 = _kappa_tan(shifted2, d2)
    return t1 + t2, np.abs(t1) + np.abs(t2)


def _cos_branch(shifted: float, d: float) -> float:
    """cos(kappa d) continued to the barrier branch (cosh)."""
    if shifted < 0.0:
        return math.cos(math.sqrt(-shifted) * d)
    return math.cosh(math.sqrt(shifted) * d)


def _barrier_well_delta(stack: StructureSpec) -> LimitClassification:
    """(1,1) barrier + (2,1) well: the delta rule of the well shifted by b1,
    with the barrier's strength."""
    barrier, well = stack.layers
    alpha = _strength(barrier.a, barrier.b, barrier.d)
    return _resonant_delta(well.a + barrier.b, well.b, well.d, alpha, -barrier.b < barrier.a)


def _deltaprime_pair(stack: StructureSpec) -> LimitClassification:
    """(2,1) + (2,1): a delta-prime point with theta != 1 where the
    two-layer residual vanishes."""
    l1, l2 = stack.layers
    admissible = -l1.b < l1.a
    shifted1 = l1.a
    shifted2 = l2.a + l1.b
    residual, scale = two_layer_resonance_residual(shifted1, shifted2, l1.d, l2.d)
    if abs(residual) > RESIDUAL_RTOL * max(scale, 1e-300):
        return LimitClassification(LimitKind.OPAQUE_WALL, admissible=admissible)
    theta = _cos_branch(shifted1, l1.d) / _cos_branch(shifted2, l2.d)
    # every branch combination through the complex tilt coefficients
    k1c = cmath.sqrt(complex(-shifted1))
    k2c = cmath.sqrt(complex(-shifted2))
    g1 = l1.b / (4.0 * k1c**3 * l1.d)
    g2 = l2.b / (4.0 * k2c**3 * l2.d)
    val = (k2c * g1 - k1c * g2) * cmath.sin(k1c * l1.d) * cmath.sin(k2c * l2.d)
    return LimitClassification(
        LimitKind.DELTA_PRIME_FAMILY, alpha=val.real, theta=theta, admissible=admissible
    )


# --- transistor (three-layer) limits ---------------------------------------


def _transistor(stack: StructureSpec) -> tuple[LayerSpec, LayerSpec, LayerSpec]:
    """Emitter barrier a1/d1, base d2 and collector barrier a3/d3 of a
    three-layer stack; the external voltages enter as b1 = -v_eb and
    b3 = -v_cb.  The closed forms hold for a flat, unbiased base and
    positive barrier coefficients only: ValueError otherwise."""
    emitter, base, collector = stack.layers
    if base.a != 0.0 or base.b != 0.0:
        raise ValueError("the transistor base must be flat and unbiased (a = b = 0)")
    if not (emitter.a > 0 and collector.a > 0):
        raise ValueError("barrier coefficients a1, a3 must be positive")
    return emitter, base, collector


def _transistor_admissible(emitter: LayerSpec, collector: LayerSpec) -> bool:
    """0 < v_eb = -b1 below a1, a3 and a3 + b3 (= a3 - v_cb), so every
    barrier edge potential stays positive."""
    return 0.0 < -emitter.b < min(emitter.a, collector.a, collector.a + collector.b)


def _transistor_delta(stack: StructureSpec) -> LimitClassification:
    """(1,1) + (2,0) + (1,1): the delta rule of the flat base shifted by
    b1 = -v_eb, with both barrier strengths summed."""
    e, base, c = _transistor(stack)
    alpha = _strength(e.a, e.b, e.d) + _strength(c.a + e.b, c.b, c.d)
    return _resonant_delta(base.a + e.b, 0.0, base.d, alpha, _transistor_admissible(e, c))


def transistor_resonance_residual(stack: StructureSpec, v_eb):
    """Explicit-form residual of the delta-prime resonance condition of a
    transistor stack, element by element over an array of emitter voltages.

    sqrt(a1/V) T1 + sqrt(a3/V - 1) T3
        = [1 - sqrt(a1/V) sqrt(a3/V - 1) T1 T3] tan(sqrt(V) d2)
    with T1 = tanh(sqrt(a1) d1), T3 = tanh(sqrt(a3 - V) d3).
    Returns (lhs - rhs, |lhs| + |rhs|) as arrays.  Precondition, unchecked:
    0 < V < a3 for every V (the finder clips its interval inside it, the
    classifier tests it).
    """
    e, base, c = stack.layers
    a1, d1, d2, a3, d3 = e.a, e.d, base.d, c.a, c.d
    r1 = np.sqrt(a1 / v_eb)
    r3 = np.sqrt(a3 / v_eb - 1.0)
    t1 = math.tanh(math.sqrt(a1) * d1)
    t3 = np.tanh(np.sqrt(a3 - v_eb) * d3)
    lhs = r1 * t1 + r3 * t3
    rhs = (1.0 - r1 * r3 * t1 * t3) * np.tan(np.sqrt(v_eb) * d2)
    return lhs - rhs, np.abs(lhs) + np.abs(rhs)


def _transistor_deltaprime(stack: StructureSpec) -> LimitClassification:
    """(2,1) + (2,0) + (2,1): a delta-prime point where v_eb = -b1 in
    (0, a3) has a scaled residual below RESIDUAL_RTOL.  theta is the I1
    form of theta_n and alpha the off-diagonal element at the stack's
    v_cb = -b3, grouped: each barrier tilt weighted by the opposite-side
    factors."""
    e, base, c = _transistor(stack)
    v_eb, admissible = -e.b, _transistor_admissible(e, c)
    wall = LimitClassification(LimitKind.OPAQUE_WALL, admissible=admissible)
    if not 0.0 < v_eb < c.a:
        return wall
    residual, scale = transistor_resonance_residual(stack, v_eb)
    if abs(residual) > RESIDUAL_RTOL * max(scale, 1e-300):
        return wall
    a1, d1, d2, a3, d3, v_cb = e.a, e.d, base.d, c.a, c.d, -c.b
    q1, q3, k2 = math.sqrt(a1), math.sqrt(a3 - v_eb), math.sqrt(v_eb)
    c1h, s1h = math.cosh(q1 * d1), math.sinh(q1 * d1)
    c3h, s3h = math.cosh(q3 * d3), math.sinh(q3 * d3)
    c2, s2 = math.cos(k2 * d2), math.sin(k2 * d2)
    theta = (c1h * c2 + (q1 / k2) * s1h * s2) / c3h
    alpha = a1**-1.5 * (v_eb / (4.0 * d1)) * s1h * (
        k2 * c3h * s2 - q3 * s3h * c2
    ) - (a3 - v_eb) ** -1.5 * (v_cb / (4.0 * d3)) * s3h * (
        k2 * c1h * s2 - q1 * s1h * c2
    )
    return LimitClassification(
        LimitKind.DELTA_PRIME_FAMILY, alpha=alpha, theta=theta, admissible=admissible
    )


# --- one entry point -------------------------------------------------------

# equation -> the classifier of its squeeze; each takes the tuned stack,
# reads no layer power and returns OPAQUE_WALL off its resonance set
_CLASSIFIERS = {
    ResonanceEquation.EQ73_DELTA_BARRIER_WELL: _barrier_well_delta,
    ResonanceEquation.EQ69_DELTAPRIME_2LAYER: _deltaprime_pair,
    ResonanceEquation.EQ76_TRANSISTOR_DELTA: _transistor_delta,
    ResonanceEquation.EQ83_TRANSISTOR_DELTAPRIME: _transistor_deltaprime,
}


def squeezed_limit(stack: StructureSpec) -> LimitClassification:
    """Zero-thickness limit of a squeezed stack, chosen by the power-plane
    point of each layer: one layer as single_layer_limit; else the
    classifier of the equation whose SQUEEZES template has those points:
    the barrier-well delta (1,1) + (2,1), the delta-prime pair
    (2,1) + (2,1), the transistor delta (1,1) + (2,0) + (1,1) and
    delta-prime (2,1) + (2,0) + (2,1).  Layer 0's bias is the tuned
    variable (b1, or b1 = -v_eb for the transistor).  Any other stack
    has no closed form here: NoClosedFormLimitError."""
    if len(stack.layers) == 1:
        return single_layer_limit(stack.layers[0])
    regions = tuple(classify_region(layer.mu, layer.nu) for layer in stack.layers)
    eq = TEMPLATE_EQUATIONS.get(regions)
    if eq is None:
        raise NoClosedFormLimitError(
            "no closed-form zero-thickness limit for layer regions "
            + " + ".join(r.value for r in regions)
        )
    return _CLASSIFIERS[eq](stack)
