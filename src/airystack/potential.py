"""Squeeze-parametrized multilayer structures and their realized profiles.

A structure is a stack of layers, each described by five numbers
(a, b, d, mu, nu).  At squeeze parameter eps the layer occupies width
eps*d and runs linearly from (a + sum of upstream biases) * eps^-mu to
that value plus b * eps^-nu.  At eps = 1 these are the raw device values.

Energies and potentials are nm^-2 throughout (hbar^2 / 2m* = 1 with
m* = 0.1 m_e); eV appears only at the config/CLI boundary.

The classes of the (mu, nu) power plane sit here, and so do the resonance
equations with the squeezes they are derived for, so that a config is
checked without loading the limits.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "EV_TO_INVNM2",
    "ev_to_invnm2",
    "invnm2_to_ev",
    "LayerSpec",
    "StructureSpec",
    "RegionClass",
    "realize",
    "stack_potentials",
    "classify_region",
    "POWER_TOL",
    "ResonanceEquation",
    "SQUEEZES",
]

EV_TO_INVNM2 = 2.62464  # 1 eV in nm^-2 for m* = 0.1 m_e

# Most grid points of a sweep and levels (closed-form roots or tangent
# poles) of a resonance set: a larger count is rejected before any is made.
MAX_POINTS = 100_000

# Two squeeze powers closer than this are the same power: the named lines
# and points of the power plane, and the squeezes the limits are derived for.
POWER_TOL = 1e-12


def ev_to_invnm2(e: float) -> float:
    return e * EV_TO_INVNM2


def invnm2_to_ev(v: float) -> float:
    return v / EV_TO_INVNM2


@dataclass(frozen=True)
class LayerSpec:
    """One layer: left-edge coefficient a, bias increment b, width d,
    divergence powers mu (left edge) and nu (bias)."""

    a: float
    b: float
    d: float
    mu: float
    nu: float

    def __post_init__(self):
        if not self.d > 0:
            raise ValueError(f"layer width d must be positive, got {self.d!r}")
        if self.mu < 0 or self.nu < 0:
            raise ValueError("powers mu, nu must be non-negative")
        if self.mu > 0 and self.nu > self.mu:
            raise ValueError(f"nu = {self.nu!r} exceeds mu = {self.mu!r}")
        if self.mu == 0 and self.nu != 0:
            raise ValueError("mu = 0 requires nu = 0")


@dataclass(frozen=True)
class StructureSpec:
    """Ordered layer stack plus lead potentials.

    The right lead defaults to v_left + b_1 + ... + b_L summed left to
    right, independent of eps: the order in which stack_potentials shifts
    the edges, so at eps = 1 it meets a last layer's right edge if a = 0.
    Leads are physical constants; continuity with the (diverging) layer
    edges is not required.
    """

    layers: tuple[LayerSpec, ...]
    v_left: float = 0.0
    v_right_override: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        if len(self.layers) < 1:
            raise ValueError("structure needs at least one layer")

    def right_lead(self, biases):
        """Right lead when the layers carry these biases (in layer order, each
        a float or an array over rows): the override, else v_left + running sum."""
        if self.v_right_override is not None:
            return self.v_right_override
        return self.v_left + functools.reduce(operator.add, biases)

    def lead_potentials(self) -> tuple[float, float]:
        return self.v_left, self.right_lead(layer.b for layer in self.layers)

    def replace_bias(self, index: int, b: float) -> "StructureSpec":
        """Copy with layer `index` given bias b: the tuned stack of a
        resonance root, and perfbench/make_reference.py's probe of a
        device's Airy arguments along its sweep."""
        layers = list(self.layers)
        old = layers[index]
        layers[index] = LayerSpec(old.a, b, old.d, old.mu, old.nu)
        return StructureSpec(tuple(layers), self.v_left, self.v_right_override)


def stack_potentials(
    spec: StructureSpec, epsilon: float, biases
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Edge potentials at the given squeeze parameter for rows of layer biases.

    Row p of biases, shape (P, L), gives every layer's bias b (a sweep
    varies the tuned layer's and repeats the others).  Returns the left and
    right edge potentials, shape (P, L), and the physical widths, shape
    (L,); an epsilon outside (0, inf), a potential that is not finite or a
    width that underflows to 0 is a ValueError.
    """
    if not 0.0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be finite and positive, got {epsilon!r}")
    biases = np.asarray(biases, dtype=float)
    grow = []
    for layer in spec.layers:
        try:
            grow.append((epsilon ** -layer.mu, epsilon ** -layer.nu))
        except OverflowError:
            grow.append((math.inf, math.inf))
    grow_a, grow_b = np.array(grow).T
    # each layer's upstream bias, summed left to right
    shift = np.zeros_like(biases)
    np.cumsum(biases[:, :-1], axis=1, out=shift[:, 1:])
    with np.errstate(over="ignore", invalid="ignore"):
        v_left = (np.array([layer.a for layer in spec.layers]) + shift) * grow_a
        v_right = v_left + biases * grow_b
    # v_right is not finite wherever v_left is not
    if not np.isfinite(v_right).all():
        raise ValueError(f"layer potential is not finite at epsilon = {epsilon!r}")
    widths = np.array([epsilon * layer.d for layer in spec.layers])
    if not (widths > 0).all():
        raise ValueError(f"a layer width underflows at epsilon = {epsilon!r}")
    return v_left, v_right, widths


def realize(spec: StructureSpec, epsilon: float) -> list[tuple[float, float, float]]:
    """(v_left, v_right, width) of each layer at the given squeeze parameter:
    the stack's own row of stack_potentials, as floats, for
    perfbench/make_reference.py; a potential that overflows is a ValueError."""
    v_left, v_right, widths = stack_potentials(spec, epsilon, [[x.b for x in spec.layers]])
    return list(zip(v_left[0].tolist(), v_right[0].tolist(), widths.tolist()))


class RegionClass(Enum):
    """Asymptotic classes on the (mu, nu) power plane.

    S0 / S_INF: the Airy arguments shrink to 0 / diverge as eps -> 0,
    per the sign of the exponent 2(1+nu)/3 - mu.  Named lines bound the
    two sets; named points are the squeezes treated in closed form.
    """

    S0 = "S0"
    S_INF = "S_INF"
    L0_INF = "L0_INF"
    L0_1 = "L0_1"
    L0_2 = "L0_2"
    L_INF_1 = "L_INF_1"
    L_INF_2 = "L_INF_2"
    P11 = "P11"
    P20 = "P20"
    P21 = "P21"
    OUTSIDE = "OUTSIDE"


def classify_region(mu: float, nu: float) -> RegionClass:
    """Partition of the admissible power plane; points beat lines beat sets."""

    def eq(x, y):
        return abs(x - y) <= POWER_TOL

    if not (mu > POWER_TOL and -POWER_TOL <= nu <= mu + POWER_TOL and mu <= 2.0 + POWER_TOL):
        return RegionClass.OUTSIDE
    if eq(mu, 1.0) and eq(nu, 1.0):
        return RegionClass.P11
    if eq(mu, 2.0) and eq(nu, 0.0):
        return RegionClass.P20
    if eq(mu, 2.0) and eq(nu, 1.0):
        return RegionClass.P21
    if eq(nu, 1.5 * mu - 1.0):
        return RegionClass.L0_INF
    if eq(nu, 0.0) and mu < 2.0 / 3.0:
        return RegionClass.L0_1
    if eq(nu, mu) and mu < 2.0 - POWER_TOL:
        return RegionClass.L0_2
    if eq(nu, 0.0) and mu > 2.0 / 3.0:
        return RegionClass.L_INF_1
    if eq(mu, 2.0) and 0.0 < nu < 2.0:
        return RegionClass.L_INF_2
    exponent = 2.0 * (1.0 + nu) / 3.0 - mu
    if exponent > 0:
        return RegionClass.S0 if mu < 2.0 else RegionClass.OUTSIDE
    # an exponent of 0 puts nu on the L0_INF line, which returned above
    return RegionClass.S_INF


class ResonanceEquation(Enum):
    EQ69_DELTAPRIME_2LAYER = "EQ69_DELTAPRIME_2LAYER"
    EQ73_DELTA_BARRIER_WELL = "EQ73_DELTA_BARRIER_WELL"
    EQ76_TRANSISTOR_DELTA = "EQ76_TRANSISTOR_DELTA"
    EQ83_TRANSISTOR_DELTAPRIME = "EQ83_TRANSISTOR_DELTAPRIME"


# equation -> (mu, nu) of each layer it is derived for, and the sign s that
# makes its tuned variable s * b1, b1 being layer 0's bias
SQUEEZES = {
    ResonanceEquation.EQ73_DELTA_BARRIER_WELL: (((1.0, 1.0), (2.0, 1.0)), 1.0),
    ResonanceEquation.EQ69_DELTAPRIME_2LAYER: (((2.0, 1.0), (2.0, 1.0)), 1.0),
    ResonanceEquation.EQ76_TRANSISTOR_DELTA: (((1.0, 1.0), (2.0, 0.0), (1.0, 1.0)), -1.0),
    ResonanceEquation.EQ83_TRANSISTOR_DELTAPRIME: (((2.0, 1.0), (2.0, 0.0), (2.0, 1.0)), -1.0),
}

# the power-plane points of each template's layers -> its equation
TEMPLATE_EQUATIONS = {
    tuple(classify_region(mu, nu) for mu, nu in powers): eq
    for eq, (powers, _) in SQUEEZES.items()
}
