"""Resonance sets of the squeezed limits: closed forms and bracketed search.

Two of the four resonance conditions are solvable in closed form (the
barrier-well delta set and the transistor delta set); the other two are
transcendental and are found by a pole-aware uniform scan followed by
bisection.  Roots are returned sorted ascending by the tuned value with
the limit data (alpha, on-resonance transmission, and theta for the
scanned sets) that the equation's own classifier in limits gives the tuned
stack.  An interval with no part of an equation's domain gives the empty set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import EvanescentLeadError
from .limits import (
    _CLASSIFIERS,
    LimitKind,
    _transistor,
    transistor_resonance_residual,
    two_layer_resonance_residual,
)
from .lockstep import refine
from .potential import MAX_POINTS as MAX_LEVELS
from .potential import SQUEEZES, ResonanceEquation, StructureSpec
from .scattering import _terms

__all__ = [
    "ResonanceRoot",
    "ResonanceSet",
    "FINDERS",
    "scan_and_bisect",
    "resonances_delta_barrier_well",
    "resonances_transistor_delta",
    "find_resonances_deltaprime_2layer",
    "find_resonances_transistor_deltaprime",
]

# Uniform scan steps across [lo, hi], the relative width at which
# bisection stops and its most steps per bracket, for the transcendental
# conditions.
SCAN_STEPS = 2048
ROOT_REL_TOL = 1e-12
MAX_STEPS = 200


@dataclass(frozen=True)
class ResonanceRoot:
    """One member of a resonance set.

    value is the tuned bias in nm^-2 (b1 for the two-layer devices, the
    emitter voltage for the transistor); n is the analytic mode number
    for closed-form sets and the ascending position otherwise.  theta is
    the limit's for the scanned sets, None for EQ73 and 1.0 for EQ76.
    """

    n: int
    value: float
    alpha: float
    theta: float | None = None
    trans_prob: float | None = None
    admissible: bool = True


@dataclass(frozen=True)
class ResonanceSet:
    equation: ResonanceEquation
    roots: tuple[ResonanceRoot, ...]

    def values(self) -> tuple[float, ...]:
        return tuple(r.value for r in self.roots)


def scan_and_bisect(f, lo: float, hi: float, poles: tuple[float, ...] = ()) -> list[float]:
    """All sign-change roots of f on [lo, hi].

    f maps a 1-D array of points to the array of its values, element by
    element.  The interval is pre-split at the supplied pole locations
    (where f jumps sign without a root); each pole-free piece is scanned
    with a uniform step of (hi - lo) / SCAN_STEPS, all pieces in one call
    of f (a step that underflows to 0 is a ValueError), and a grid point
    where f is 0 is a root.  A sign change between two neighbours of one
    piece is bisected in lockstep (see _bisect_plan), so f is called at
    most 1 + ceil(MAX_STEPS / 2) times.  Deterministic.
    """
    if not hi > lo:
        return []
    step = (hi - lo) / SCAN_STEPS
    if step == 0.0:
        raise ValueError(f"interval [{lo!r}, {hi!r}] is too narrow to scan in double precision")
    margin = 1e-10 * (hi - lo)
    cuts = sorted(p for p in poles if lo < p < hi)
    edges = [lo]
    for p in cuts:
        edges.extend((p - margin, p + margin))
    edges.append(hi)
    pieces, starts, n = [], set(), 0  # starts: the index of each piece's first point
    for a, b in zip(edges[::2], edges[1::2]):
        if b > a:
            m = max(2, int(math.ceil((b - a) / step)) + 1)
            pieces.append(a + (b - a) * np.arange(m) / (m - 1))
            starts.add(n)
            n += m
    xs = np.concatenate(pieces)
    fs = f(xs)
    sign, x, y = np.sign(fs), xs.item, fs.item
    brackets = []
    # opposite signs; f0 * f1 itself would underflow to 0 for tiny values
    for i in np.flatnonzero(sign[:-1] * sign[1:] < 0.0).tolist():
        if i + 1 not in starts:  # a pair across a pole cut is no bracket
            # third point: the left scan neighbour in the bracket's piece, else the right one
            j = min(i + 2, n - 1) if i in starts else i - 1
            brackets.append([{x(i): y(i), x(i + 1): y(i + 1), x(j): y(j)}, x(i), x(i + 1), x(j), 0])
    refine(f, brackets, _bisect_plan)
    roots = xs[fs == 0.0].tolist() + [0.5 * (s[1] + s[2]) for s in brackets]
    return sorted(set(roots))


def _bisect_plan(s) -> list[float]:
    """One round of bisection on s = [seen, x0, x1, x2, steps]: seen holds f
    at every point known so far, of opposite signs at x0 and x1, and x2 is a
    third point, a scan neighbour at first, then the end the last step replaced.

    s is open on entry.  It walks the steps whose midpoint is in seen until
    the one stopping rule, a true relative width of ROOT_REL_TOL (x0 <= x1:
    max(|x0|, |x1|) is max(x1, -x0)) or MAX_STEPS, and stores where it stops.
    An open bracket lists the midpoint after the other way of its first step
    and those of its path to closure, toward the root that _predicted gives.
    """
    seen, x0, x1, x2, steps = s
    f0 = seen[x0]
    while (fm := seen.get(mid := 0.5 * (x0 + x1))) is not None:
        steps += 1
        if fm == 0.0:
            x0 = x1 = mid
        elif f0 < 0.0 < fm or fm < 0.0 < f0:
            x2, x1 = x1, mid
        else:
            x2, x0, f0 = x0, mid, fm
        if x1 - x0 <= ROOT_REL_TOL * (x1 if x1 > -x0 else -x0) or steps == MAX_STEPS:
            s[1:] = x0, x1, x2, steps
            return []
    s[1:] = x0, x1, x2, steps
    r = _predicted(seen, x0, x1, x2)  # left of mid (the walk's last, not in seen): step left
    points = [0.5 * (mid + x1) if r < mid else 0.5 * (x0 + mid)]  # the other way
    while True:
        mid = 0.5 * (x0 + x1)
        points.append(mid)
        if r < mid:
            x1 = mid
        else:
            x0 = mid
        steps += 1
        if x1 - x0 <= ROOT_REL_TOL * (x1 if x1 > -x0 else -x0) or steps == MAX_STEPS:
            return points


def _predicted(seen, x0, x1, x2) -> float:
    """Where the root of f in (x0, x1) is predicted from seen: the inverse
    quadratic interpolation of the three points (Brent) when their values
    are pairwise distinct and it falls strictly inside, else the secant
    root of the two ends.  It only chooses the points a round evaluates."""
    f0, f1, f2 = seen[x0], seen[x1], seen[x2]
    if f0 != f1 and f0 != f2 and f1 != f2:
        # Lagrange form of x(f) at f = 0, one difference per divisor
        r = (
            x0 * (f1 / (f0 - f1)) * (f2 / (f0 - f2))
            + x1 * (f0 / (f1 - f0)) * (f2 / (f1 - f2))
            + x2 * (f0 / (f2 - f0)) * (f1 / (f2 - f1))
        )
        if x0 < r < x1:
            return r
    return x0 - f0 * (x1 - x0) / (f1 - f0)


def _levels(start, d: float, sign: float, offset: float, lo: float, hi: float) -> list[float]:
    """sign * (x pi / d)^2 + offset for x = start, start + 1, ... inside [lo, hi].

    An inverted interval holds none.  The count follows from the closed
    form before any level is made; more than MAX_LEVELS is a ValueError.
    """
    if lo > hi:
        return []
    # levels inside [lo, hi] have (x pi / d)^2 in [y_lo, y_hi]
    y_lo, y_hi = sorted((sign * (lo - offset), sign * (hi - offset)))
    x_lo = d * math.sqrt(max(y_lo, 0.0)) / math.pi
    x_hi = d * math.sqrt(max(y_hi, 0.0)) / math.pi
    if not x_hi - x_lo <= MAX_LEVELS:
        raise ValueError(f"more than {MAX_LEVELS} levels in [{lo!r}, {hi!r}]")
    # x_hi may round below the last level's x: one x more, the value test decides
    first, stop = max(0, int(x_lo - start)), int(x_hi - start) + 2
    values = (sign * ((start + j) * math.pi / d) ** 2 + offset for j in range(first, stop))
    return [v for v in values if lo <= v <= hi]


def _root(n: int, value: float, limit, theta, stack: StructureSpec, energy) -> ResonanceRoot:
    """Root at value carrying theta and its limit's alpha and admissibility;
    with an energy, T_n of the limit matrix between the stack's leads, by
    the arithmetic of scattering.trans_prob.  A lead at or above the energy
    is an EvanescentLeadError; a theta, alpha or T_n that is not finite is
    a ValueError."""
    if limit.alpha is None:
        raise ValueError(f"{value!r} is off the limit's resonance set in double precision")
    trans = None
    if energy is not None:
        v_left, v_right = stack.lead_potentials()
        if energy <= v_left or energy <= v_right:
            raise EvanescentLeadError(
                f"energy {energy!r} not above lead potentials ({v_left!r}, {v_right!r}) "
                f"at the root {value!r}"
            )
        # the matrix holds 1 / theta; a theta of 0 (an overflowed cosh of the
        # collector) comes with an alpha that is not finite, judged below
        if limit.theta != 0.0:
            (l11, l12), (l21, l22) = limit.elements()
            k_l, k_r = math.sqrt(energy - v_left), math.sqrt(energy - v_right)
            _, _, four_r, denom = _terms(l11, l12, l21, l22, k_l, k_r)
            trans = four_r / denom
    if not all(math.isfinite(x) for x in (theta, limit.alpha, trans) if x is not None):
        raise ValueError(f"theta = {theta!r}, alpha = {limit.alpha!r} or T_n = {trans!r} "
                         f"at {value!r} is not finite")
    return ResonanceRoot(n, value, limit.alpha, theta, trans, limit.admissible)


def _level_roots(
    eq: ResonanceEquation, stack: StructureSpec, levels, energy, theta=None
) -> ResonanceSet:
    """The roots at closed-form levels, ascending, each with theta and the
    mode number n and limit data of the equation's classifier."""
    classify, sign = _CLASSIFIERS[eq], SQUEEZES[eq][1]
    roots = []
    for value in sorted(levels):
        tuned = stack.replace_bias(0, sign * value)
        limit = classify(tuned)
        roots.append(_root(limit.n, value, limit, theta, tuned, energy))
    return ResonanceSet(eq, tuple(roots))


def _scanned_roots(
    eq: ResonanceEquation, stack: StructureSpec, residual, lo, hi, poles, energy
) -> ResonanceSet:
    """Sign changes of residual(x)[0] on [lo, hi], split at the poles, so
    that no bracket spans a pole.  A candidate's one judge is the equation's
    classifier: a wall (scaled residual past RESIDUAL_RTOL) is dropped.  A
    real root within a scan step of a tangent pole can miss the gate, as
    bisection to ROOT_REL_TOL leaves too large a residual on so steep a
    slope.  numpy's floating-point warnings are off for the whole search:
    an overflowing device's nan or inf makes no bracket, and _root's
    finiteness check judges each root."""
    classify, sign = _CLASSIFIERS[eq], SQUEEZES[eq][1]
    roots = []
    with np.errstate(all="ignore"):
        for value in scan_and_bisect(lambda x: residual(x)[0], lo, hi, poles):
            tuned = stack.replace_bias(0, sign * value)
            limit = classify(tuned)
            if limit.kind is not LimitKind.OPAQUE_WALL:
                roots.append(_root(len(roots) + 1, value, limit, limit.theta, tuned, energy))
    return ResonanceSet(eq, tuple(roots))


# Every finder maps (stack, lo, hi, energy) to the resonance set on [lo, hi]
# of the tuned variable: it sets layer 0's bias to s * value and judges each
# root by its equation's classifier (limits._CLASSIFIERS), which reads no
# layer power, so the stack's own powers play no part.


def resonances_delta_barrier_well(
    stack: StructureSpec, lo: float, hi: float, energy: float | None = None
) -> ResonanceSet:
    """Closed-form bias set of the barrier-well delta limit:
    b_1n = -(n pi / d2)^2 - a2 for n >= 1 inside [lo, hi], squeezed at
    (1,1) + (2,1).  Each root carries the barrier's delta strength; with an
    energy the on-resonance transmission between the leads is attached."""
    barrier, well = stack.layers
    # b2 is zeroed, so alpha and T_n are the unbiased well's (the classifier
    # would add b2 d2 / 4, the lead v_left + b1 + b2), as perfbench/reference
    # records them until the references are regenerated.
    stack = replace(stack, layers=(barrier, replace(well, b=0.0)))
    levels = _levels(1, well.d, -1.0, -well.a, lo, hi)
    return _level_roots(ResonanceEquation.EQ73_DELTA_BARRIER_WELL, stack, levels, energy)


def resonances_transistor_delta(
    stack: StructureSpec, lo: float, hi: float, energy: float | None = None
) -> ResonanceSet:
    """Closed-form emitter-voltage set of the transistor delta limit:
    V_n = (n pi / d2)^2 for n >= 1 inside [lo, hi], squeezed at
    (1,1) + (2,0) + (1,1), with the summed barrier strength and theta = 1.0
    per root; an interval of no positive voltage holds none."""
    _, base, _ = _transistor(stack)
    levels = _levels(1, base.d, 1.0, 0.0, lo, hi)
    return _level_roots(ResonanceEquation.EQ76_TRANSISTOR_DELTA, stack, levels, energy, 1.0)


def find_resonances_deltaprime_2layer(
    stack: StructureSpec, lo: float, hi: float, energy: float | None = None
) -> ResonanceSet:
    """Bias roots of the two-layer delta-prime condition
    sqrt(a1) tanh(sqrt(a1) d1) = kappa2 tan(kappa2 d2), kappa2^2 = -(a2 + b1),
    squeezed at (2,1) + (2,1).

    Only the well branch (a2 + b1 < 0) can resonate, so the interval is
    clipped at the branch boundary b1 = -a2.  The scan is pre-split at
    the tangent poles kappa2 d2 = (m + 1/2) pi.
    """
    barrier, well = stack.layers
    a1, a2, d1, d2 = barrier.a, well.a, barrier.d, well.d
    if not a1 > 0:
        raise ValueError("first layer must be a barrier (a1 > 0)")
    hi = min(hi, -a2 - 1e-12 * max(1.0, abs(a2)))

    def residual(b1):
        return two_layer_resonance_residual(a1, a2 + b1, d1, d2)

    poles = tuple(_levels(0.5, d2, -1.0, -a2, lo, hi))
    eq = ResonanceEquation.EQ69_DELTAPRIME_2LAYER
    return _scanned_roots(eq, stack, residual, lo, hi, poles, energy)


def find_resonances_transistor_deltaprime(
    stack: StructureSpec, lo: float, hi: float, energy: float | None = None
) -> ResonanceSet:
    """Emitter-voltage roots of the transistor delta-prime condition,
    squeezed at (2,1) + (2,0) + (2,1).

    The search domain is (0, a3) shrunk by a 1e-8 margin against the
    endpoint singularities; tangent poles of the base phase are split
    out analytically.  A candidate whose tuned stack classifies as a wall
    is dropped (_scanned_roots).
    """
    _, base, collector = _transistor(stack)
    margin = 1e-8 * max(1.0, collector.a)
    lo = max(lo, margin)
    hi = min(hi, collector.a - margin)

    def residual(v):
        return transistor_resonance_residual(stack, v)

    poles = tuple(_levels(0.5, base.d, 1.0, 0.0, lo, hi))
    eq = ResonanceEquation.EQ83_TRANSISTOR_DELTAPRIME
    return _scanned_roots(eq, stack, residual, lo, hi, poles, energy)


# equation -> its finder, all of the shape above
FINDERS = {
    ResonanceEquation.EQ73_DELTA_BARRIER_WELL: resonances_delta_barrier_well,
    ResonanceEquation.EQ69_DELTAPRIME_2LAYER: find_resonances_deltaprime_2layer,
    ResonanceEquation.EQ76_TRANSISTOR_DELTA: resonances_transistor_delta,
    ResonanceEquation.EQ83_TRANSISTOR_DELTAPRIME: find_resonances_transistor_deltaprime,
}
