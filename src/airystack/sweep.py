"""Squeezing sweeps: exact transmission curves over a tuned bias, per epsilon.

A sweep varies one layer's bias over a grid, computes the exact
Airy-based transmission at each squeeze parameter in the schedule,
detects and refines transmission peaks, and reports per-peak distances
to an analytic resonance set when one is supplied.  Evanescent-lead
grid points are recorded as gaps (NaN transmission), not failures.
Evaluation is batched per epsilon: the whole grid goes through one array
evaluation, and the golden-section refinement of all peaks of one epsilon
evaluates the next DEPTH levels of every bracket's decision tree in one
call (see _golden_max), about five calls per epsilon.  Every step is
elementwise and pure, and each peak walks its own steps in floats from
those values, so identical requests give identical results byte for byte,
the same as one transmission call per golden step would give.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .potential import StructureSpec, invnm2_to_ev, stack_potentials
from .scattering import trans_prob
from .transfer import structure_matrices

__all__ = [
    "SweepRequest",
    "SweepResult",
    "run_sweep",
    "detect_peaks",
    "sweep_to_csv",
    "sweep_to_json",
]

# Golden-section refinement pins each peak to this relative position, and
# takes DEPTH steps of every bracket per call of the evaluator.
PEAK_REL_TOL = 1e-6
DEPTH = 4
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class SweepRequest:
    """One squeezing scenario.

    The tuned parameter is layer `tuned_layer`'s bias; the plotted grid
    value maps to the bias as b = tuned_sign * value (the device figures
    plot -b1 and the emitter voltage, both sign-flipped biases).
    """

    structure: StructureSpec
    tuned_layer: int
    grid_lo: float
    grid_hi: float
    grid_points: int
    epsilons: tuple[float, ...]
    energy: float
    tuned_sign: float = -1.0
    peak_floor: float = 0.01

    def __post_init__(self):
        object.__setattr__(self, "epsilons", tuple(self.epsilons))
        if self.grid_points < 2:
            raise ValueError("grid needs at least 2 points")
        if not self.grid_hi > self.grid_lo:
            raise ValueError("empty grid range")
        if any(e <= 0 for e in self.epsilons):
            raise ValueError("epsilons must be positive")
        if any(a <= b for a, b in zip(self.epsilons, self.epsilons[1:])):
            raise ValueError("epsilons must be strictly descending")
        if not 0 <= self.tuned_layer < len(self.structure.layers):
            raise ValueError("tuned_layer out of range")
        # potentials are affine in the tuned value: finite at both grid ends, finite throughout
        ends = self._biases(np.array([self.grid_lo, self.grid_hi]))
        for eps in self.epsilons:
            stack_potentials(self.structure, eps, ends)

    def _biases(self, values: np.ndarray) -> np.ndarray:
        """Every layer's bias (rows) at each grid value."""
        biases = np.tile([layer.b for layer in self.structure.layers], (values.size, 1))
        biases[:, self.tuned_layer] = self.tuned_sign * values.ravel()
        return biases

    def transmission(self, value, epsilon: float):
        """Exact transmission at grid values, elementwise over an array
        (a float gives a float); NaN for evanescent leads."""
        values = np.asarray(value, dtype=float)
        spec = self.structure
        biases = self._biases(values)
        matrices = structure_matrices(*stack_potentials(spec, epsilon, biases), self.energy)
        v_right = np.array([spec.right_lead(row) for row in biases.tolist()])
        t = trans_prob(matrices, spec.v_left, v_right, self.energy)
        return float(t[0]) if values.ndim == 0 else t.reshape(values.shape)


@dataclass(frozen=True)
class SweepResult:
    """Curves on one grid: transmission[i] is T over grid at epsilons[i]
    (NaN at evanescent-lead gaps); peaks[i] its refined peak values and
    convergence[i] the distance from each reference root to the nearest
    of them (inf when there is no peak)."""

    request: SweepRequest
    grid: np.ndarray
    transmission: np.ndarray
    peaks: tuple[tuple[float, ...], ...]
    reference_roots: tuple[float, ...]
    convergence: tuple[tuple[float, ...], ...]


def detect_peaks(values: np.ndarray, t: np.ndarray, floor: float, evaluator=None) -> list[float]:
    """Strict local maxima of t above the floor, golden-section refined.

    values must be ascending; NaN gaps in t split the curve.  When an
    evaluator (continuous T(values), elementwise over an array) is given,
    each grid maximum is refined within its bracketing neighbours to
    PEAK_REL_TOL in position, all maxima together (see _golden_max).
    """
    # a NaN neighbour fails the comparison, so maxima never border a gap
    top = (t[1:-1] > t[:-2]) & (t[1:-1] > t[2:]) & (t[1:-1] > floor)
    i = np.flatnonzero(top) + 1
    if evaluator is None or not i.size:
        return values[i].tolist()
    return _golden_max(evaluator, values[i - 1], values[i + 1])


def _golden_max(f, lo: np.ndarray, hi: np.ndarray) -> list[float]:
    """Golden-section maxima of f on the brackets [lo, hi].

    One call of f opens every bracket at its two golden points.  Each
    round then plans the next DEPTH steps of every open bracket: the first
    step's direction is known, every later one turns on the point just
    added, so the planned points are the 2**DEPTH - 1 nodes of the
    bracket's decision tree (fewer once a branch closes), and all of them
    go through one call of f.  A walk in Python floats then takes each
    bracket's steps one at a time from its own values: its new points are
    the planned points bit for bit, so every maximum is the one that one
    f call per step would give, and f is called at most
    1 + ceil(steps / DEPTH) times.
    """
    c = hi - _GOLDEN * (hi - lo)
    d = lo + _GOLDEN * (hi - lo)
    fc, fd = np.split(np.asarray(f(np.concatenate([c, d])), dtype=float), 2)
    tol = PEAK_REL_TOL * np.maximum(1.0, np.maximum(np.abs(lo), np.abs(hi)))
    brackets = [list(s) for s in zip(*(v.tolist() for v in (lo, hi, c, d, fc, fd, tol)))]
    live = brackets
    while live := [s for s in live if (s[1] - s[0]) > s[6]]:
        plans = [
            _golden_tree(a, b, c, d, tol, (fc > fd,), DEPTH) for a, b, c, d, fc, fd, tol in live
        ]
        # zip stops at the end of each plan: every bracket looks up its own values
        values = iter(f(np.array([x for plan in plans for x in plan])).tolist())
        for s, plan in zip(live, plans):
            s[:6] = _golden_walk(*s, dict(zip(plan, values)))
    return [0.5 * (s[0] + s[1]) for s in brackets]


def _golden_step(a, b, c, d, left):
    """The bracket (a, b) and its inner points (c, d) after one step; the
    new point is c after a step left and d after a step right."""
    if left:  # the maximum is left of d: drop (d, b]
        return a, d, d - _GOLDEN * (d - a), c
    return c, b, d, c + _GOLDEN * (b - c)


def _golden_tree(a, b, c, d, tol, ways, depth) -> list[float]:
    """New points of the next `depth` steps from [a, b], the first step
    taking `ways`, every later one both ways, no step past closure."""
    if depth == 0 or not (b - a) > tol:
        return []
    points = []
    for left in ways:
        step = _golden_step(a, b, c, d, left)
        points.append(step[2] if left else step[3])
        points.extend(_golden_tree(*step, tol, (True, False), depth - 1))
    return points


def _golden_walk(a, b, c, d, fc, fd, tol, values):
    """Up to DEPTH steps of one bracket, f of each new point from values."""
    for _ in range(DEPTH):
        if not (b - a) > tol:
            break
        if fc > fd:
            a, b, c, d = _golden_step(a, b, c, d, True)
            fc, fd = values[c], fc
        else:
            a, b, c, d = _golden_step(a, b, c, d, False)
            fc, fd = fd, values[d]
    return [a, b, c, d, fc, fd]


def run_sweep(
    req: SweepRequest, reference_roots: tuple[float, ...] = ()
) -> SweepResult:
    """Execute the scenario over every epsilon in schedule order."""
    grid = req.grid_lo + (req.grid_hi - req.grid_lo) * np.arange(req.grid_points) / (
        req.grid_points - 1
    )
    rows = []
    peaks = []
    convergence = []
    for eps in req.epsilons:
        t = req.transmission(grid, eps)
        rows.append(t)
        pk = tuple(
            detect_peaks(grid, t, req.peak_floor, evaluator=lambda v: req.transmission(v, eps))
        )
        peaks.append(pk)
        convergence.append(
            tuple(min(abs(p - r) for p in pk) if pk else math.inf for r in reference_roots)
        )
    return SweepResult(
        request=req,
        grid=grid,
        transmission=np.array(rows),
        peaks=tuple(peaks),
        reference_roots=tuple(reference_roots),
        convergence=tuple(convergence),
    )


def sweep_to_csv(result: SweepResult) -> str:
    """Locale-independent CSV: epsilon, tuned value (eV and nm^-2), T, R."""
    lines = ["epsilon,tuned_value_eV,tuned_value_invnm2,T,R"]
    values = [f"{invnm2_to_ev(v)!r},{v!r}," for v in result.grid.tolist()]
    for eps, row in zip(result.request.epsilons, result.transmission.tolist()):
        head = f"{eps!r},"
        lines.extend(
            head + v + ("," if math.isnan(t) else f"{t!r},{1.0 - t!r}") for v, t in zip(values, row)
        )
    return "\n".join(lines) + "\n"


def sweep_to_json(result: SweepResult) -> str:
    """Deterministic JSON document with the peaks/convergence blocks."""
    doc = {
        "energy_invnm2": result.request.energy,
        "tuned_layer": result.request.tuned_layer,
        "tuned_sign": result.request.tuned_sign,
        "peak_floor": result.request.peak_floor,
        "epsilons": list(result.request.epsilons),
        "reference_roots_invnm2": list(result.reference_roots),
        "sweeps": [
            {
                "epsilon": eps,
                "peaks_invnm2": list(pk),
                "peaks_eV": [invnm2_to_ev(p) for p in pk],
                # no peak above the floor: no distance to report
                "convergence_invnm2": [c if math.isfinite(c) else None for c in conv],
            }
            for eps, pk, conv in zip(result.request.epsilons, result.peaks, result.convergence)
        ],
    }
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"
