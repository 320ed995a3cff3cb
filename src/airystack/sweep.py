"""Squeezing sweeps: exact transmission curves over a tuned bias, per epsilon.

A sweep varies one layer's bias over a grid, computes the exact
Airy-based transmission at each squeeze parameter in the schedule,
detects and refines transmission peaks, and reports the distance from
each root of an analytic resonance set, when one is supplied, to the
nearest peak in the root's cell (the values nearer to it than to any
other root).  Evanescent-lead grid points are recorded as gaps (NaN
transmission), not failures.
Evaluation is batched per epsilon: the whole grid goes through one array
evaluation, and the golden-section refinement of all peaks of one epsilon
runs in lockstep (lockstep.refine), two calls per epsilon on the shipped
figures, each peak the one that one transmission call per golden step
would give, byte for byte.
"""

from __future__ import annotations

import bisect
import json
import math
from dataclasses import dataclass

import numpy as np

from .lockstep import refine
from .potential import StructureSpec, invnm2_to_ev, stack_potentials

__all__ = [
    "SweepRequest",
    "SweepResult",
    "run_sweep",
    "detect_peaks",
    "sweep_to_csv",
    "sweep_to_json",
]

# Golden-section refinement pins each peak to this relative position.
PEAK_REL_TOL = 1e-6
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# Layer matrices per transmission block: a call's working arrays grow with
# points x layers (~0.9 GB at 100,000 x 24 in one block); every shipped and
# benchmark grid call (at most 2,001 x 3 or 200 x 24) stays one block.
_BLOCK = 8192


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
        # imported here, so that building a request loads no Airy code
        from .scattering import trans_prob
        from .transfer import structure_matrices

        values = np.asarray(value, dtype=float)
        spec, t = self.structure, np.empty(values.size)
        rows = max(1, _BLOCK // len(spec.layers))
        for start in range(0, t.size, rows):  # elementwise per row: blocks move no bit
            biases = self._biases(values.ravel()[start : start + rows])
            matrices = structure_matrices(*stack_potentials(spec, epsilon, biases), self.energy)
            v_right = spec.right_lead(biases.T)
            t[start : start + rows] = trans_prob(matrices, spec.v_left, v_right, self.energy)
        return float(t[0]) if values.ndim == 0 else t.reshape(values.shape)


@dataclass(frozen=True)
class SweepResult:
    """Curves on one grid: transmission[i] is T over grid at epsilons[i]
    (NaN at evanescent-lead gaps); peaks[i] its refined peak values and
    convergence[i] the distance from each reference root to the nearest
    of them in the root's cell, [midpoint to the root below, midpoint to
    the root above), open at the outer ends (inf when the cell holds no
    peak)."""

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
    near = i[:, None] + np.arange(-1, 2)
    return _golden_max(evaluator, values[near], t[near])


def _golden_max(f, x: np.ndarray, fx: np.ndarray) -> list[float]:
    """Golden-section maxima of f on the brackets [x[:, 0], x[:, 2]], in
    lockstep (see _golden_plan): f is called at most ceil(steps / 2) times,
    and not at all for brackets closed from the start.

    x holds each bracket's ends and a point between them, fx the values of
    f there (finite at the middle one); they are each bracket's first
    values in seen, the one store its plan reads.
    """
    lo, hi = x[:, 0], x[:, 2]
    c = hi - _GOLDEN * (hi - lo)
    d = lo + _GOLDEN * (hi - lo)
    tol = PEAK_REL_TOL * np.maximum(1.0, np.maximum(np.abs(lo), np.abs(hi)))
    brackets = [
        [dict(zip(xs, fs)), *s]
        for xs, fs, *s in zip(*(v.tolist() for v in (x, fx, lo, hi, c, d, tol)))
    ]
    refine(f, brackets, _golden_plan)
    return [0.5 * (s[1] + s[2]) for s in brackets]


def _golden_step(a, b, c, d, left):
    """The bracket (a, b) and its inner points (c, d) after one step; the
    new point is c after a step left and d after a step right."""
    if left:  # the maximum is left of d: drop (d, b]
        return a, d, d - _GOLDEN * (d - a), c
    return c, b, d, c + _GOLDEN * (b - c)


def _vertex(seen) -> float:
    """Vertex of the parabola through the best finite point of seen
    (x -> f) and its nearest neighbours on either side; the best point
    itself when it has no neighbour on one side or the three are collinear."""
    points = sorted(p for p in seen.items() if not math.isnan(p[1]))
    i = max(range(len(points)), key=lambda k: points[k][1])
    if not 0 < i < len(points) - 1:
        return points[i][0]
    (x0, f0), (x1, f1), (x2, f2) = points[i - 1 : i + 2]
    p, q = (x1 - x0) * (f1 - f2), (x1 - x2) * (f1 - f0)
    return x1 - 0.5 * ((x1 - x0) * p - (x1 - x2) * q) / (p - q) if p != q else x1


def _golden_plan(s) -> list[float]:
    """One round of golden section on s = [seen, a, b, c, d, tol], seen
    holding f at the seeds and at every point evaluated so far.

    It walks the steps whose compared values are in seen (fc > fd goes
    left, ties and NaN right) and stores where it stops.  An open bracket
    lists its inner points not in seen, the new points of its path to
    closure, and the new point of the other way of its first step.  On the
    path, values in seen decide as in the walk, and otherwise a step goes
    left iff c is nearer than d to the _vertex of seen.
    """
    seen, a, b, c, d, tol = s
    while (b - a) > tol and c in seen and d in seen:
        a, b, c, d = _golden_step(a, b, c, d, seen[c] > seen[d])
    s[1:5] = a, b, c, d
    if not (b - a) > tol:
        return []
    v = _vertex(seen)
    left = abs(c - v) < abs(d - v)
    step = _golden_step(a, b, c, d, not left)
    new = step[3] if left else step[2]
    other = [new] if new not in seen and (step[1] - step[0]) > tol else []
    points = [p for p in (c, d) if p not in seen]
    while True:
        a, b, c, d = _golden_step(a, b, c, d, left)
        if not (b - a) > tol:
            return points + other
        new = c if left else d
        if new not in seen:
            points.append(new)
        left = seen[c] > seen[d] if c in seen and d in seen else abs(c - v) < abs(d - v)


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
    roots = sorted(reference_roots)
    mids = [0.5 * (a + b) for a, b in zip(roots, roots[1:])]

    def cell(x):  # the number of root midpoints at or below x
        return bisect.bisect_right(mids, x)

    for eps in req.epsilons:
        t = req.transmission(grid, eps)
        rows.append(t)
        pk = tuple(
            detect_peaks(grid, t, req.peak_floor, evaluator=lambda v: req.transmission(v, eps))
        )
        peaks.append(pk)
        convergence.append(tuple(
            min((abs(p - r) for p in pk if cell(p) == cell(r)), default=math.inf)
            for r in reference_roots
        ))
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
                # no peak in the root's cell: no distance to report
                "convergence_invnm2": [c if math.isfinite(c) else None for c in conv],
            }
            for eps, pk, conv in zip(result.request.epsilons, result.peaks, result.convergence)
        ],
    }
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"
