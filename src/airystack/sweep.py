"""Squeezing sweeps: exact transmission curves over a tuned bias, per epsilon.

A sweep varies one layer's bias over a grid, computes the exact
Airy-based transmission at each squeeze parameter in the schedule,
detects and refines transmission peaks, and reports per-peak distances
to an analytic resonance set when one is supplied.  Evanescent-lead
grid points are recorded as gaps (NaN transmission), not failures.
Evaluation is sequential and pure, so identical requests give identical
results byte for byte.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .potential import StructureSpec, invnm2_to_ev, realize
from .scattering import scatter
from .errors import EvanescentLeadError
from .transfer import structure_matrix

__all__ = [
    "SweepRequest",
    "SweepResult",
    "run_sweep",
    "detect_peaks",
    "sweep_to_csv",
    "sweep_to_json",
]


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
        for value in (self.grid_lo, self.grid_hi):
            spec = self.structure.replace_bias(self.tuned_layer, self.tuned_sign * value)
            for eps in self.epsilons:
                realize(spec, eps)

    def transmission(self, value: float, epsilon: float) -> float:
        """Exact transmission at one grid value; NaN for evanescent leads."""
        spec = self.structure.replace_bias(self.tuned_layer, self.tuned_sign * value)
        v_l, v_r = spec.lead_potentials()
        try:
            res = scatter(
                structure_matrix(realize(spec, epsilon), self.energy),
                v_l,
                v_r,
                self.energy,
            )
        except EvanescentLeadError:
            return math.nan
        return res.trans_prob


@dataclass(frozen=True)
class SweepResult:
    request: SweepRequest
    curves: tuple[tuple[tuple[float, float], ...], ...]  # per eps: (value, T)
    peaks: tuple[tuple[float, ...], ...]  # per eps: refined peak values
    reference_roots: tuple[float, ...]
    convergence: tuple[tuple[float, ...], ...] = field(default=())
    # per eps: |nearest peak - root| for each reference root


def detect_peaks(
    curve: list[tuple[float, float]],
    floor: float,
    evaluator=None,
    rel_tol: float = 1e-6,
) -> list[float]:
    """Strict local maxima above the floor, golden-section refined.

    The curve must be sorted by value; NaN gaps split it.  When an
    evaluator (continuous T(value)) is given, each grid maximum is
    refined within its bracketing neighbours to rel_tol in position.
    """
    n = len(curve)
    out = []
    for i in range(1, n - 1):
        x0, t0 = curve[i - 1]
        x1, t1 = curve[i]
        x2, t2 = curve[i + 1]
        if math.isnan(t0) or math.isnan(t1) or math.isnan(t2):
            continue
        if t1 > t0 and t1 > t2 and t1 > floor:
            if evaluator is None:
                out.append(x1)
            else:
                out.append(_golden_max(evaluator, x0, x2, rel_tol))
    return out


def _golden_max(f, lo: float, hi: float, rel_tol: float) -> float:
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


def run_sweep(
    req: SweepRequest, reference_roots: tuple[float, ...] = ()
) -> SweepResult:
    """Execute the scenario over every epsilon in schedule order."""
    values = [
        req.grid_lo + (req.grid_hi - req.grid_lo) * i / (req.grid_points - 1)
        for i in range(req.grid_points)
    ]
    curves = []
    peaks = []
    convergence = []
    for eps in req.epsilons:
        curve = tuple((v, req.transmission(v, eps)) for v in values)
        curves.append(curve)
        pk = tuple(
            detect_peaks(
                list(curve), req.peak_floor, evaluator=lambda v: req.transmission(v, eps)
            )
        )
        peaks.append(pk)
        if reference_roots:
            convergence.append(
                tuple(
                    min(abs(p - r) for p in pk) if pk else math.inf
                    for r in reference_roots
                )
            )
    return SweepResult(
        request=req,
        curves=tuple(curves),
        peaks=tuple(peaks),
        reference_roots=tuple(reference_roots),
        convergence=tuple(convergence),
    )


def sweep_to_csv(result: SweepResult) -> str:
    """Locale-independent CSV: epsilon, tuned value (eV and nm^-2), T, R."""
    lines = ["epsilon,tuned_value_eV,tuned_value_invnm2,T,R"]
    for eps, curve in zip(result.request.epsilons, result.curves):
        for v, t in curve:
            r = "" if math.isnan(t) else repr(1.0 - t)
            t_str = "" if math.isnan(t) else repr(t)
            lines.append(f"{eps!r},{invnm2_to_ev(v)!r},{v!r},{t_str},{r}")
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
            for eps, pk, conv in zip(
                result.request.epsilons,
                result.peaks,
                result.convergence
                if result.convergence
                else [()] * len(result.peaks),
            )
        ],
    }
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"
