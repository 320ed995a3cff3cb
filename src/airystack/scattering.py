"""Reflection/transmission amplitudes and probabilities from a transfer matrix.

Probabilities are computed from the real combinations p and q rather than
from |amplitude|^2, which avoids catastrophic cancellation at near-total
reflection.  R + T = 1 holds exactly for the formulas; R and T are each
rounded on their own, so their computed sum is 1 to within a few ulps.
`trans_prob` is the one definition of T, elementwise over (..., 2, 2)
arrays of transfer matrices (it computes no R); `scatter` takes one (2, 2)
matrix on floats and adds R and the amplitudes.  Their arithmetic, `_terms`,
also gives each resonance root's T_n from its limit matrix (resonance._root).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EvanescentLeadError

__all__ = ["ScatteringResult", "scatter", "trans_prob"]


@dataclass(frozen=True)
class ScatteringResult:
    r_left: complex
    t_left: complex
    r_right: complex
    t_right: complex
    refl_prob: float
    trans_prob: float
    k_left: float
    k_right: float


def _terms(l11, l12, l21, l22, k_l, k_r):
    """(p, q, 4 k_l / k_r, 4 k_l / k_r + p^2 + q^2) of the matrix elements
    between leads of wavenumbers k_l and k_r, on floats or arrays; T is
    4 k_l / k_r over the last, R is p^2 + q^2 over it."""
    ratio = k_l / k_r
    p = l11 - ratio * l22
    q = k_l * l12 + l21 / k_r
    four_r = 4.0 * ratio
    return p, q, four_r, four_r + p * p + q * q


def trans_prob(matrices, v_left, v_right, energy: float) -> np.ndarray:
    """Transmission probability elementwise over matrices (..., 2, 2) and
    lead potentials that broadcast with them; NaN where energy is not
    strictly above both leads."""
    m = np.asarray(matrices, dtype=float)
    l11, l12, l21, l22 = m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1]
    v_left, v_right = np.asarray(v_left, dtype=float), np.asarray(v_right, dtype=float)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        k_l, k_r = np.sqrt(energy - v_left), np.sqrt(energy - v_right)
        _, _, four_r, denom = _terms(l11, l12, l21, l22, k_l, k_r)
        trans = np.where(np.isinf(denom), 0.0, four_r / denom)  # total reflection
    return np.where((energy > v_left) & (energy > v_right), trans, math.nan)


def scatter(matrix, v_left: float, v_right: float, energy: float) -> ScatteringResult:
    """Scatter a plane wave against the structure matrix, any (2, 2)
    array-like.

    Both leads must be propagating: energy strictly above each lead
    potential.  Bound states and evanescent leads are out of scope.
    """
    if energy <= v_left or energy <= v_right:
        raise EvanescentLeadError(
            f"energy {energy!r} not above lead potentials ({v_left!r}, {v_right!r})"
        )
    (l11, l12), (l21, l22) = np.asarray(matrix, dtype=float).tolist()
    k_l, k_r = math.sqrt(energy - v_left), math.sqrt(energy - v_right)
    p, q, four_r, denom = _terms(l11, l12, l21, l22, k_l, k_r)
    total = math.isinf(denom)  # total reflection
    refl = 1.0 if total else (p * p + q * q) / denom
    trans = 0.0 if total else four_r / denom
    ratio = k_l / k_r
    d = complex(l11 + ratio * l22, -(k_l * l12 - l21 / k_r))
    return ScatteringResult(
        r_left=-(p + 1j * q) / d,
        t_left=2.0 * ratio / d,
        r_right=(p - 1j * q) / d,
        t_right=2.0 / d,
        refl_prob=refl,
        trans_prob=trans,
        k_left=k_l,
        k_right=k_r,
    )
