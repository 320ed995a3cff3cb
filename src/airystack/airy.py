"""Real-argument Airy functions Ai, Bi and derivatives to ~1e-13 relative.

Two evaluation regimes, selected by |z|:

* |z| <= SERIES_RADIUS (12.0): one Taylor step of the Airy equation
  y'' = z y from the nearest node c = k/2, |k| <= 24, |z - c| <= 1/4,
  summed in plain doubles by Horner over per-node coefficient tables.
  The node values are built on first use by the same step, of length
  1/2, from the exact Ai(0) and Ai'(0).  Each solution is
  stepped only in a direction where it does not decay, so step round-off
  never grows relative to it: Ai and Bi outward over z < 0, where both
  oscillate with the same amplitude; Bi upward over z > 0; Ai downward
  over z > 0, from z = 14 where the asymptotic expansion gives Ai'/Ai,
  rescaled to end on Ai(0).  No Taylor term exceeds about e^0.9 times
  the local amplitude and Ai is never a difference of growing solutions,
  so nothing cancels: the error is below 1e-15 of the local amplitude
  (hypot(Ai, Bi) on the oscillatory side).

* |z| > SERIES_RADIUS: Poincare asymptotic expansions in u_k zeta^-k
  (DLMF 9.7), each element's sum cut where its term falls below 1e-18,
  under half an ulp of every sum (all four are >= 0.99).  The radius is
  12, where zeta = (2/3) 12^(3/2) = 27.7, because up to there the Taylor
  step is the more accurate of the two: over 9 < |z| <= 12 it stays below
  1e-15 of the local amplitude, where the optimally truncated expansions
  read up to 6e-15.  Just past it the floor ends the exponential sums
  after 20 terms and the oscillatory ones after 11 pairs, u_0 .. u_21,
  the whole table; further out it ends them sooner.  The smallest term,
  near k = 2 zeta >= 55 as u_(k+1)/u_k ~ k/2, lies far past the table.

The one entry point, airy_eval_scaled, removes the exp(+-zeta) factors
for z > SERIES_RADIUS so that barrier-side evaluations never overflow:
ai = ai_scaled * exp(-exponent), bi = bi_scaled * exp(+exponent).  For
z <= SERIES_RADIUS the exponent is zero and the scaled values are Ai, Bi
themselves: there e^zeta <= e^27.7 ~ 1e12 needs no removing.
The transfer matrices use the scaled quad only, and wronskian_sweep checks
Ai Bi' - Ai' Bi = 1/pi on it directly, where the factors cancel exactly.
The ~1e-13 is that of the quad; a tilted layer's matrix, built from the
quads at its two edges, loses more than that where zeta is large, as its
error grows like ulp(zeta).

Every function takes an array of arguments and works elementwise; a float
argument is a batch of one and gives floats back.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ScaledAiryQuad",
    "airy_eval_scaled",
    "wronskian_sweep",
    "SERIES_RADIUS",
]

SERIES_RADIUS = 12.0

_SQRT_PI = math.sqrt(math.pi)

# Ai(0) = 3^(-2/3) / Gamma(2/3) and Ai'(0) = -3^(-1/3) / Gamma(1/3), correctly
# rounded; Bi(0) = sqrt(3) Ai(0) and Bi'(0) = -sqrt(3) Ai'(0).
_AI0 = 0.3550280538878172
_AIP0 = -0.2588194037928068

# Taylor nodes c = k/2 for |k| <= _NODE_MAX, reaching +-SERIES_RADIUS.  For
# a step |t| <= 1/2 from |c| <= 14 the terms fall like (sqrt|c| |t|)^j / j!,
# below 1e-17 of the largest one by j = _TERMS.
_NODE_MAX = 24
_TERMS = 24


@dataclass(frozen=True)
class ScaledAiryQuad:
    """Airy quad with the e^{\\pm exponent} barrier factors removed.

    ai = ai_scaled * exp(-exponent), bi = bi_scaled * exp(+exponent),
    and identically for the derivatives; exponent = (2/3) z^(3/2) for
    z > SERIES_RADIUS, else 0.
    """

    ai_scaled: float
    ai_prime_scaled: float
    bi_scaled: float
    bi_prime_scaled: float
    exponent: float


def _libm(fn, x: np.ndarray, *consts: float) -> np.ndarray:
    """fn(x, *consts) from the math module, element by element.

    numpy's vectorised exp, power, cosh and sinh round differently from the
    platform libm at a few per cent of arguments.  Transfer products over
    long stacks magnify such ulps by 1e4 and more, so the kernels take these
    functions from math and every element rounds as a float expression does.
    """
    values = map(fn, memoryview(np.ascontiguousarray(x).ravel()), *map(itertools.repeat, consts))
    return np.fromiter(values, float, x.size).reshape(x.shape)


def _exp(x: np.ndarray) -> np.ndarray:
    """math.exp element by element, 1.0 without a call where x is zero:
    math.exp(+-0.0) is exactly 1, so every element keeps its bits."""
    out = np.ones(x.shape)
    nonzero = x != 0.0
    if nonzero.any():
        out[nonzero] = _libm(math.exp, x[nonzero])
    return out


def _uv_tables(n: int) -> tuple[list[float], list[float]]:
    u = [1.0]
    v = [1.0]
    for k in range(1, n + 1):
        u.append(u[-1] * (6 * k - 5) * (6 * k - 3) * (6 * k - 1) / ((2 * k - 1) * 216.0 * k))
        v.append(u[-1] * (6 * k + 1) / (1.0 - 6 * k))
    return u, v


_U, _V = _uv_tables(21)


def _zeta(z: np.ndarray) -> np.ndarray:
    """zeta = (2/3) |z|^(3/2), the phase or exponent of the expansions; inf
    where it is past the largest double."""
    size = np.abs(z)
    with np.errstate(over="ignore"):
        return (2.0 / 3.0) * size * np.sqrt(size)


def _regimes(z: np.ndarray) -> dict[str, np.ndarray]:
    """Masks of the series (|z| <= SERIES_RADIUS), oscillatory and exponential
    regimes over z, in that order."""
    return {
        "series": np.abs(z) <= SERIES_RADIUS,
        "oscillatory": z < -SERIES_RADIUS,
        "exponential": z > SERIES_RADIUS,
    }


def _powers(t: np.ndarray, lead: list[float]):
    """t^k for k = 0, 1, ..., element by element, for a sum of terms
    lead[k] t^k: an element's power is 0 from the step after its term
    falls below 1e-18.  Stops once every power is 0 or lead ends."""
    tk = np.ones_like(t)
    for coefficient in lead:
        yield tk
        tk = np.where(coefficient * tk >= 1e-18, tk * t, 0.0)
        if not tk.any():
            return


def _asym_pos(z: np.ndarray) -> tuple[np.ndarray, ...]:
    """Scaled (ai, aip, bi, bip) for z > SERIES_RADIUS and their exponent zeta,
    each sum u_k zeta^-k (v_k for the derivatives) cut by _powers."""
    zeta = _zeta(z)
    sa, sb, sap, sbp = (np.zeros_like(z) for _ in range(4))
    for k, tk in enumerate(_powers(1.0 / zeta, _U)):
        term = _U[k] * tk
        term_v = _V[k] * tk
        if k & 1:
            sa -= term
            sap -= term_v
        else:
            sa += term
            sap += term_v
        sb += term
        sbp += term_v
    z4 = _libm(math.pow, z, 0.25)
    return (
        sa / (2.0 * _SQRT_PI * z4),
        -z4 * sap / (2.0 * _SQRT_PI),
        sb / (_SQRT_PI * z4),
        z4 * sbp / _SQRT_PI,
        zeta,
    )


def _asym_neg(z: np.ndarray) -> tuple[np.ndarray, ...]:
    """Oscillatory expansion for z < -SERIES_RADIUS (values are O(1)):
    (ai, aip, bi, bip), its sums taken in pairs (u_2k, u_2k+1), cut by
    _powers on the even term."""
    zeta = _zeta(z)
    x4 = _libm(math.pow, -z, 0.25)
    t = 1.0 / zeta
    pe, po, re, ro = (np.zeros_like(z) for _ in range(4))
    for k, tk in enumerate(_powers(t * t, _U[::2])):  # tk = t^(2k)
        s = -1.0 if (k & 1) else 1.0
        pe += s * _U[2 * k] * tk
        po += s * _U[2 * k + 1] * tk * t
        re += s * _V[2 * k] * tk
        ro += s * _V[2 * k + 1] * tk * t
    phi = zeta - 0.25 * math.pi
    c = np.cos(phi)
    s = np.sin(phi)
    ai = (c * pe + s * po) / (_SQRT_PI * x4)
    bi = (-s * pe + c * po) / (_SQRT_PI * x4)
    aip = (s * re - c * ro) * x4 / _SQRT_PI
    bip = (c * re + s * ro) * x4 / _SQRT_PI
    return ai, aip, bi, bip


def _coefficients(c, y, yp) -> list:
    """Taylor coefficients a_0 .. a_{_TERMS-1} about c of the solution of
    y'' = z y with y(c) = y, y'(c) = yp: (j+1)(j+2) a_{j+2} = c a_j + a_{j-1}.
    Elementwise: c, y, yp may be floats or arrays."""
    a = [y, yp, 0.5 * c * y]
    for j in range(1, _TERMS - 2):
        a.append((c * a[j] + a[j - 1]) / ((j + 1) * (j + 2)))
    return a


def _tail(row, t):
    """Sum of row(j) t^(j-1) over j = 1 .. _TERMS-1, by Horner from the top.
    Elementwise: row(j) and t may be floats or arrays."""
    acc = 0.0
    for j in range(_TERMS - 1, 0, -1):
        acc *= t  # in place once acc is an array
        acc += row(j)
    return acc


def _walk(c: float, step: float, count: int, y: float, yp: float) -> list[tuple[float, float]]:
    """(y, y') at c + i * step, i = 0 .. count, for the solution with y(c) = y, y'(c) = yp."""
    path = [(y, yp)]
    for i in range(count):
        a = _coefficients(c + i * step, *path[-1])
        der = [j * aj for j, aj in enumerate(a)]
        path.append((_tail(a.__getitem__, step) * step + a[0], _tail(der.__getitem__, step)))
    return path


def _build_nodes() -> list[tuple[float, float, float, float]]:
    """(Ai, Ai', Bi, Bi') at c = k/2, stored at index k + _NODE_MAX."""
    n = _NODE_MAX
    bi0 = (math.sqrt(3.0) * _AI0, -math.sqrt(3.0) * _AIP0)
    bi = _walk(0.0, -0.5, n, *bi0)[::-1] + _walk(0.0, 0.5, n, *bi0)[1:]
    # any Bi admixture in the asymptotic start shrinks by e^-14 by z = 12
    ai_s, aip_s = (float(x[0]) for x in _asym_pos(np.array([14.0]))[:2])
    down = _walk(14.0, -0.5, 28, ai_s, aip_s)[::-1]
    scale = _AI0 / down[0][0]
    ai = _walk(0.0, -0.5, n, _AI0, _AIP0)[::-1]
    ai += [(scale * y, scale * yp) for y, yp in down[1:n + 1]]
    return [a + b for a, b in zip(ai, bi)]


@functools.cache
def _node_table() -> list[np.ndarray]:
    """Row j, shape (2 _NODE_MAX + 1, 4): a_j of Ai and Bi at every node,
    then j a_j of both (the derivative's coefficients), from the same
    recursion the nodes were stepped by.  Built on first use, so that a
    program that evaluates no Airy function does not pay for it."""
    nodes = np.array(_build_nodes())
    c = 0.5 * np.arange(-_NODE_MAX, _NODE_MAX + 1.0)[:, None]
    a = _coefficients(c, nodes[:, 0::2], nodes[:, 1::2])
    return [np.hstack([aj, j * aj]) for j, aj in enumerate(a)]


def _series(z: np.ndarray) -> tuple[np.ndarray, ...]:
    """(Ai, Ai', Bi, Bi') by one Taylor step from the nearest node."""
    k = np.rint(2.0 * z)  # half to even, as round()
    t = z - 0.5 * k
    index = k.astype(np.intp) + _NODE_MAX
    table = _node_table()

    def row(j):
        return table[j].take(index, axis=0)

    acc = _tail(row, np.repeat(t[:, None], 4, axis=1))
    ai, bi = acc[:, :2].T * t + row(0)[:, :2].T
    return ai, acc[:, 2], bi, acc[:, 3]


def airy_eval_scaled(z) -> ScaledAiryQuad:
    """Scaled Airy quad, finite for every representable z; elementwise over
    an array z (floats for a float z).  Every z must be finite."""
    z_arr = np.asarray(z, dtype=float)
    if not np.isfinite(z_arr).all():
        bad = z_arr[~np.isfinite(z_arr)].flat[0]
        raise ValueError(f"Airy functions need finite z, got {float(bad)!r}")
    flat = z_arr.ravel()
    # only _asym_pos gives a fifth row, the exponent: it stays 0 elsewhere
    quad = [np.zeros(flat.size) for _ in range(5)]
    for where, kernel in zip(_regimes(flat).values(), (_series, _asym_neg, _asym_pos)):
        if where.any():
            for row, value in zip(quad, kernel(flat[where])):
                row[where] = value
    if z_arr.ndim == 0:
        return ScaledAiryQuad(*(row.item() for row in quad))
    return ScaledAiryQuad(*(row.reshape(z_arr.shape) for row in quad))


def wronskian_sweep(lo: float = -20.0, hi: float = 20.0, n: int = 4001):
    """Max |Ai*Bi' - Ai'*Bi - 1/pi| over a uniform grid, plus per-regime maxima
    (0.0 for a regime the grid misses).  The default grid reaches into all
    three regimes.

    Returns (max_defect, {regime_name: max_defect}).
    """
    z = lo + (hi - lo) * np.arange(n) / (n - 1)
    # the e^-zeta of Ai, Ai' and the e^+zeta of Bi, Bi' cancel in each product
    q = airy_eval_scaled(z)
    wronskian = q.ai_scaled * q.bi_prime_scaled - q.ai_prime_scaled * q.bi_scaled
    defect = np.abs(wronskian - 1.0 / math.pi)
    per_regime = {name: float(defect[mask].max(initial=0.0)) for name, mask in _regimes(z).items()}
    return float(defect.max(initial=0.0)), per_regime
