"""Real-argument Airy functions Ai, Bi and derivatives to ~1e-13 relative.

Two evaluation regimes, selected by |z|:

* |z| <= SERIES_RADIUS (9.0): one Taylor step of the Airy equation
  y'' = z y from the nearest node c = k/2, |z - c| <= 1/4, summed in
  plain doubles.  The node values are built at import by the same step,
  of length 1/2, from the exact Ai(0) and Ai'(0).  Each solution is
  stepped only in a direction where it does not decay, so step round-off
  never grows relative to it: Ai and Bi outward over z < 0, where both
  oscillate with the same amplitude; Bi upward over z > 0; Ai downward
  over z > 0, from z = 12 where the asymptotic expansion gives Ai'/Ai,
  rescaled to end on Ai(0).  No Taylor term exceeds about e^0.75 times
  the local amplitude and Ai is never a difference of growing solutions,
  so nothing cancels: the error is below 1e-15 of the local amplitude
  (hypot(Ai, Bi) on the oscillatory side).

* |z| > SERIES_RADIUS: Poincare asymptotic expansions, truncated at the
  smallest term.  At the crossover zeta = 18 the optimally truncated
  series is already below 1e-14 relative; accuracy improves further out.
  A radius smaller than ~7 would not work: the asymptotic error at
  |z| = 5.5 is only ~2e-9, short of the 1e-10 target.

The scaled variants remove the exp(+-zeta) factors for z > 0 so that
barrier-side evaluations never overflow: ai = ai_scaled * exp(-exponent),
bi = bi_scaled * exp(+exponent).  For z <= 0 the exponent is zero and
scaled equals unscaled.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

__all__ = [
    "AiryQuad",
    "ScaledAiryQuad",
    "airy_eval",
    "airy_eval_scaled",
    "wronskian_sweep",
    "SERIES_RADIUS",
    "Z_OVERFLOW",
]

SERIES_RADIUS = 9.0

_SQRT_PI = math.sqrt(math.pi)

# Ai(0) = 3^(-2/3) / Gamma(2/3) and Ai'(0) = -3^(-1/3) / Gamma(1/3), correctly
# rounded; Bi(0) = sqrt(3) Ai(0) and Bi'(0) = -sqrt(3) Ai'(0).
_AI0 = 0.3550280538878172
_AIP0 = -0.2588194037928068

# Taylor nodes c = k/2 for |k| <= _NODE_MAX.  For a step |t| <= 1/2 from
# |c| <= 12 the terms fall like (sqrt|c| |t|)^j / j!, below 1e-18 of the
# largest one by j = _TERMS.
_NODE_MAX = 20
_TERMS = 24


@dataclass(frozen=True)
class AiryQuad:
    """Ai, Bi, Ai', Bi' at a common real argument z."""

    ai: float
    bi: float
    ai_prime: float
    bi_prime: float
    z: float

    def wronskian_defect(self) -> float:
        """Ai*Bi' - Ai'*Bi minus the exact value 1/pi."""
        return self.ai * self.bi_prime - self.ai_prime * self.bi - 1.0 / math.pi


@dataclass(frozen=True)
class ScaledAiryQuad:
    """Airy quad with the e^{\\pm exponent} barrier factors removed.

    ai = ai_scaled * exp(-exponent), bi = bi_scaled * exp(+exponent),
    and identically for the derivatives; exponent = (2/3) z^(3/2) for
    z > 0, else 0.
    """

    ai_scaled: float
    bi_scaled: float
    ai_prime_scaled: float
    bi_prime_scaled: float
    exponent: float
    z: float


def _uv_tables(n: int) -> tuple[list[float], list[float]]:
    u = [1.0]
    v = [1.0]
    for k in range(1, n + 1):
        u.append(u[-1] * (6 * k - 5) * (6 * k - 3) * (6 * k - 1) / ((2 * k - 1) * 216.0 * k))
        v.append(u[-1] * (6 * k + 1) / (1.0 - 6 * k))
    return u, v


_U, _V = _uv_tables(40)


def _asym_pos_scaled(z: float) -> tuple[float, float, float, float, float]:
    """Scaled quad for z > SERIES_RADIUS; returns (*quad, zeta)."""
    zeta = (2.0 / 3.0) * z * math.sqrt(z)
    t = 1.0 / zeta
    sa = sb = sap = sbp = 0.0
    tk = 1.0
    prev = math.inf
    for k in range(41):
        mag = _U[k] * tk
        if abs(mag) > prev:
            break
        prev = abs(mag)
        if k & 1:
            sa -= _U[k] * tk
            sap -= _V[k] * tk
        else:
            sa += _U[k] * tk
            sap += _V[k] * tk
        sb += _U[k] * tk
        sbp += _V[k] * tk
        tk *= t
        if mag < 1e-18 * sb:
            break
    z4 = z ** 0.25
    return (
        sa / (2.0 * _SQRT_PI * z4),
        sb / (_SQRT_PI * z4),
        -z4 * sap / (2.0 * _SQRT_PI),
        z4 * sbp / _SQRT_PI,
        zeta,
    )


def _asym_neg(z: float) -> tuple[float, float, float, float]:
    """Oscillatory expansion for z < -SERIES_RADIUS (values are O(1))."""
    x = -z
    zeta = (2.0 / 3.0) * x * math.sqrt(x)
    t = 1.0 / zeta
    t2 = t * t
    pe = po = re = ro = 0.0
    tk = 1.0  # t^(2k)
    prev = math.inf
    for k in range(0, 20):
        mag = _U[2 * k] * tk
        if abs(mag) > prev:
            break
        prev = abs(mag)
        s = -1.0 if (k & 1) else 1.0
        pe += s * _U[2 * k] * tk
        po += s * _U[2 * k + 1] * tk * t
        re += s * _V[2 * k] * tk
        ro += s * _V[2 * k + 1] * tk * t
        tk *= t2
        if mag < 1e-18:
            break
    phi = zeta - 0.25 * math.pi
    c = math.cos(phi)
    s = math.sin(phi)
    x4 = x ** 0.25
    ai = (c * pe + s * po) / (_SQRT_PI * x4)
    bi = (-s * pe + c * po) / (_SQRT_PI * x4)
    aip = (s * re - c * ro) * x4 / _SQRT_PI
    bip = (c * re + s * ro) * x4 / _SQRT_PI
    return ai, aip, bi, bip


def _taylor(c: float, t: float, y: float, yp: float) -> tuple[float, float]:
    """y(c + t) and y'(c + t) for the solution of y'' = z y with y(c) = y, y'(c) = yp.

    y(c + t) = sum a_j t^j with a_0 = y, a_1 = yp and
    (j+1)(j+2) a_{j+2} = c a_j + a_{j-1}, summed by Horner.
    """
    a = [y, yp, 0.5 * c * y]
    for j in range(1, _TERMS - 2):
        a.append((c * a[j] + a[j - 1]) / ((j + 1) * (j + 2)))
    val = der = 0.0
    for j in range(_TERMS - 1, 0, -1):
        val = val * t + a[j]
        der = der * t + j * a[j]
    return val * t + a[0], der


def _walk(c: float, step: float, count: int, y: float, yp: float) -> list[tuple[float, float]]:
    """(y, y') at c + i * step, i = 0 .. count, for the solution with y(c) = y, y'(c) = yp."""
    path = [(y, yp)]
    for i in range(count):
        path.append(_taylor(c + i * step, step, *path[-1]))
    return path


def _build_nodes() -> list[tuple[float, float, float, float]]:
    """(Ai, Ai', Bi, Bi') at c = k/2, stored at index k + _NODE_MAX."""
    n = _NODE_MAX
    bi0 = (math.sqrt(3.0) * _AI0, -math.sqrt(3.0) * _AIP0)
    bi = _walk(0.0, -0.5, n, *bi0)[::-1] + _walk(0.0, 0.5, n, *bi0)[1:]
    # any Bi admixture in the asymptotic start shrinks by e^-55 on the way down
    ai_s, _, aip_s, _, _ = _asym_pos_scaled(12.0)
    down = _walk(12.0, -0.5, 24, ai_s, aip_s)[::-1]
    scale = _AI0 / down[0][0]
    ai = _walk(0.0, -0.5, n, _AI0, _AIP0)[::-1]
    ai += [(scale * y, scale * yp) for y, yp in down[1:n + 1]]
    return [a + b for a, b in zip(ai, bi)]


_NODES = _build_nodes()


def _series_quad(z: float) -> tuple[float, float, float, float]:
    """(Ai, Ai', Bi, Bi') by one Taylor step from the nearest node, |z| <= ~10."""
    k = round(2.0 * z)
    c = 0.5 * k
    ai, aip, bi, bip = _NODES[k + _NODE_MAX]
    ai, aip = _taylor(c, z - c, ai, aip)
    bi, bip = _taylor(c, z - c, bi, bip)
    return ai, aip, bi, bip


def _find_overflow_argument() -> float:
    # Largest z for which unscaled Bi(z) ~ e^zeta / (sqrt(pi) z^(1/4)) is
    # representable; solved at import from the float range, not hardcoded.
    log_max = math.log(sys.float_info.max)
    z = 100.0
    for _ in range(6):
        z = (1.5 * (log_max + math.log(_SQRT_PI) + 0.25 * math.log(z))) ** (2.0 / 3.0)
    return z


Z_OVERFLOW = _find_overflow_argument()


def _scaled_quad(z: float) -> tuple[tuple[float, float, float, float], float]:
    """Scaled (ai, aip, bi, bip) at finite z and the exponent removed from them."""
    if not math.isfinite(z):
        raise ValueError(f"Airy functions need finite z, got {z!r}")
    if z > SERIES_RADIUS:
        ai, bi, aip, bip, zeta = _asym_pos_scaled(z)
        return (ai, aip, bi, bip), zeta
    if z < -SERIES_RADIUS:
        return _asym_neg(z), 0.0
    ai, aip, bi, bip = _series_quad(z)
    if z <= 0.0:
        return (ai, aip, bi, bip), 0.0
    # 0 < z <= SERIES_RADIUS: zeta <= 18, both factors representable
    zeta = (2.0 / 3.0) * z * math.sqrt(z)
    ep, em = math.exp(zeta), math.exp(-zeta)
    return (ai * ep, aip * ep, bi * em, bip * em), zeta


def airy_eval(z: float) -> AiryQuad:
    """Ai, Bi, Ai', Bi' at real z (unscaled).

    Raises OverflowError for z > Z_OVERFLOW where unscaled Bi exceeds the
    float range; use airy_eval_scaled there instead.
    """
    (ai, aip, bi, bip), zeta = _scaled_quad(z)
    if z > Z_OVERFLOW:
        raise OverflowError(
            f"unscaled Airy values overflow for z = {z!r} > {Z_OVERFLOW:.2f}; "
            "use airy_eval_scaled"
        )
    em, ep = math.exp(-zeta), math.exp(zeta)
    return AiryQuad(ai=ai * em, bi=bi * ep, ai_prime=aip * em, bi_prime=bip * ep, z=z)


def airy_eval_scaled(z: float) -> ScaledAiryQuad:
    """Scaled Airy quad, finite for every representable z."""
    (ai, aip, bi, bip), zeta = _scaled_quad(z)
    return ScaledAiryQuad(ai, bi, aip, bip, zeta, z)


def wronskian_sweep(lo: float = -20.0, hi: float = 8.0, n: int = 2000):
    """Max |Ai*Bi' - Ai'*Bi - 1/pi| over a uniform grid, plus per-regime maxima.

    Returns (max_defect, {regime_name: max_defect}).
    """
    worst = 0.0
    per_regime = {"series": 0.0, "oscillatory": 0.0, "exponential": 0.0}
    for i in range(n):
        z = lo + (hi - lo) * i / (n - 1)
        d = abs(airy_eval(z).wronskian_defect())
        if abs(z) <= SERIES_RADIUS:
            regime = "series"
        elif z < 0:
            regime = "oscillatory"
        else:
            regime = "exponential"
        if d > per_regime[regime]:
            per_regime[regime] = d
        if d > worst:
            worst = d
    return worst, per_regime
