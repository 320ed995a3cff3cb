"""2x2 transfer matrices for constant and linear potential layers.

The matrix maps (psi, psi') at the left edge of a layer to the right
edge; a structure's matrix is the right-to-left product over its layers.
All matrices are real with unit determinant.  Evanescent regions go
through the hyperbolic / Airy representations, never complex wavenumbers.

A transfer matrix is a float array of shape (..., 2, 2).  One array path
builds every matrix: `structure_matrices` takes edge potentials of any
shape whose last axis runs over the layers, builds a matrix per layer and
multiplies them along that axis; a one-layer axis gives the layer's own
matrix.  The matrices are stored element-major, (2, 2, ...), so each
element is one long row, and the product is a (..., 2, 2) view of it.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass

import numpy as np

from .airy import _exp, _libm, airy_eval_scaled
from .errors import DegenerateSlopeError
from .potential import ConcreteLayer

__all__ = [
    "AiryLayerParams",
    "structure_matrices",
    "airy_layer_params",
    "slope_is_degenerate",
]


@dataclass(frozen=True)
class AiryLayerParams:
    """Airy-variable geometry of one linear layer: sigma is the sign-carrying
    cube root of the slope, and z = -(E - V) / sigma^2 at either edge, so that
    z_right - z_left = sigma * width."""

    sigma: float
    z_left: float
    z_right: float


def _degenerate(v_left, v_right, energy):
    dv = np.abs(v_right - v_left)
    return dv < 1e-9 * np.maximum(np.maximum(1.0, np.abs(v_left)), abs(energy))


def slope_is_degenerate(layer: ConcreteLayer, energy: float) -> bool:
    """True when the tilt is too small for the Airy route to be stable.

    sigma -> 0 makes the Airy elements 0*inf-indeterminate well before
    the limit matrix stops being finite, so below this threshold the
    constant-profile formula is the accurate branch (for perfbench/make_reference.py).
    """
    return bool(_degenerate(layer.v_left_edge, layer.v_right_edge, energy))


def _airy_geometry(v_left, v_right, width, energy) -> AiryLayerParams:
    """AiryLayerParams elementwise over arrays of non-degenerate layers."""
    eta = (v_right - v_left) / width
    sigma = np.copysign(_libm(math.pow, np.abs(eta), 1.0 / 3.0), eta)
    s2 = sigma * sigma
    return AiryLayerParams(
        sigma=sigma, z_left=-(energy - v_left) / s2, z_right=-(energy - v_right) / s2
    )


def airy_layer_params(layer: ConcreteLayer, energy: float) -> AiryLayerParams:
    """Airy geometry of one tilted layer, for perfbench/make_reference.py;
    DegenerateSlopeError when its tilt is too small (`slope_is_degenerate`)."""
    if slope_is_degenerate(layer, energy):
        raise DegenerateSlopeError(f"slope {layer.slope!r} below threshold")
    p = _airy_geometry(
        np.array([layer.v_left_edge]), np.array([layer.v_right_edge]), layer.width, energy
    )
    return AiryLayerParams(*(float(x[0]) for x in astuple(p)))


def _constant(v_left, v_right, width, energy) -> tuple:
    """Flat-layer matrices at the mid potential: trig above it, hyperbolic below."""
    k2 = energy - 0.5 * (v_left + v_right)
    above, below = k2 > 0.0, k2 < 0.0
    k = np.sqrt(np.abs(k2))
    kw = k * width
    c, s = np.cos(kw), np.sin(kw)
    c[below], s[below] = _libm(math.cosh, kw[below]), _libm(math.sinh, kw[below])
    c[~(above | below)] = 1.0
    return (
        c,
        np.where(above | below, s / k, width),
        np.where(above, -k * s, np.where(below, k * s, 0.0)),
        c,
    )


def _combine(c_a, w_a, c_b, w_b, w_m):
    # c_a * exp(e_a) - c_b * exp(e_b) with the common scale exp(m) factored
    # out, w = exp(e - m), so barrier-side products never overflow before
    # the result does.
    return (c_a * w_a - c_b * w_b) * w_m


def _weights(za: np.ndarray, zb: np.ndarray) -> tuple[np.ndarray, ...]:
    """exp(za - zb - m), exp(zb - za - m) and exp(m), m the larger of the
    two exponents that every element combines."""
    up, down = za - zb, zb - za
    m = np.maximum(up, down)
    return _exp(up - m), _exp(down - m), _exp(m)


def _linear(sigma: np.ndarray, z: np.ndarray) -> tuple:
    """Tilted-layer matrices from scaled Airy products, for the layers'
    sigma and their Airy arguments z, left edges then right.

    Each element is a pi-weighted difference of Ai/Bi cross products at
    the two edge arguments.  The exponents e^{\\pm zeta} are summed
    symbolically first: Ai-type factors contribute -zeta, Bi-type +zeta,
    and only the combined exponent is ever exponentiated.  Both edges of
    every layer go through one Airy call.
    """
    n = sigma.size
    q = airy_eval_scaled(z)
    ai_a, ai_b = q.ai_scaled[:n], q.ai_scaled[n:]
    bi_a, bi_b = q.bi_scaled[:n], q.bi_scaled[n:]
    aip_a, aip_b = q.ai_prime_scaled[:n], q.ai_prime_scaled[n:]
    bip_a, bip_b = q.bi_prime_scaled[:n], q.bi_prime_scaled[n:]
    w_up, w_down, w_m = _weights(q.exponent[:n], q.exponent[n:])
    pi = math.pi
    return (
        pi * _combine(ai_b * bip_a, w_up, aip_a * bi_b, w_down, w_m),
        (pi / sigma) * _combine(ai_a * bi_b, w_down, ai_b * bi_a, w_up, w_m),
        sigma * pi * _combine(aip_b * bip_a, w_up, aip_a * bip_b, w_down, w_m),
        pi * _combine(ai_a * bip_b, w_down, aip_b * bi_a, w_up, w_m),
    )


def _elements(v_left, v_right, width, energy: float) -> np.ndarray:
    """Matrices of linear-profile layers, element-major: shape (2, 2, *s)
    for broadcast edge potentials of shape s.  A layer whose tilt is
    degenerate takes the flat formula at its mid potential; every other
    layer the Airy formula.  A non-finite element is an OverflowError."""
    v_left, v_right, width = np.broadcast_arrays(
        np.asarray(v_left, dtype=float), np.asarray(v_right, dtype=float),
        np.asarray(width, dtype=float),
    )
    shape = v_left.shape
    v_left, v_right, width = v_left.ravel(), v_right.ravel(), width.ravel()
    flat = _degenerate(v_left, v_right, energy)
    parts = []
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if not flat.all():  # first, so that no output is held while the Airy call runs
            tilted = ~flat
            p = _airy_geometry(v_left[tilted], v_right[tilted], width[tilted], energy)
            # a layer with an infinite Airy argument z is not filled: it stays NaN
            finite = np.isfinite(p.z_left) & np.isfinite(p.z_right)
            tilted[tilted] = finite
            z = np.concatenate([p.z_left[finite], p.z_right[finite]])
            parts.append((tilted, _linear(p.sigma[finite], z)))
            del p, z
        if flat.any():
            parts.append((flat, _constant(v_left[flat], v_right[flat], width[flat], energy)))
    m = np.full((2, 2, v_left.size), np.nan)
    for where, values in parts:
        for row, value in zip(m.reshape(4, v_left.size), values):
            row[where] = value
    if not np.isfinite(m).all():
        raise OverflowError("a slope, k * w, Airy z, exponent or phase past the largest double")
    return m.reshape((2, 2) + shape)


def structure_matrices(v_left, v_right, width, energy: float) -> np.ndarray:
    """Right-to-left products Lambda_N ... Lambda_1 along the last axis of
    the edge potentials (the layers); shape (..., 2, 2), a view of the
    element-major product."""
    m = _elements(v_left, v_right, width, energy)
    total = m[..., 0]
    for i in range(1, m.shape[-1]):
        # (A T)_jk = A_j1 T_1k + A_j2 T_2k, each element in one broadcast term
        total = m[:, :1, ..., i] * total[:1] + m[:, 1:, ..., i] * total[1:]
    return np.moveaxis(total, (0, 1), (-2, -1))
