"""Shared numerical oracles, all independent of the package's own code paths."""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from airystack.limits import TransistorSpec
from airystack.potential import LayerSpec, StructureSpec


def ode_layer_matrix(v0, v1, width, energy, rtol=1e-12, atol=1e-14):
    """Transfer matrix of a linear-profile layer by direct integration of the
    wave equation with canonical initial conditions (independent oracle)."""
    eta = (v1 - v0) / width

    def rhs(x, y):
        return [y[1], (v0 + eta * x - energy) * y[0]]

    cols = []
    for ic in ([1.0, 0.0], [0.0, 1.0]):
        sol = solve_ivp(rhs, (0.0, width), ic, method="DOP853", rtol=rtol, atol=atol)
        assert sol.success
        cols.append([sol.y[0, -1], sol.y[1, -1]])
    return np.array(cols).T


def ode_wronskian_route_matrix(v0, v1, width, energy):
    """Same layer via the generic route M(x1) M(x0)^-1 with non-canonical
    integrated solutions, exercising the Wronskian-ratio construction."""
    eta = (v1 - v0) / width

    def rhs(x, y):
        return [y[1], (v0 + eta * x - energy) * y[0]]

    cols0 = []
    cols1 = []
    for ic in ([1.0, 0.3], [0.2, 1.0]):
        sol = solve_ivp(rhs, (0.0, width), ic, method="DOP853", rtol=1e-12, atol=1e-14)
        assert sol.success
        cols0.append(ic)
        cols1.append([sol.y[0, -1], sol.y[1, -1]])
    m0 = np.array(cols0).T
    m1 = np.array(cols1).T
    return m1 @ np.linalg.inv(m0)


def rect_barrier_transmission(v, width, energy):
    """Closed-form flat-barrier transmission for zero leads, E < v."""
    import math

    k2 = energy
    q2 = v - energy
    k = math.sqrt(k2)
    q = math.sqrt(q2)
    s = math.sinh(q * width)
    return 1.0 / (1.0 + ((k2 + q2) ** 2 / (4.0 * k2 * q2)) * s * s)


def transistor_resonance_residual_product_form(
    params: TransistorSpec, v_eb: float
) -> tuple[float, float]:
    """Same condition in its three-term product form (independent coding):
    (q1 q3 / k2) T1 T2 T3 + q1 T1 + q3 T3 - k2 T2 with T2 = tan(k2 d2)."""
    if not 0.0 < v_eb < params.a3:
        raise ValueError("v_eb must lie strictly inside (0, a3)")
    q1 = math.sqrt(params.a1)
    q3 = math.sqrt(params.a3 - v_eb)
    k2 = math.sqrt(v_eb)
    t1 = math.tanh(q1 * params.d1)
    t3 = math.tanh(q3 * params.d3)
    t2 = math.tan(k2 * params.d2)
    terms = ((q1 * q3 / k2) * t1 * t2 * t3, q1 * t1, q3 * t3, -k2 * t2)
    return math.fsum(terms), sum(abs(t) for t in terms)


def barrier_well_stack(a1, d1, a2, d2, b2=0.0, v_left=0.0, v_right=None):
    """Barrier a1/d1 then well a2/d2 with bias b2, as a resonance finder takes
    it: the finder tunes layer 0's bias and sets the squeeze powers."""
    layers = (LayerSpec(a1, 0.0, d1, 1.0, 1.0), LayerSpec(a2, b2, d2, 2.0, 1.0))
    return StructureSpec(layers, v_left, v_right)


def transistor_stack(a1, a3, d1, d2, d3, v_cb, v_left=0.0, v_right=None):
    """Barrier a1/d1, flat unbiased base d2, barrier a3/d3 biased by -v_cb."""
    layers = (
        LayerSpec(a1, 0.0, d1, 1.0, 1.0),
        LayerSpec(0.0, 0.0, d2, 2.0, 0.0),
        LayerSpec(a3, -v_cb, d3, 1.0, 1.0),
    )
    return StructureSpec(layers, v_left, v_right)


@pytest.fixture
def rng():
    return np.random.default_rng(20260811)
