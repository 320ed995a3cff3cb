"""Transfer matrices: examples, determinant law, ODE-oracle equivalence."""

import math

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from airystack.errors import DegenerateSlopeError
from airystack.potential import ConcreteLayer, LayerSpec, StructureSpec, stack_potentials
from airystack.transfer import airy_layer_params, slope_is_degenerate, structure_matrices

from conftest import (
    det,
    layer_matrices,
    mixed_stack,
    ode_transfer_matrix,
    ode_wronskian_route_matrix,
    structure_matrix,
)


def max_rel_err(m: np.ndarray, ref: np.ndarray) -> float:
    return float(np.max(np.abs(m - ref) / np.maximum(1.0, np.abs(ref))))


def test_constant_half_period():
    m = layer_matrices(0.0, 0.0, math.pi, 1.0)
    assert m.shape == (2, 2)
    assert m[0, 0] == pytest.approx(-1.0, abs=1e-12)
    assert m[1, 1] == pytest.approx(-1.0, abs=1e-12)
    assert abs(m[0, 1]) < 1e-12 and abs(m[1, 0]) < 1e-12


def test_constant_zero_width_limit():
    m = layer_matrices(0.0, 0.0, 1e-12, 1.0)
    assert m[0, 0] == pytest.approx(1.0)
    assert m[0, 1] == pytest.approx(1e-12, rel=1e-9)
    assert m[1, 0] == pytest.approx(0.0, abs=1e-10)


def test_constant_hyperbolic_branch():
    # oracle: cosh/sinh of sqrt(0.5); frozen values below
    m = layer_matrices(1.0, 1.0, 1.0, 0.5)
    q = math.sqrt(0.5)
    assert m[0, 0] == pytest.approx(math.cosh(q), rel=1e-14)
    assert m[1, 0] == pytest.approx(q * math.sinh(q), rel=1e-14)
    assert m[0, 0] == pytest.approx(1.2605918365213562, rel=1e-12)
    assert m[1, 0] == pytest.approx(0.5427208206363036, rel=1e-12)
    assert det(m) == pytest.approx(1.0, rel=1e-12)


def test_constant_at_energy_equal_potential():
    m = layer_matrices(0.7, 0.7, 2.0, 0.7)
    assert m.tolist() == [[1.0, 2.0], [0.0, 1.0]]


def test_airy_layer_params_geometry():
    layer = ConcreteLayer(0.5, 1.5, 2.0)  # slope 0.5, sigma = 0.5^(1/3)
    p = airy_layer_params(layer, 1.0)
    assert p.sigma == pytest.approx(0.5 ** (1.0 / 3.0))
    # z(x) is linear in x with slope sigma across the layer
    assert p.z_right - p.z_left == pytest.approx(p.sigma * layer.width, rel=1e-12)
    # z = -(E - v) / sigma^2 at each edge
    assert p.z_left == pytest.approx(-(1.0 - layer.v_left_edge) / p.sigma**2, rel=1e-12)
    assert p.z_right == pytest.approx(-(1.0 - layer.v_right_edge) / p.sigma**2, rel=1e-12)


def test_airy_layer_params_zero_left_wavenumber():
    layer = ConcreteLayer(1.0, 2.0, 1.0)
    p = airy_layer_params(layer, 1.0)  # E equals the left edge
    assert p.z_left == 0.0


def test_airy_layer_params_negative_slope_sign():
    layer = ConcreteLayer(2.0, 1.0, 1.0)
    p = airy_layer_params(layer, 0.5)
    assert p.sigma == pytest.approx(-1.0)
    assert p.z_right < p.z_left  # descending Airy variable along the layer


def test_linear_matches_ode_oracle_sample():
    # frozen spot check: 0.5 eV down to 0.3 eV across 2 nm at 0.1 eV
    v0, v1, width, energy = 1.31232, 0.787392, 2.0, 0.262464
    assert not slope_is_degenerate(ConcreteLayer(v0, v1, width), energy)
    m = layer_matrices(v0, v1, width, energy)
    ref = ode_transfer_matrix(v0, v1, width, energy)
    assert max_rel_err(m, ref) < 1e-7
    assert det(m) == pytest.approx(1.0, rel=1e-9)


def test_linear_matches_ode_oracle_random(rng):
    worst = 0.0
    for _ in range(100):
        v0 = rng.uniform(-3.0, 3.0)
        v1 = v0 + rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 3.0)
        width = rng.uniform(0.3, 1.5)
        energy = rng.uniform(0.2, 4.0)
        assert not slope_is_degenerate(ConcreteLayer(v0, v1, width), energy)
        m = layer_matrices(v0, v1, width, energy)
        ref = ode_transfer_matrix(v0, v1, width, energy)
        worst = max(worst, max_rel_err(m, ref))
    assert worst < 1e-7


def test_linear_scaled_path_huge_arguments():
    # unscaled Bi overflows at these arguments; the assembly must not
    assert not slope_is_degenerate(ConcreteLayer(1.0e4, 1.0001e4, 0.01), 1.0)
    m = layer_matrices(1.0e4, 1.0001e4, 0.01, 1.0)
    ref = ode_transfer_matrix(1.0e4, 1.0001e4, 0.01, 1.0)
    assert max_rel_err(m, ref) < 1e-9
    assert det(m) == pytest.approx(1.0, rel=1e-9)


def test_degenerate_slope_raises_and_dispatcher_falls_back():
    layer = ConcreteLayer(0.5, 0.5 + 1e-12, 1.0)
    assert slope_is_degenerate(layer, 1.0)
    with pytest.raises(DegenerateSlopeError):
        airy_layer_params(layer, 1.0)
    m = layer_matrices(0.5, 0.5 + 1e-12, 1.0, 1.0)
    ref = layer_matrices(0.5, 0.5, 1.0, 1.0)
    assert max_rel_err(m, ref) < 1e-9


def test_constant_profile_limit_small_slope():
    # eta = 1e-8: linear path against the flat matrix at the mid potential
    for energy, v0 in ((1.0, 0.5), (0.3, 0.8), (2.0, -1.0)):
        width = 1.0
        layer = ConcreteLayer(v0, v0 + 1e-8 * width, width)
        assert not slope_is_degenerate(layer, energy)
        m = layer_matrices(layer.v_left_edge, layer.v_right_edge, width, energy)
        v_mid = v0 + 0.5e-8 * width
        ref = layer_matrices(v_mid, v_mid, width, energy)
        assert max_rel_err(m, ref) < 1e-6


def test_continuity_across_degeneracy_threshold(rng):
    # values at +-threshold stay within 1e-6 of the flat-profile matrix
    for _ in range(20):
        v0 = rng.uniform(-2.0, 2.0)
        width = rng.uniform(0.2, 1.5)
        energy = rng.uniform(0.2, 3.0)
        dv = 1.001e-9 * max(1.0, abs(v0), energy)
        for sign in (+1.0, -1.0):
            m = layer_matrices(v0, v0 + sign * dv, width, energy)
            v_mid = v0 + 0.5 * sign * dv
            ref = layer_matrices(v_mid, v_mid, width, energy)
            assert max_rel_err(m, ref) < 1e-6


def test_single_layer_structure_equals_layer():
    layer = ConcreteLayer(0.3, 1.1, 0.7)
    assert np.array_equal(structure_matrix([layer], 2.0), layer_matrices(0.3, 1.1, 0.7, 2.0))


def test_free_propagation_composition():
    e = 1.7
    l1 = ConcreteLayer(0.0, 0.0, 0.6)
    l2 = ConcreteLayer(0.0, 0.0, 1.1)
    combined = structure_matrix([l1, l2], e)
    single = layer_matrices(0.0, 0.0, 1.7, e)
    assert max_rel_err(combined, single) < 1e-12


def test_barrier_well_product_against_wronskian_route():
    e = 0.5
    layers = [ConcreteLayer(1.0, 1.0, 1.0), ConcreteLayer(-1.0, -1.0, 1.0)]
    m = structure_matrix(layers, e)
    ref = ode_wronskian_route_matrix(1.0, 1.0, 1.0, e)
    ref = ode_wronskian_route_matrix(-1.0, -1.0, 1.0, e) @ ref
    assert max_rel_err(m, ref) < 1e-8
    assert det(m) == pytest.approx(1.0, rel=1e-9)


def test_composition_associativity(rng):
    e = 1.3
    layers = [
        ConcreteLayer(rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(0.2, 0.8))
        for _ in range(6)
    ]
    full = structure_matrix(layers, e)
    left = structure_matrix(layers[:3], e)
    right = structure_matrix(layers[3:], e)
    assert max_rel_err(full, right @ left) < 1e-10


@settings(max_examples=150, deadline=None)
@given(
    st.floats(min_value=-3, max_value=3, allow_nan=False),
    st.floats(min_value=-3, max_value=3, allow_nan=False),
    st.floats(min_value=0.05, max_value=1.2, allow_nan=False),
    st.floats(min_value=0.1, max_value=6.0, allow_nan=False),
)
def test_det_one_property(v0, v1, width, energy):
    m = layer_matrices(v0, v1, width, energy)
    assert det(m) == pytest.approx(1.0, rel=1e-9)


MAGNITUDES = st.floats(min_value=1e-300, max_value=1e300)
SIGNED = st.builds(lambda sign, size: sign * size, st.sampled_from((-1.0, 1.0)), MAGNITUDES)


@pytest.mark.filterwarnings("error")
@settings(max_examples=300, deadline=None)
# the oscillatory Airy phase past the largest double (sigma = 1, z_right = -1e300)
@example(a=1.0, b=-1e300, d=1e300)
@given(a=SIGNED, b=SIGNED, d=MAGNITUDES)
def test_layer_matrix_is_finite_or_overflows(a, b, d):
    spec = StructureSpec((LayerSpec(a, b, d, 0.0, 0.0),))
    try:
        potentials = stack_potentials(spec, 1.0, [[b]])
    except ValueError:
        reject()
    try:
        m = structure_matrices(*potentials, 0.5)
    except OverflowError:
        return
    assert np.isfinite(m).all()


def test_batched_matrices_equal_batch_of_one():
    # the mixed stack's layers reach all three Airy regimes and both flat
    # branches; the tuned bias runs through zero, where its tilt degenerates
    spec, energy, tuned = mixed_stack()
    biases = np.tile([layer.b for layer in spec.layers], (81, 1))
    biases[:, tuned] = np.linspace(-40.0, 40.0, 81)
    for eps in (1.0, 0.5):
        v_left, v_right, widths = stack_potentials(spec, eps, biases)
        layers = layer_matrices(v_left, v_right, widths, energy)
        products = structure_matrices(v_left, v_right, widths, energy)
        assert layers.shape == biases.shape + (2, 2) and products.shape == (81, 2, 2)
        for p in range(len(biases)):
            stack = [ConcreteLayer(*edge) for edge in zip(v_left[p], v_right[p], widths)]
            for i, layer in enumerate(stack):
                ref = layer_matrices(layer.v_left_edge, layer.v_right_edge, layer.width, energy)
                assert np.all(np.abs(layers[p, i] - ref) <= 1e-14 * np.abs(ref))
            ref = structure_matrix(stack, energy)
            assert np.all(np.abs(products[p] - ref) <= 1e-14 * np.abs(ref))


def test_weights_keep_the_bits_of_three_libm_exps():
    from airystack.airy import SERIES_RADIUS, _libm, airy_eval_scaled
    from airystack.transfer import _weights

    r = SERIES_RADIUS
    z = np.r_[np.linspace(-20.0, 20.0, 4001), 0.0, -0.0, r, -r, np.nextafter(r, 20.0)]
    zeta = airy_eval_scaled(z).exponent
    for za, zb in ((zeta, np.roll(zeta, 7)), (zeta, np.zeros_like(zeta)), (-0.0 * zeta, zeta)):
        up, down = za - zb, zb - za
        m = np.maximum(up, down)
        expected = (_libm(math.exp, up - m), _libm(math.exp, down - m), _libm(math.exp, m))
        for w, e in zip(_weights(za, zb), expected):
            assert np.array_equal(w.view(np.int64), e.view(np.int64))


# layer_matrices of one tilted layer per Airy regime, (v_left, v_right,
# width, energy) -> float.hex of the matrix, as this numpy and this
# platform's libm give them: both edges in the series (z = -0.5 -> 0.5),
# oscillatory (z = -15 -> -14) and exponential (z = 19.5 -> 20.5) regime.
TILTED_HEX = {
    (0.0, 1.0, 1.0, 0.5): (("0x1.d4faac494f497p-1", "0x1.fff2ff3365da0p-1"),
                           ("-0x1.1110041276b61p-7", "0x1.1527a457d270ep+0")),
    (0.0, 1.0, 1.0, 15.0): (("-0x1.981afc44c39e4p-1", "-0x1.4c8167ba710f7p-3"),
                            ("0x1.2d02f773bf7e1p+1", "-0x1.8d17edbbde9d0p-1")),
    (20.0, 21.0, 1.0, 0.5): (("0x1.5acd185a4632cp+5", "0x1.3927d0d510336p+3"),
                             ("0x1.8762c4e45f62fp+7", "0x1.6199697b5080fp+5")),
}


@pytest.mark.parametrize("layer", sorted(TILTED_HEX))
def test_tilted_layer_matrix_keeps_its_bits(layer):
    m = layer_matrices(*layer)
    assert tuple(tuple(v.hex() for v in row) for row in m.tolist()) == TILTED_HEX[layer]
