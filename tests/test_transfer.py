"""Transfer matrices: examples, determinant law, ODE-oracle equivalence."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from airystack.errors import DegenerateSlopeError
from airystack.potential import LayerSpec, StructureSpec, realize, stack_potentials
from airystack.transfer import (
    _airy_geometry,
    _degenerate,
    airy_layer_params,
    slope_is_degenerate,
    structure_matrices,
)

from conftest import (
    det,
    layer_matrices,
    mixed_stack,
    mp_structure_matrix,
    ode_transfer_matrix,
    ode_wronskian_route_matrix,
    stack_pool,
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
    v_left, v_right, width = layer = (0.5, 1.5, 2.0)  # slope 0.5, sigma = 0.5^(1/3)
    p = airy_layer_params(layer, 1.0)
    assert p.sigma == pytest.approx(0.5 ** (1.0 / 3.0))
    # z(x) is linear in x with slope sigma across the layer
    assert p.z_right - p.z_left == pytest.approx(p.sigma * width, rel=1e-12)
    # z = -(E - v) / sigma^2 at each edge
    assert p.z_left == pytest.approx(-(1.0 - v_left) / p.sigma**2, rel=1e-12)
    assert p.z_right == pytest.approx(-(1.0 - v_right) / p.sigma**2, rel=1e-12)


def test_airy_layer_params_zero_left_wavenumber():
    layer = (1.0, 2.0, 1.0)
    p = airy_layer_params(layer, 1.0)  # E equals the left edge
    assert p.z_left == 0.0


def test_airy_layer_params_negative_slope_sign():
    layer = (2.0, 1.0, 1.0)
    p = airy_layer_params(layer, 0.5)
    assert p.sigma == pytest.approx(-1.0)
    assert p.z_right < p.z_left  # descending Airy variable along the layer


def test_linear_matches_ode_oracle_sample():
    # frozen spot check: 0.5 eV down to 0.3 eV across 2 nm at 0.1 eV
    v0, v1, width, energy = 1.31232, 0.787392, 2.0, 0.262464
    assert not slope_is_degenerate((v0, v1, width), energy)
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
        assert not slope_is_degenerate((v0, v1, width), energy)
        m = layer_matrices(v0, v1, width, energy)
        ref = ode_transfer_matrix(v0, v1, width, energy)
        worst = max(worst, max_rel_err(m, ref))
    assert worst < 1e-7


def test_linear_scaled_path_huge_arguments():
    # unscaled Bi overflows at these arguments; the assembly must not
    assert not slope_is_degenerate((1.0e4, 1.0001e4, 0.01), 1.0)
    m = layer_matrices(1.0e4, 1.0001e4, 0.01, 1.0)
    ref = ode_transfer_matrix(1.0e4, 1.0001e4, 0.01, 1.0)
    assert max_rel_err(m, ref) < 1e-9
    assert det(m) == pytest.approx(1.0, rel=1e-9)


@pytest.mark.xfail(strict=True, reason="each edge's phase zeta ~ 7e14 carries an error of "
                   "ulp(zeta) ~ 0.1 rad, and the layer matrix subtracts two of them")
def test_oscillatory_layer_far_past_the_radius_against_mpmath():
    # One sigma = 1 layer from V0 = -1e10 to V0 + 1e4 over 1e4 nm at E = 0.5:
    # z ~ -1e10 at both edges, a phase span Delta = zeta_left - zeta_right of
    # ~1e9 rad.  ulp(Delta) is the layer's own conditioning, so the bound is
    # 10 EPS (1 + |Delta|) relative to the largest element.
    v0, width, energy = -1e10, 1e4, 0.5
    v1 = v0 + 1e4
    m = layer_matrices(v0, v1, width, energy)
    with mpmath.workdps(60):
        exact = mp_structure_matrix([v0], [v1], [width], energy)
        za, zb = mpmath.mpf(v0) - energy, mpmath.mpf(v1) - energy
        delta = float(2 * ((-za) ** 1.5 - (-zb) ** 1.5) / 3)
        err = max(abs(mpmath.mpf(x) - y) for x, y in zip(m.ravel().tolist(), exact))
        err = float(err / max(abs(y) for y in exact))
    assert err <= 10 * np.finfo(float).eps * (1 + abs(delta))


def test_per_layer_probe_equals_the_array_route_on_the_stack_pool():
    # perfbench/make_reference.py probes each layer that realize lists with
    # slope_is_degenerate and airy_layer_params; at eps 1 on every `stack`
    # pool device they must give the bits of the array route's _degenerate
    # and _airy_geometry on the stack_potentials row
    for cfg in stack_pool():
        spec, energy = cfg.spec, cfg.energy
        v_left, v_right, widths = stack_potentials(spec, 1.0, [[x.b for x in spec.layers]])
        v_left, v_right = v_left[0], v_right[0]
        flat = _degenerate(v_left, v_right, energy)
        tilted = ~flat
        p = _airy_geometry(v_left[tilted], v_right[tilted], widths[tilted], energy)
        expected = iter(zip(p.sigma.tolist(), p.z_left.tolist(), p.z_right.tolist()))
        layers = realize(spec, 1.0)
        assert len(layers) == len(spec.layers)
        for layer, is_flat in zip(layers, flat.tolist()):
            assert slope_is_degenerate(layer, energy) is is_flat
            if not is_flat:
                q = airy_layer_params(layer, energy)
                got = (q.sigma, q.z_left, q.z_right)
                assert [x.hex() for x in got] == [x.hex() for x in next(expected)]
        assert next(expected, None) is None


def test_degenerate_slope_raises_and_dispatcher_falls_back():
    layer = (0.5, 0.5 + 1e-12, 1.0)
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
        layer = (v0, v0 + 1e-8 * width, width)
        assert not slope_is_degenerate(layer, energy)
        m = layer_matrices(*layer, energy)
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
    assert np.array_equal(
        structure_matrix([(0.3, 1.1, 0.7)], 2.0), layer_matrices(0.3, 1.1, 0.7, 2.0)
    )


def test_free_propagation_composition():
    e = 1.7
    combined = structure_matrix([(0.0, 0.0, 0.6), (0.0, 0.0, 1.1)], e)
    single = layer_matrices(0.0, 0.0, 1.7, e)
    assert max_rel_err(combined, single) < 1e-12


def test_barrier_well_product_against_wronskian_route():
    e = 0.5
    layers = [(1.0, 1.0, 1.0), (-1.0, -1.0, 1.0)]
    m = structure_matrix(layers, e)
    ref = ode_wronskian_route_matrix(1.0, 1.0, 1.0, e)
    ref = ode_wronskian_route_matrix(-1.0, -1.0, 1.0, e) @ ref
    assert max_rel_err(m, ref) < 1e-8
    assert det(m) == pytest.approx(1.0, rel=1e-9)


def test_composition_associativity(rng):
    e = 1.3
    layers = [
        (rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(0.2, 0.8))
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
# the Airy argument itself past the largest double (sigma^2 ~ 2e-11, a = 1e300)
@example(a=1e300, b=1e292, d=1e308)
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
            stack = list(zip(v_left[p], v_right[p], widths))
            for i, layer in enumerate(stack):
                ref = layer_matrices(*layer, energy)
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
    (0.0, 1.0, 1.0, 0.5): (("0x1.d4faac494f497p-1", "0x1.fff2ff3365d9fp-1"),
                           ("-0x1.1110041276b57p-7", "0x1.1527a457d270dp+0")),
    (0.0, 1.0, 1.0, 15.0): (("-0x1.981afc44c39e4p-1", "-0x1.4c8167ba710f7p-3"),
                            ("0x1.2d02f773bf7e1p+1", "-0x1.8d17edbbde9d0p-1")),
    (20.0, 21.0, 1.0, 0.5): (("0x1.5acd185a4632cp+5", "0x1.3927d0d510336p+3"),
                             ("0x1.8762c4e45f62fp+7", "0x1.6199697b5080fp+5")),
}


@pytest.mark.parametrize("layer", sorted(TILTED_HEX))
def test_tilted_layer_matrix_keeps_its_bits(layer):
    m = layer_matrices(*layer)
    assert tuple(tuple(v.hex() for v in row) for row in m.tolist()) == TILTED_HEX[layer]
