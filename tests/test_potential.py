"""Structure realization, region classification, units."""


import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from airystack.potential import (
    LayerSpec,
    RegionClass,
    StructureSpec,
    classify_region,
    ev_to_invnm2,
    invnm2_to_ev,
    realize,
    stack_potentials,
)

from conftest import random_superlattice, stack_pool


def test_unit_constant_and_examples():
    assert ev_to_invnm2(1.0) == pytest.approx(2.62464, abs=0)
    assert ev_to_invnm2(0.0) == 0.0
    assert ev_to_invnm2(0.1) == pytest.approx(0.262464, rel=1e-14)


@given(st.floats(min_value=-1e3, max_value=1e3, allow_nan=False))
def test_unit_round_trip(e):
    assert invnm2_to_ev(ev_to_invnm2(e)) == pytest.approx(e, rel=1e-14, abs=1e-16)


def test_realize_identity_at_unit_epsilon():
    spec = StructureSpec((LayerSpec(1.31232, 0.0, 2.0, 1.0, 1.0),))
    ((v_left, v_right, width),) = realize(spec, 1.0)
    assert v_left == pytest.approx(1.31232)
    assert v_right == pytest.approx(1.31232)
    assert width == pytest.approx(2.0)


def test_realize_halved_epsilon():
    spec = StructureSpec((LayerSpec(1.31232, 0.0, 2.0, 1.0, 1.0),))
    ((v_left, _, width),) = realize(spec, 0.5)
    assert v_left == pytest.approx(2.62464)
    assert width == pytest.approx(1.0)


def test_realize_second_layer_shifted_by_upstream_bias():
    spec = StructureSpec(
        (
            LayerSpec(1.0, -0.4, 2.0, 1.0, 1.0),
            LayerSpec(-0.3, 0.1, 5.0, 1.0, 1.0),
        )
    )
    (_, l1_right, _), (l2_left, l2_right, _) = realize(spec, 1.0)
    assert l2_left == pytest.approx(-0.3 + -0.4)
    assert l2_right == pytest.approx(-0.3 + -0.4 + 0.1)
    assert l1_right == pytest.approx(1.0 - 0.4)


def test_realize_rejects_bad_epsilon():
    spec = StructureSpec((LayerSpec(1.0, 0.0, 1.0, 1.0, 1.0),))
    with pytest.raises(ValueError):
        realize(spec, 0.0)
    with pytest.raises(ValueError):
        realize(spec, -0.5)


@settings(max_examples=80, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=-2, max_value=2, allow_nan=False),
            st.floats(min_value=-1, max_value=1, allow_nan=False),
            st.floats(min_value=0.1, max_value=5, allow_nan=False),
        ),
        min_size=1,
        max_size=6,
    )
)
def test_bias_accumulation_property(rows):
    layers = tuple(LayerSpec(a, b, d, 1.0, 1.0) for a, b, d in rows)
    spec = StructureSpec(layers)
    realized = realize(spec, 1.0)
    shift = 0.0
    for layer, (v_left, _, _) in zip(layers, realized):
        assert v_left == pytest.approx(layer.a + shift, rel=1e-12, abs=1e-12)
        shift += layer.b


def test_layer_spec_validation():
    with pytest.raises(ValueError):
        LayerSpec(1.0, 0.0, -1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        LayerSpec(1.0, 0.0, 1.0, 1.0, 1.5)  # nu > mu
    with pytest.raises(ValueError):
        LayerSpec(1.0, 0.0, 1.0, 0.0, 0.5)  # mu = 0 forces nu = 0
    LayerSpec(1.0, 0.0, 1.0, 0.0, 0.0)  # flat finite layer is allowed


def test_structure_needs_a_layer():
    with pytest.raises(ValueError, match="at least one layer"):
        StructureSpec(())


def test_lead_defaults_and_override():
    spec = StructureSpec(
        (LayerSpec(1.0, -0.4, 2.0, 1.0, 1.0), LayerSpec(-0.3, 0.1, 5.0, 2.0, 1.0)),
        v_left=0.2,
    )
    v_l, v_r = spec.lead_potentials()
    assert v_l == 0.2
    assert v_r == pytest.approx(0.2 - 0.4 + 0.1)
    spec2 = StructureSpec(spec.layers, 0.2, v_right_override=-1.0)
    assert spec2.lead_potentials()[1] == -1.0


def test_right_lead_meets_a_flat_last_layer_of_the_stack_pool():
    # with v_left = 0 and a = 0, the last layer's right edge at eps = 1 is
    # the running bias b_1 + ... + b_L, the lead's default
    flat = [cfg.spec for cfg in stack_pool() if cfg.spec.layers[-1].a == 0.0]
    assert len(flat) == 26
    for spec in flat:
        assert spec.v_left == 0.0 and spec.v_right_override is None
        _, v_right, _ = stack_potentials(spec, 1.0, [[layer.b for layer in spec.layers]])
        assert spec.lead_potentials()[1] == v_right[0, -1]


@pytest.mark.parametrize("v_left", [0.0, 0.013])
def test_right_lead_of_bias_rows_is_each_row_summed_left_to_right(v_left):
    rng = np.random.default_rng(5)
    for _ in range(20):
        layers = random_superlattice(rng)[0].layers
        spec = StructureSpec(layers, v_left)
        biases = np.tile([layer.b for layer in layers], (101, 1))
        biases[:, int(rng.integers(len(layers)))] = np.linspace(-0.5, 0.0, 101)
        leads = spec.right_lead(biases.T)
        assert leads.shape == (101,)
        for lead, row in zip(leads.tolist(), biases):
            assert lead == spec.right_lead(row.tolist()) == v_left + np.cumsum(row)[-1]
        # an override holds for every row
        pinned = StructureSpec(layers, v_left, v_right_override=-0.3)
        assert pinned.right_lead(biases.T) == -0.3
        assert all(pinned.right_lead(row.tolist()) == -0.3 for row in biases)


def test_named_points():
    assert classify_region(1.0, 1.0) is RegionClass.P11
    assert classify_region(2.0, 0.0) is RegionClass.P20
    assert classify_region(2.0, 1.0) is RegionClass.P21


def test_named_lines():
    assert classify_region(0.5, 0.0) is RegionClass.L0_1
    assert classify_region(1.5, 1.5) is RegionClass.L0_2
    assert classify_region(1.0, 0.0) is RegionClass.L_INF_1
    assert classify_region(2.0, 1.5) is RegionClass.L_INF_2
    assert classify_region(1.0, 0.5) is RegionClass.L0_INF  # nu = 3mu/2 - 1
    assert classify_region(2.0, 2.0) is RegionClass.L0_INF


def test_outside():
    assert classify_region(0.0, 0.0) is RegionClass.OUTSIDE
    assert classify_region(2.5, 1.0) is RegionClass.OUTSIDE
    assert classify_region(1.0, 1.2) is RegionClass.OUTSIDE


def test_region_partition_grid():
    # exactly one label per point; open-set labels follow the exponent sign
    named_lines = {
        RegionClass.L0_INF,
        RegionClass.L0_1,
        RegionClass.L0_2,
        RegionClass.L_INF_1,
        RegionClass.L_INF_2,
        RegionClass.P11,
        RegionClass.P20,
        RegionClass.P21,
    }
    for i in range(200):
        for j in range(200):
            mu = (i + 1) / 100.0  # (0, 2]
            nu = j / 99.5  # [0, 2]
            region = classify_region(mu, nu)
            exponent = 2.0 * (1.0 + nu) / 3.0 - mu
            if region is RegionClass.S0:
                assert exponent > 0
            elif region is RegionClass.S_INF:
                assert exponent < 0
            elif region is RegionClass.OUTSIDE:
                assert nu > mu or mu > 2.0
            else:
                assert region in named_lines
