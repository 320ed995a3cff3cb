"""Scattering amplitudes, probabilities, conservation, S-matrix unitarity."""


import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from airystack.errors import EvanescentLeadError
from airystack.scattering import scatter
from airystack.transfer import layer_matrices

from conftest import rect_barrier_transmission, s_matrix


def random_unimodular(rng):
    l11 = rng.uniform(0.2, 3.0) * rng.choice([-1.0, 1.0])
    l12 = rng.uniform(-2.0, 2.0)
    l21 = rng.uniform(-2.0, 2.0)
    l22 = (1.0 + l12 * l21) / l11
    return np.array([[l11, l12], [l21, l22]])


def test_identity_full_transmission():
    res = scatter(np.eye(2), 0.0, 0.0, 1.0)
    assert res.trans_prob == pytest.approx(1.0)
    assert res.refl_prob == pytest.approx(0.0, abs=1e-15)
    assert res.r_left == pytest.approx(0.0)
    assert res.p == 0.0 and res.q == 0.0


def test_point_kick_half_transmission():
    # lower-triangular kick of strength 2 at k = 1: T = 1/(1 + (alpha/2k)^2)
    res = scatter([[1.0, 0.0], [2.0, 1.0]], 0.0, 0.0, 1.0)
    assert res.trans_prob == pytest.approx(0.5, rel=1e-12)


def test_rectangular_barrier_against_closed_form():
    v, width, energy = 1.0, 1.0, 0.5
    m = layer_matrices(v, v, width, energy)
    res = scatter(m, 0.0, 0.0, energy)
    oracle = rect_barrier_transmission(v, width, energy)
    assert res.trans_prob == pytest.approx(oracle, rel=1e-12)
    # frozen oracle output
    assert res.trans_prob == pytest.approx(0.6292902736348536, rel=1e-10)


def test_conservation_and_denominator_identity(rng):
    for _ in range(1000):
        m = random_unimodular(rng)
        v_l = rng.uniform(-2.0, 1.0)
        v_r = rng.uniform(-2.0, 1.0)
        energy = max(v_l, v_r) + rng.uniform(0.1, 3.0)
        res = scatter(m, v_l, v_r, energy)
        assert res.refl_prob + res.trans_prob == pytest.approx(1.0, abs=1e-9)
        ratio = 4.0 * res.k_left / res.k_right
        assert abs(res.d_denom) ** 2 == pytest.approx(
            ratio + res.p**2 + res.q**2, rel=1e-9
        )


def test_left_right_transmission_probability_equality(rng):
    for _ in range(200):
        m = random_unimodular(rng)
        v_l, v_r = rng.uniform(-2.0, 0.5, size=2)
        energy = max(v_l, v_r) + rng.uniform(0.2, 2.0)
        res = scatter(m, v_l, v_r, energy)
        t_from_left = (res.k_right / res.k_left) * abs(res.t_left) ** 2
        t_from_right = (res.k_left / res.k_right) * abs(res.t_right) ** 2
        assert t_from_left == pytest.approx(t_from_right, abs=1e-10)
        assert t_from_left == pytest.approx(res.trans_prob, rel=1e-9)
        refl = abs(res.r_left) ** 2
        assert refl == pytest.approx(res.refl_prob, rel=1e-9, abs=1e-12)


def test_time_reversal_equal_leads(rng):
    for _ in range(50):
        m = random_unimodular(rng)
        res = scatter(m, 0.3, 0.3, 1.7)
        assert abs(res.t_left) == pytest.approx(abs(res.t_right), abs=1e-12)


def test_evanescent_lead_errors():
    m = np.eye(2)
    with pytest.raises(EvanescentLeadError):
        scatter(m, 0.0, 2.0, 1.0)
    with pytest.raises(EvanescentLeadError):
        scatter(m, 1.0, 0.0, 1.0)  # energy == v_left


def test_s_matrix_identity_case():
    res = scatter(np.eye(2), 0.0, 0.0, 1.0)
    s = s_matrix(res)
    assert s[0, 0] == pytest.approx(0.0)
    assert s[0, 1] == pytest.approx(1.0)
    assert s[1, 0] == pytest.approx(1.0)
    assert s[1, 1] == pytest.approx(0.0)


def test_s_matrix_point_kick_entry():
    res = scatter([[1.0, 0.0], [2.0, 1.0]], 0.0, 0.0, 1.0)
    s = s_matrix(res)
    assert abs(s[0, 1]) ** 2 == pytest.approx(0.5, rel=1e-12)


def test_s_matrix_unitarity(rng):
    for _ in range(200):
        m = random_unimodular(rng)
        v_l, v_r = rng.uniform(-1.5, 0.5, size=2)
        energy = max(v_l, v_r) + rng.uniform(0.2, 2.0)
        s = s_matrix(scatter(m, v_l, v_r, energy))
        assert np.max(np.abs(s.conj().T @ s - np.eye(2))) < 1e-9


@settings(max_examples=200, deadline=None)
@given(
    st.floats(min_value=0.2, max_value=3.0),
    st.floats(min_value=-2.0, max_value=2.0),
    st.floats(min_value=-2.0, max_value=2.0),
    st.floats(min_value=-1.0, max_value=1.0),
    st.floats(min_value=-1.0, max_value=1.0),
    st.floats(min_value=0.1, max_value=3.0),
)
def test_conservation_property(l11, l12, l21, v_l, v_r, de):
    m = [[l11, l12], [l21, (1.0 + l12 * l21) / l11]]
    res = scatter(m, v_l, v_r, max(v_l, v_r) + de)
    assert res.refl_prob + res.trans_prob == pytest.approx(1.0, abs=1e-9)
    assert 0.0 <= res.trans_prob <= 1.0
