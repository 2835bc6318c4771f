import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moogvcf import model
from moogvcf.model import (
    ParameterRangeError,
    coupling_matrix,
    coupling_structure,
    corner_gain,
    feedback_ratio,
    feedback_ratio_bounds,
    from_scaled,
    linearized_matrix,
    make_params,
    rhs_nonlinear,
    saturation_vector,
    scaling_matrix,
    to_scaled,
)

resonances = st.floats(min_value=1e-6, max_value=1.0, allow_nan=False)


def test_make_params_r_zero():
    p = make_params(1.0, 0.0)
    assert p.alpha == 0.0
    assert p.d == 1.0


def test_make_params_r_one():
    p = make_params(1.0, 1.0)
    assert p.alpha == pytest.approx(math.sqrt(2.0), rel=1e-15)
    assert p.d == p.alpha


def test_make_params_sixteenth():
    # alpha = sqrt(2) * (1/16)^(1/4) = sqrt(2)/2, below 1 so d stays 1
    p = make_params(2.0, 1.0 / 16.0)
    assert p.alpha == pytest.approx(math.sqrt(2.0) / 2.0, rel=1e-15)
    assert p.d == 1.0


@pytest.mark.parametrize("omega0,r,field", [
    (0.0, 0.5, "omega0"),
    (-3.0, 0.5, "omega0"),
    (1.0, -0.1, "r"),
    (1.0, 1.5, "r"),
    (1.0, math.nan, "r"),
    (1.0, 5e-324, "r"),
    (1.0, 1e-310, "r"),
])
def test_make_params_rejects(omega0, r, field):
    with pytest.raises(ParameterRangeError) as exc:
        make_params(omega0, r)
    assert exc.value.field == field


# make_params rejects subnormal r (test_make_params_rejects)
@given(r=st.floats(min_value=0.0, max_value=1.0, allow_nan=False, allow_subnormal=False))
def test_params_invariants(r):
    p = make_params(1.0, r)
    assert 0.0 <= p.alpha <= math.sqrt(2.0) * (1 + 1e-15)
    assert 1.0 <= p.d <= math.sqrt(2.0) * (1 + 1e-15)
    assert p.alpha ** 4 == pytest.approx(4.0 * r, abs=1e-14)
    if p.alpha <= 1.0:
        assert p.d == 1.0
    else:
        assert p.d == p.alpha


def test_rhs_origin_is_equilibrium():
    for r in (0.0, 0.25, 1.0):
        assert rhs_nonlinear(np.zeros(4), make_params(3.0, r)) == pytest.approx(np.zeros(4))


def test_rhs_hand_value():
    out = rhs_nonlinear([1.0, 0.0, 0.0, 0.0], make_params(1.0, 0.0))
    t = math.tanh(1.0)
    assert out == pytest.approx([-t, t, 0.0, 0.0], rel=1e-15)


def test_rhs_matches_linearization_for_tiny_states():
    p = make_params(1.0, 0.7)
    A = linearized_matrix(p)
    rng = np.random.default_rng(1)
    for _ in range(20):
        x = rng.normal(size=4)
        x *= 1e-8 / np.linalg.norm(x)
        lin = A @ x
        assert np.abs(rhs_nonlinear(x, p) - lin).max() <= 1e-6 * np.abs(lin).max()


def test_linearized_matrix_structure_r0():
    A = linearized_matrix(make_params(1.0, 0.0))
    expected = np.array([
        [-1.0, 0.0, 0.0, 0.0],
        [1.0, -1.0, 0.0, 0.0],
        [0.0, 1.0, -1.0, 0.0],
        [0.0, 0.0, 1.0, -1.0],
    ])
    assert np.array_equal(A, expected)


def test_linearized_matrix_feedback_corner():
    assert linearized_matrix(make_params(1.0, 1.0))[0, 3] == -4.0


@pytest.mark.parametrize("omega0", [0.5, 1.0, 10.0])
@pytest.mark.parametrize("r", [0.0, 0.25, 5.0 / 12.0, 0.9, 1.0])
def test_jacobian_consistency(omega0, r):
    # central-difference Jacobian of the vector field at the origin
    p = make_params(omega0, r)
    A = linearized_matrix(p)
    h = 1e-6
    fd = np.empty((4, 4))
    for j in range(4):
        e = np.zeros(4)
        e[j] = h
        fd[:, j] = (rhs_nonlinear(e, p) - rhs_nonlinear(-e, p)) / (2.0 * h)
    assert np.abs(fd - A).max() <= 1e-6 * np.abs(A).max()


def test_scaling_identity_when_d_is_one():
    x = np.array([0.3, -1.2, 7.0, 0.01])
    assert np.array_equal(to_scaled(x, 1.0), x)
    assert np.array_equal(from_scaled(x, 1.0), x)


def test_scaling_powers():
    assert np.array_equal(to_scaled([1.0, 1.0, 1.0, 1.0], 2.0), [1.0, 2.0, 4.0, 8.0])
    assert np.array_equal(scaling_matrix(2.0), np.diag([1.0, 2.0, 4.0, 8.0]))


def test_scaling_rejects_nonpositive():
    for d in (0.0, -1.0):
        with pytest.raises(ParameterRangeError):
            scaling_matrix(d)
        with pytest.raises(ParameterRangeError):
            to_scaled(np.zeros(4), d)


@given(x=st.lists(st.floats(min_value=-10, max_value=10), min_size=4, max_size=4))
def test_scaling_round_trip(x):
    d = math.sqrt(2.0)
    back = from_scaled(to_scaled(np.array(x), d), d)
    assert np.abs(back - np.array(x)).max() < 1e-14


def test_saturation_vector_zero():
    p = make_params(1.0, 0.8)
    assert np.array_equal(saturation_vector(np.zeros(4), p), np.zeros(4))


def test_saturation_vector_hand_values():
    p = make_params(1.0, 1.0)  # d = alpha = sqrt(2)
    z = saturation_vector(np.ones(4), p)
    assert z[0] == pytest.approx(math.tanh(1.0), rel=1e-15)
    # fourth component: (1/sqrt(2)) tanh(4 / 2^(3/2)) = tanh(sqrt(2))/sqrt(2)
    assert z[3] == pytest.approx(math.tanh(math.sqrt(2.0)) / math.sqrt(2.0), rel=1e-12)


def test_saturation_vector_vanishing_feedback_at_r0():
    p = make_params(1.0, 0.0)
    z = saturation_vector([0.5, -2.0, 1.0, 3.0], p)
    assert z[3] == 0.0


def test_feedback_ratio_at_zero_is_limit():
    for r in (0.1, 0.5, 1.0):
        p = make_params(1.0, r)
        assert feedback_ratio(0.0, p) == pytest.approx(p.d ** 4 / (4.0 * r), rel=1e-15)


def test_feedback_ratio_saturates():
    for r in (0.1, 0.5, 1.0):
        p = make_params(1.0, r)
        for w4 in (1e3, -1e3):
            assert feedback_ratio(w4, p) == pytest.approx(p.d ** 4, abs=1e-10)


def test_feedback_ratio_rejects_r0():
    with pytest.raises(ValueError):
        feedback_ratio(1.0, make_params(1.0, 0.0))


@pytest.mark.parametrize("r", [0.1, 0.5, 1.0])
def test_feedback_ratio_bounds_sweep(r):
    p = make_params(1.0, r)
    lo, hi = feedback_ratio_bounds(p)
    for w4 in np.linspace(-50.0, 50.0, 2001):
        g = feedback_ratio(w4, p)
        assert lo * (1 - 1e-12) <= g <= hi * (1 + 1e-12)


@given(r=resonances, w4=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
def test_feedback_ratio_bounds_property(r, w4):
    p = make_params(1.0, r)
    lo, hi = feedback_ratio_bounds(p)
    g = feedback_ratio(w4, p)
    assert lo - 1e-12 * hi <= g <= hi * (1 + 1e-12)


@given(r=resonances, w4=st.floats(min_value=-100, max_value=100, allow_nan=False))
def test_ratio_at_least_one_with_default_scaling(r, w4):
    # with d = max(1, alpha) the ratio never drops below 1, so the corner
    # gain never goes positive
    p = make_params(1.0, r)
    g = feedback_ratio(w4, p)
    assert g >= 1.0 - 1e-12
    assert corner_gain(g, p.d) <= 1e-12


def test_corner_gain_values():
    assert corner_gain(1.0, 1.0) == 0.0
    assert corner_gain(1.0, math.sqrt(2.0)) == 0.0
    assert corner_gain(4.0, math.sqrt(2.0)) == pytest.approx(-3.0 * math.sqrt(2.0), rel=1e-15)


def test_coupling_matrix_corner_entry():
    q = coupling_matrix(make_params(1.0, 0.1), 1.0)
    assert q[3, 3] == -1.0


def test_coupling_matrix_reconstructs_vector_field():
    rng = np.random.default_rng(7)
    p = make_params(1.0, 0.7)
    D = scaling_matrix(p.d)
    for _ in range(100):
        w = rng.uniform(-10, 10, size=4)
        g = feedback_ratio(w[3], p)
        lhs = p.omega0 * coupling_matrix(p, g) @ saturation_vector(w, p)
        rhs = D @ rhs_nonlinear(from_scaled(w, p.d), p)
        assert np.abs(lhs - rhs).max() < 1e-12


@given(
    r=resonances,
    w=st.lists(st.floats(min_value=-20, max_value=20), min_size=4, max_size=4),
)
@settings(max_examples=300)
def test_rewrite_identity_property(r, w):
    p = make_params(1.0, r)
    w = np.array(w)
    g = feedback_ratio(w[3], p)
    lhs = p.omega0 * coupling_matrix(p, g) @ saturation_vector(w, p)
    rhs = scaling_matrix(p.d) @ rhs_nonlinear(from_scaled(w, p.d), p)
    assert np.abs(lhs - rhs).max() < 1e-12


def test_scaled_rhs_matches_unscaled_route():
    rng = np.random.default_rng(11)
    for r in (0.0, 0.3, 1.0):
        p = make_params(2.5, r)
        D = scaling_matrix(p.d)
        for _ in range(20):
            w = rng.uniform(-5, 5, size=4)
            direct = model.rhs_scaled(w, p)
            routed = D @ rhs_nonlinear(from_scaled(w, p.d), p)
            assert np.abs(direct - routed).max() < 1e-12


def test_symmetrized_coupling_decomposition():
    # sym(Q) must equal -I + (d/2) * structure(f) entry for entry
    for r in (0.1, 0.5, 1.0):
        p = make_params(1.0, r)
        for w4 in (-3.0, 0.0, 2.0):
            g = feedback_ratio(w4, p)
            q = coupling_matrix(p, g)
            qs = 0.5 * (q + q.T)
            rebuilt = -np.eye(4) + (p.d / 2.0) * coupling_structure(corner_gain(g, p.d))
            np.testing.assert_allclose(qs, rebuilt, rtol=1e-15, atol=1e-15)


def test_coupling_structure_symmetric():
    for f in (-5.0, 0.0, 3.7):
        G = coupling_structure(f)
        assert np.array_equal(G, G.T)
    assert np.all(np.diag(coupling_structure(0.0))[:3] == 0.0)
