import math
import struct
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from moogvcf import cli, lyapunov, model
from moogvcf.lyapunov import (
    CertificateReport,
    MatrixFamily,
    Verdict,
    V_nonlinear,
    V_zero_feedback,
    Vdot_nonlinear,
    certify,
    definiteness_threshold,
    log_cosh,
    log_cosh_diff,
    structure_max_eigenvalue,
    sym_eigvals,
    symmetrize,
)
from moogvcf.model import make_params

# r = 0, then (0, 1] down to 1e-300 (make_params rejects subnormal r)
resonances = st.just(0.0) | st.floats(min_value=1e-300, max_value=1.0)
coords = st.lists(st.floats(min_value=-20, max_value=20), min_size=4, max_size=4)


def _rate(w, p):
    """Vdot of the one state w: rate_column of its stage gradients."""
    return lyapunov.rate_column(model.stage_gradients(w, model.stage_table(p)), p)[0]


def test_log_cosh_matches_naive():
    for u in (-300.0, -2.0, 0.0, 0.3, 5.0, 50.0):
        if abs(u) < 50:
            assert log_cosh(u) == pytest.approx(math.log(math.cosh(u)), rel=1e-14, abs=1e-300)
    # math.cosh(u) rounds to 1 for |u| < 1e-8, so the naive form reads 0
    # there; the series u^2/2 - u^4/12 is exact to double precision instead
    for u in (-1e-9, 1e-5, 1e-150):
        assert log_cosh(u) == pytest.approx(u * u / 2.0 - u ** 4 / 12.0, rel=1e-14, abs=0.0)
    # saturated regime: lncosh(u) ~ |u| - ln 2
    assert log_cosh(800.0) == pytest.approx(800.0 - math.log(2.0), rel=1e-15)
    # both signed zeros give +0.0, both infinities inf, and NaN NaN
    assert [struct.pack(">d", log_cosh(u)) for u in (0.0, -0.0)] == [struct.pack(">d", 0.0)] * 2
    assert log_cosh(math.inf) == log_cosh(-math.inf) == math.inf
    assert math.isnan(log_cosh(math.nan))


# h = +-1, where log_cosh_diff switches from its small-step branch to the
# difference of two log_cosh values, and the float neighbours on each side
@example(a=0.5, h=1.0)
@example(a=0.5, h=-1.0)
@example(a=-3.0, h=math.nextafter(1.0, 0.0))
@example(a=-3.0, h=math.nextafter(1.0, 2.0))
@example(a=3.0, h=math.nextafter(-1.0, 0.0))
@example(a=3.0, h=math.nextafter(-1.0, -2.0))
@given(a=st.floats(min_value=-30, max_value=30), h=st.floats(min_value=-40, max_value=40))
def test_log_cosh_diff_consistent(a, h):
    direct = log_cosh(a + h) - log_cosh(a)
    assert log_cosh_diff(a, h, math.tanh(a)) == pytest.approx(direct, abs=5e-13)


def test_quadratic_energies():
    # 0.5 x'x and 0.5 w'w change along the linearization v' = M v at v' M v,
    # M the As or the Bs matrix: certify's eigenvalues bound that rate, which
    # is negative below the family's boundary and positive somewhere above it
    rng = np.random.default_rng(4)
    for family, matrix, boundary in ((MatrixFamily.AS, model.linearized_matrix, 5.0 / 12.0),
                                     (MatrixFamily.BS, model.scaled_linearized_matrix, 1.0)):
        for r in (0.0, 0.3, 0.41, 0.9, 1.0):
            p = make_params(1.0, r)
            M, rep = matrix(p), certify(family, p)
            for v in rng.normal(size=(50, 4)):
                rate, norm2 = float(v @ M @ v), float(v @ v)
                assert rep.min_eig * norm2 - 1e-12 <= rate <= rep.max_eig * norm2 + 1e-12
                assert rate < 0.0 or r >= boundary
            if r > boundary:
                top = np.linalg.eigh(symmetrize(M))[1][:, -1]
                assert float(top @ M @ top) > 0.0


def test_V_nonlinear_zero_at_origin():
    assert V_nonlinear(np.zeros(4), make_params(1.0, 0.4)) == 0.0


def test_V_nonlinear_rejects_r0():
    with pytest.raises(ValueError):
        V_nonlinear(np.ones(4), make_params(1.0, 0.0))
    with pytest.raises(ValueError):
        Vdot_nonlinear(np.ones(4), make_params(1.0, 0.0))


def test_V_nonlinear_small_state_quadratic():
    # second-order expansion: V ~ (w1^2 + w2^2 + w3^2 + (4r/d^4) w4^2)/2
    rng = np.random.default_rng(5)
    for r in (0.05, 0.5, 1.0):
        p = make_params(1.0, r)
        for _ in range(20):
            w = rng.normal(size=4)
            w *= 1e-4 / np.linalg.norm(w)
            quad = 0.5 * (w[0] ** 2 + w[1] ** 2 + w[2] ** 2
                          + (4.0 * r / p.d ** 4) * w[3] ** 2)
            assert V_nonlinear(w, p) == pytest.approx(quad, rel=1e-6)


def test_V_nonlinear_positive_and_radially_unbounded():
    rng = np.random.default_rng(6)
    for _ in range(1000):
        r = rng.uniform(1e-3, 1.0)
        p = make_params(1.0, r)
        w = rng.uniform(-30, 30, size=4)
        if np.all(w == 0.0):
            continue
        assert V_nonlinear(w, p) > 0.0
    for r in (0.1, 0.5, 1.0):
        p = make_params(1.0, r)
        for direction in np.eye(4):
            s = 1e4
            assert V_nonlinear(s * direction, p) / s > 0.05


@pytest.mark.parametrize("size", [3, 5, 8])
@pytest.mark.parametrize("call", [
    lambda w, p: V_nonlinear(w, p),
    lambda w, p: V_zero_feedback(w),
    lambda w, p: Vdot_nonlinear(w, p),
    lambda w, p: lyapunov.Vdot_zero_feedback(w, p),
], ids=["V_nonlinear", "V_zero_feedback", "Vdot_nonlinear", "Vdot_zero_feedback"])
def test_single_state_functions_take_one_4_vector(call, size):
    # not the first state of several, nor a sum over any count of entries
    with pytest.raises(ValueError, match="w must be one 4-vector"):
        call([1.0] * size, make_params(1.0, 0.5))


def test_single_state_energy_of_infinite_state_is_inf():
    # the shape check is not a finiteness check
    w = [math.inf, 0.0, 0.0, 0.0]
    assert V_nonlinear(w, make_params(1.0, 0.5)) == V_zero_feedback(w) == math.inf


def test_zero_feedback_energy():
    assert V_zero_feedback(np.zeros(4)) == 0.0
    w = np.array([1.0, -2.0, 0.5, 3.0])
    assert V_zero_feedback(w) == pytest.approx(sum(math.log(math.cosh(v)) for v in w), rel=1e-14)


def test_grad_is_saturation_vector_bit_for_bit():
    # the gradient z = saturation_vector is the stage gradients that
    # rate_column reads, bit for bit
    rng = np.random.default_rng(8)
    for _ in range(50):
        p = make_params(1.0, rng.uniform(1e-3, 1.0))
        w = rng.uniform(-10, 10, size=4)
        z = model.stage_gradients(w, model.stage_table(p))[:4]
        assert model.saturation_vector(w, p).tobytes() == np.array(z).tobytes()


def test_grad_component_hand_value():
    p = make_params(1.0, 0.9)
    w = np.array([0.0, p.d, 0.0, 0.0])
    assert model.saturation_vector(w, p)[1] == pytest.approx(p.d * math.tanh(1.0), rel=1e-15)


def test_grad_matches_finite_differences():
    rng = np.random.default_rng(9)
    for _ in range(100):
        p = make_params(1.0, rng.uniform(1e-3, 1.0))
        w = rng.uniform(-10, 10, size=4)
        grad = model.saturation_vector(w, p)
        fd = np.empty(4)
        for k in range(4):
            h = 1e-6 * max(1.0, abs(w[k]))
            hi = w.copy(); hi[k] += h
            lo = w.copy(); lo[k] -= h
            fd[k] = (V_nonlinear(hi, p) - V_nonlinear(lo, p)) / (2.0 * h)
        assert np.abs(fd - grad).max() <= 1e-6 * max(1.0, np.abs(grad).max())


def test_Vdot_zero_at_origin():
    assert Vdot_nonlinear(np.zeros(4), make_params(1.0, 0.5)) == 0.0


def test_Vdot_is_directional_derivative():
    # chain-rule oracle: (V(w + eps*wdot) - V(w - eps*wdot)) / (2 eps)
    rng = np.random.default_rng(10)
    eps = 1e-6
    for _ in range(100):
        p = make_params(1.0, rng.uniform(1e-2, 1.0))
        w = rng.uniform(-5, 5, size=4)
        wdot = model.rhs_scaled(w, p)
        fd = (V_nonlinear(w + eps * wdot, p) - V_nonlinear(w - eps * wdot, p)) / (2 * eps)
        got = Vdot_nonlinear(w, p)
        assert got == pytest.approx(fd, rel=1e-5, abs=1e-9)


def test_Vdot_equals_grad_dot_field():
    rng = np.random.default_rng(12)
    for _ in range(200):
        p = make_params(rng.choice([0.1, 1.0, 100.0]), rng.uniform(1e-3, 1.0))
        w = rng.uniform(-20, 20, size=4)
        inner = float(model.saturation_vector(w, p) @ model.rhs_scaled(w, p))
        assert abs(Vdot_nonlinear(w, p) - inner) < 1e-12


@given(r=resonances, w=coords)
@settings(max_examples=500)
def test_Vdot_nonpositive(r, w):
    p = make_params(1.0, r)
    assert _rate(np.array(w), p) <= 0.0


def test_Vdot_nonpositive_along_null_direction():
    # at r = 1, d^2 = 2 and -sym(Q) is singular with null vector
    # (1, sqrt 2, 1, 0); z' sym(Q) z evaluated directly rounds to +1e-16
    # at most such states
    p = make_params(1.0, 1.0)
    d = p.d
    for s in np.linspace(1e-4, 0.999, 2000):
        w = (math.atanh(s), d * math.atanh(math.sqrt(2.0) * s / d),
             d * d * math.atanh(s / (d * d)), 0.0)
        assert Vdot_nonlinear(w, p) <= 0.0


# V and Vdot of one state as they stood before energy_column and rate_column
# evaluated whole trajectories, the loops that every energy and rate now runs.


def _ref_lyapunov_value(w, p):
    w1, w2, w3, w4 = w
    (s1, k1, _, _), (s2, k2, _, _), (s3, k3, _, _), (s4, k4, _, _), _ = model.stage_table(p)
    a1, a2, a3, a4 = abs(k1 * w1), abs(k2 * w2), abs(k3 * w3), abs(k4 * w4)
    ln2 = math.log(2.0)
    a1 = (math.log1p(2.0 * (sh := math.sinh(0.5 * a1)) * sh) if a1 <= 1.0
          else a1 + math.log1p(math.exp(-2.0 * a1)) - ln2)
    a2 = (math.log1p(2.0 * (sh := math.sinh(0.5 * a2)) * sh) if a2 <= 1.0
          else a2 + math.log1p(math.exp(-2.0 * a2)) - ln2)
    a3 = (math.log1p(2.0 * (sh := math.sinh(0.5 * a3)) * sh) if a3 <= 1.0
          else a3 + math.log1p(math.exp(-2.0 * a3)) - ln2)
    a4 = (math.log1p(2.0 * (sh := math.sinh(0.5 * a4)) * sh) if a4 <= 1.0
          else a4 + math.log1p(math.exp(-2.0 * a4)) - ln2)
    return s1 * a1 + s2 * a2 + s3 * a3 + s4 * a4


def _ref_rate_of_gradients(z, p):
    h, c, piv2, l32, l42, piv3, l43, cc, hcl42, ml43 = lyapunov._rate_constants(p)
    z1, z2, z3, z4, du4 = z
    y1 = z1 - h * z2 + c * z4
    y2 = z2 + l32 * z3 + l42 * z4
    y3 = z3 + l43 * z4
    quad = y1 * y1 + piv2 * y2 * y2 + piv3 * y3 * y3
    if z4 != 0.0:
        piv4 = max(0.0, du4 / z4 - cc - hcl42 - ml43)
        quad += piv4 * z4 * z4
    return 0.0 - p.omega0 * quad


def _bits(values):
    return struct.pack(f"<{len(values)}d", *values)


def _null_state(s, d=math.sqrt(2.0)):
    """A state whose stage gradients lie on the null direction (1, sqrt 2, 1, 0)
    of -sym(Q) at r = 1, as in test_Vdot_nonpositive_along_null_direction."""
    return [math.atanh(s), d * math.atanh(math.sqrt(2.0) * s / d),
            d * d * math.atanh(s / (d * d)), 0.0]


# |k_i w_i| on both sides of 1: the two branches of the inline log-cosh
stage_coords = st.floats(min_value=-3.0, max_value=3.0) | st.floats(min_value=-1e3, max_value=1e3)
# a row's gradients: None for the stage gradients of its state, else any five
# values, as discrete-gradient quotients are, which reach the clamp of a
# negative fourth pivot
row_gradients = st.none() | st.lists(st.floats(min_value=-10.0, max_value=10.0),
                                     min_size=5, max_size=5)


def _rows(*states):
    return [(w, None) for w in states]


@given(
    r=st.sampled_from([0.0, 1e-300, 1.0]) | st.floats(min_value=1e-3, max_value=1.0),
    omega0=st.sampled_from([1.0, 100.0]),
    rows=st.lists(st.tuples(st.lists(stage_coords, min_size=4, max_size=4), row_gradients),
                  min_size=1, max_size=4),
)
@example(r=0.5, omega0=1.0, rows=_rows([0.0, 0.0, 0.0, 0.0]))  # origin: z4 = 0, Vdot +0.0
@example(r=0.0, omega0=100.0, rows=_rows([0.0, 0.0, 0.0, 0.0], [1.0, -2.0, 0.5, 3.0]))
@example(r=1.0, omega0=1.0, rows=_rows(_null_state(0.5), _null_state(0.999), _null_state(1e-4)))
@example(r=0.5, omega0=1.0, rows=[([1.0, 2.0, 3.0, 4.0], [1.0, 1.0, 1.0, 1.0, -1.0])])
@example(r=0.0, omega0=1.0, rows=[([0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0, 0.0])])  # Vdot < 0
# -0.0 components, and |k_i w_i| = 1 exactly (all k_i are 1 at r = 0, and these
# w_i are 1/k_i to the last bit at r = 1): the signs and the branch tie where
# a comparison in place of abs() can go wrong
@example(r=0.5, omega0=1.0, rows=[([-0.0, 0.5, -0.0, -2.0], [-0.0, 0.0, -0.0, -0.0, 0.0])])
@example(r=0.0, omega0=1.0, rows=_rows([1.0, -1.0, 1.0, -1.0]))
@example(r=1.0, omega0=1.0, rows=_rows([-1.0, 1.4142135623730951, -2.0000000000000004,
                                        0.7071067811865477]))
@settings(max_examples=300)
def test_energy_columns_bit_identical_to_frozen_reference(r, omega0, rows):
    # every row of both columns, and each row on its own, bit for bit
    p = make_params(omega0, r)
    table = model.stage_table(p)
    ws = [w for w, _ in rows]
    gradients = [model.stage_gradients(w, table) for w in ws]
    zs = [g if z is None else z for g, (_, z) in zip(gradients, rows)]
    want_v = _bits([_ref_lyapunov_value(w, p) for w in ws])
    want_vdot = _bits([_ref_rate_of_gradients(z, p) for z in zs])
    energy = lyapunov.energy_column([u for w in ws for u in w], p)
    rates = lyapunov.rate_column([g for z in zs for g in z], p)
    assert (_bits(energy), _bits(rates)) == (want_v, want_vdot)
    assert _bits([lyapunov.energy_column(w, p)[0] for w in ws]) == want_v
    assert _bits([lyapunov.rate_column(z, p)[0] for z in zs]) == want_vdot
    # at the origin the stage gradients are 0 and the rate is +0.0; a row of
    # given quotients there has a rate of either sign
    assert all(math.copysign(1.0, v) == 1.0
               for v, (w, z) in zip(rates, rows) if z is None and not any(w))


@pytest.mark.parametrize("call", [
    lambda p: lyapunov.energy_column((1.0, 2.0, 3.0), p),  # a partial state only
    lambda p: lyapunov.energy_column((1.0, 2.0, 3.0, 4.0, 5.0), p),
    lambda p: lyapunov.rate_column((1.0, 2.0, 3.0, 4.0), p),  # a partial row only
    lambda p: lyapunov.energy_column([0.0] * 5, p),  # one state and a partial one
    lambda p: lyapunov.rate_column([0.0] * 6, p),  # one gradient row and a partial one
    lambda p: lyapunov.rate_column(np.zeros((2, 4)), p),  # rows of four
], ids=["value-3", "value-5", "rate-4", "energy-5", "rates-6", "rates-2x4"])
def test_energy_rejects_partial_rows(call):
    with pytest.raises(ValueError):
        call(make_params(1.0, 0.5))


def _long_rows(n=10_000, seed=5):
    """n rows of stage gradients from a seeded generator: magnitudes from
    1e-300 to 1e300, every tenth z4 = +-0.0, and some NaN and inf entries."""
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((n, 5)) * 10.0 ** rng.integers(-300, 301, (n, 5))
    rows[::10, 3] = np.where(rng.random(n // 10) < 0.5, 0.0, -0.0)
    rows[rng.integers(0, n, 50), rng.integers(0, 5, 50)] = math.nan
    rows[rng.integers(0, n, 50), rng.integers(0, 5, 50)] = math.inf
    rows[rng.integers(0, n, 50), rng.integers(0, 5, 50)] = -math.inf
    return rows.tolist()


# any float, with NaN as the one quiet NaN that Python floats produce
gradient_value = (st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf])
                  | st.floats(allow_nan=False))
null_rows = st.floats(min_value=-1e3, max_value=1e3).map(
    lambda s: [s, s * math.sqrt(2.0), s, 0.0, s])


@given(
    r=st.sampled_from([0.0, 1e-300, 1.0]) | st.floats(min_value=1e-3, max_value=1.0),
    omega0=st.sampled_from([1.0, 100.0]),
    rows=st.lists(st.lists(gradient_value, min_size=5, max_size=5) | null_rows,
                  min_size=1, max_size=8),
)
@example(r=1.0, omega0=1.0, rows=[[1.0, math.sqrt(2.0), 1.0, 0.0, 0.0]])  # -sym(Q)'s null direction
@example(r=1.0, omega0=1.0, rows=[[-0.5, -0.5 * math.sqrt(2.0), -0.5, -0.0, 1.0]])
@example(r=0.0, omega0=1.0, rows=[[0.0, 0.0, 0.0, -0.0, 0.0], [1.0, 2.0, 3.0, 0.0, math.nan]])
@example(r=0.5, omega0=100.0, rows=[[1.0, 1.0, 1.0, 1.0, math.nan], [1.0, 1.0, 1.0, math.inf, 1.0]])
@example(r=0.5, omega0=1.0, rows=_long_rows())
@example(r=1.0, omega0=100.0, rows=_long_rows(seed=6))
@settings(max_examples=300, deadline=None)
def test_rate_column_bit_identical_to_frozen_row_loop(r, omega0, rows):
    # the numpy column, from flat values and from an (n, 5) array, against the
    # frozen Python-float formula of each row; numpy may not warn where
    # Python floats do not
    p = make_params(omega0, r)
    want = _bits([_ref_rate_of_gradients(z, p) for z in rows])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        flat = lyapunov.rate_column([g for z in rows for g in z], p)
        array = lyapunov.rate_column(np.array(rows), p)
    assert _bits(flat.tolist()) == want
    assert _bits(array.tolist()) == want


def test_Vdot_zero_feedback_nonpositive():
    rng = np.random.default_rng(13)
    p = make_params(1.0, 0.0)
    for _ in range(500):
        w = rng.uniform(-20, 20, size=4)
        assert lyapunov.Vdot_zero_feedback(w, p) <= 0.0


def test_Vdot_zero_feedback_rejects_feedback():
    # at r > 0 it returned the feedback model's rate (-5.2959 here); it now
    # rejects the branch it does not serve, as Vdot_nonlinear rejects r = 0
    with pytest.raises(ValueError, match=r"r=0\.5"):
        lyapunov.Vdot_zero_feedback([1.0, -2.0, 0.5, 3.0], make_params(1.0, 0.5))


def test_branch_dispatchers():
    # energy_column and rate_column take both branches: the feedback-free
    # energy and rate at r = 0, the saturation energy and its rate above
    p0 = make_params(2.0, 0.0)
    w = np.array([1.0, -1.0, 0.5, 2.0])
    assert lyapunov.energy_column(w, p0) == [V_zero_feedback(w)]
    assert _rate(w, p0) == lyapunov.Vdot_zero_feedback(w, p0)
    p1 = make_params(2.0, 0.5)
    assert lyapunov.energy_column(w, p1) == [V_nonlinear(w, p1)]
    assert _rate(w, p1) == Vdot_nonlinear(w, p1)


def test_candidate_dispatch():
    # the saturation energy, evaluated through the names the toolkit uses
    # for it, against its defining formula: the log-cosh stage energy, which
    # energy_column takes to the feedback-free sum at r = 0 (the quadratic
    # energies are test_quadratic_energies')
    p = make_params(1.0, 0.5)
    x = np.array([1.0, -1.0, 0.5, 2.0])
    w = model.to_scaled(x, p.d)
    assert lyapunov.energy_column(w, p) == [V_nonlinear(w, p)]
    d = p.d
    assert V_nonlinear(w, p) == pytest.approx(
        math.log(math.cosh(w[0])) + d ** 2 * math.log(math.cosh(w[1] / d))
        + d ** 4 * math.log(math.cosh(w[2] / d ** 2))
        + d ** 2 / (4 * p.r) * math.log(math.cosh(4 * p.r * w[3] / d ** 3)), rel=1e-14)
    p0 = make_params(1.0, 0.0)
    assert lyapunov.energy_column(x, p0) == [V_zero_feedback(x)]
    assert V_zero_feedback(x) == pytest.approx(sum(math.log(math.cosh(u)) for u in x), rel=1e-15)


def test_symmetrize():
    M = model.linearized_matrix(make_params(1.0, 1.0))
    S = symmetrize(M)
    assert S[0, 1] == 0.5
    assert np.array_equal(S, symmetrize(S))
    anti = np.array([[0.0, 1.0, -2.0, 3.0],
                     [-1.0, 0.0, 4.0, -5.0],
                     [2.0, -4.0, 0.0, 6.0],
                     [-3.0, 5.0, -6.0, 0.0]])
    assert np.array_equal(symmetrize(anti), np.zeros((4, 4)))


def test_sym_eigvals_diagonal():
    got = sym_eigvals(np.diag([-1.0, -2.0, -3.0, -4.0]))
    assert np.array_equal(got, [-4.0, -3.0, -2.0, -1.0])


def test_sym_eigvals_structure_matrix():
    got = sym_eigvals(model.coupling_structure(0.0))
    assert abs(got[-1] - math.sqrt(2.0)) < 1e-10


def test_sym_eigvals_scaled_linearization_boundary():
    p = make_params(1.0, 1.0)
    M = symmetrize(model.scaled_linearized_matrix(p)) / p.omega0
    assert abs(sym_eigvals(M)[-1]) < 1e-10


def test_sym_eigvals_rejects_asymmetric():
    M = np.eye(4)
    M[0, 1] = 1.0
    with pytest.raises(ValueError):
        sym_eigvals(M, tol=1e-10)


@given(entries=st.lists(st.floats(min_value=-10, max_value=10), min_size=10, max_size=10))
@settings(max_examples=200)
def test_sym_eigvals_against_numpy(entries):
    M = np.zeros((4, 4))
    idx = 0
    for i in range(4):
        for j in range(i, 4):
            M[i, j] = M[j, i] = entries[idx]
            idx += 1
    got = sym_eigvals(M)
    ref = np.linalg.eigvalsh(M)
    assert np.abs(got - ref).max() < 1e-11 * max(1.0, np.abs(M).max())


def test_structure_max_eigenvalue_values():
    assert structure_max_eigenvalue(0.0) == pytest.approx(math.sqrt(2.0), rel=1e-15)
    assert structure_max_eigenvalue(1.0) == 2.0
    # second branch stays below sqrt(2) at f = -3: (sqrt(17) - 3)/2 ~ 0.5616
    assert 0.5 * (-3.0 + math.sqrt(17.0)) < math.sqrt(2.0)
    assert structure_max_eigenvalue(-3.0) == pytest.approx(math.sqrt(2.0), rel=1e-15)


def test_structure_max_eigenvalue_matches_solver():
    for f in np.linspace(-10.0, 10.0, 101):
        ref = sym_eigvals(model.coupling_structure(f))[-1]
        assert abs(structure_max_eigenvalue(f) - ref) < 1e-10


def test_max_eig_monotone_in_ratio():
    # larger ratio only subtracts from the (4,4) entry, so the top
    # eigenvalue cannot grow
    rng = np.random.default_rng(14)
    p = make_params(1.0, 0.6)
    for _ in range(100):
        g1, g2 = sorted(rng.uniform(1.0, 4.0, size=2))
        e1 = sym_eigvals(symmetrize(model.coupling_matrix(p, g1)))[-1]
        e2 = sym_eigvals(symmetrize(model.coupling_matrix(p, g2)))[-1]
        assert e2 <= e1 + 1e-12


@pytest.mark.parametrize("family,r,verdict", [
    (MatrixFamily.AS, 0.2, Verdict.NEGATIVE_DEFINITE),
    (MatrixFamily.AS, 0.5, Verdict.INDEFINITE),
    (MatrixFamily.AS, 5.0 / 12.0, Verdict.NEGATIVE_SEMIDEFINITE),
    (MatrixFamily.BS, 1.0, Verdict.NEGATIVE_SEMIDEFINITE),
    (MatrixFamily.BS, 0.99, Verdict.NEGATIVE_DEFINITE),
    (MatrixFamily.QS_WORST_CASE, 0.999, Verdict.NEGATIVE_DEFINITE),
    (MatrixFamily.QS_WORST_CASE, 1.0, Verdict.NEGATIVE_SEMIDEFINITE),
])
def test_certify_verdicts(family, r, verdict):
    report = certify(family, make_params(1.0, r))
    assert report.verdict is verdict


def test_certify_bs_boundary_eigenvalue():
    report = certify(MatrixFamily.BS, make_params(1.0, 1.0))
    assert abs(report.max_eig) < 1e-10


def test_certify_report_consistency():
    for family in MatrixFamily:
        for r in (0.1, 0.45, 0.9, 1.0):
            rep = certify(family, make_params(3.0, r))
            assert rep.min_eig <= rep.max_eig
            if rep.verdict is Verdict.NEGATIVE_DEFINITE:
                assert rep.max_eig < -rep.tol
            elif rep.verdict is Verdict.NEGATIVE_SEMIDEFINITE:
                assert abs(rep.max_eig) <= rep.tol
            else:
                assert rep.max_eig > rep.tol


def test_certify_omega0_invariance():
    a = certify(MatrixFamily.AS, make_params(1.0, 0.3))
    b = certify(MatrixFamily.AS, make_params(250.0, 0.3))
    assert a.max_eig == b.max_eig
    assert a.verdict is b.verdict


def test_certify_qs_r0_is_feedback_free_cascade():
    rep = certify(MatrixFamily.QS_WORST_CASE, make_params(1.0, 0.0))
    assert rep.verdict is Verdict.NEGATIVE_DEFINITE
    # sym of the r = 0 cascade is -I + (1/2) path(4): eigenvalues -1 + cos(k pi / 5)
    assert rep.max_eig == pytest.approx(-1.0 + math.cos(math.pi / 5.0), abs=1e-14)
    assert rep.min_eig == pytest.approx(-1.0 + math.cos(4.0 * math.pi / 5.0), abs=1e-14)


def _reference_family_matrix(family, r):
    """The family matrix from the model matrices: symmetrize of the
    linearization, scaled linearization or worst-case coupling matrix at
    omega0 = 1."""
    p = model._derive(1.0, r)
    if family is MatrixFamily.AS or (family is MatrixFamily.QS_WORST_CASE and r == 0.0):
        return symmetrize(model.linearized_matrix(p))
    if family is MatrixFamily.BS:
        return symmetrize(model.scaled_linearized_matrix(p))
    return symmetrize(model.coupling_matrix(p, model.feedback_ratio_bounds(p)[0]))


_FIVE_TWELFTHS = 5.0 / 12.0
_FAMILY_RS = [0.0, sys.float_info.min, 1e-300, 1e-12, math.nextafter(_FIVE_TWELFTHS, 0.0),
              _FIVE_TWELFTHS, math.nextafter(_FIVE_TWELFTHS, 1.0), 0.5, 1.0, 1.0 + 1e-9, 1.5]


def _check_family_matrix(family, r):
    got = lyapunov._family_matrices(family, [model._derive(2.5, r)])[0]
    ref = _reference_family_matrix(family, r)
    # bytes, so that -0.0 against 0.0 counts as a mismatch
    assert got.dtype == ref.dtype and got.shape == ref.shape
    assert got.tobytes() == ref.tobytes()
    rep = certify(family, model._derive(2.5, r))
    eigs = sym_eigvals(ref)
    assert (rep.min_eig, rep.max_eig) == (eigs[0], eigs[-1])


@pytest.mark.parametrize("family", list(MatrixFamily))
@pytest.mark.parametrize("r", _FAMILY_RS)
def test_family_matrix_is_symmetrized_model_matrix(family, r):
    _check_family_matrix(family, r)


@pytest.mark.parametrize("family", list(MatrixFamily))
@given(r=st.floats(min_value=0.0, max_value=1.5))
@settings(max_examples=200)
def test_family_matrix_is_symmetrized_model_matrix_drawn(family, r):
    _check_family_matrix(family, r)


def _reference_threshold(family, r_lo, r_hi, tol, verdict_tol=1e-10):
    """definiteness_threshold's bisection on the reference family matrix."""
    def is_definite(r):
        return sym_eigvals(_reference_family_matrix(family, r))[-1] < -verdict_tol

    lo_def = is_definite(r_lo)
    assert lo_def != is_definite(r_hi)
    lo, hi = r_lo, r_hi
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if is_definite(mid) == lo_def:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("family", list(MatrixFamily))
@pytest.mark.parametrize("r_lo", [0.0, 0.003, 0.25])
@pytest.mark.parametrize("tol", [1e-10, 5e-324])
def test_threshold_matches_reference_bisection(family, r_lo, tol):
    r_hi = 1.0 if family is MatrixFamily.AS else 1.0001
    got = definiteness_threshold(family, r_lo, r_hi, tol=tol)
    assert got == _reference_threshold(family, r_lo, r_hi, tol)


_GRID_RS = [0.0, sys.float_info.min, 1e-300, 1e-12, math.nextafter(_FIVE_TWELFTHS, 0.0),
            _FIVE_TWELFTHS, math.nextafter(_FIVE_TWELFTHS, 1.0), 1.0]


def _alone(family, p, tol):
    """The certificate of p from eigvalsh of its one (4, 4) matrix."""
    eigs = np.linalg.eigvalsh(_reference_family_matrix(family, p.r))
    return CertificateReport(p.omega0, p.r, family, float(eigs[0]), float(eigs[-1]),
                             lyapunov._verdict(float(eigs[-1]), tol), tol)


@pytest.mark.parametrize("family", list(MatrixFamily))
@given(rs=st.lists(st.sampled_from(_GRID_RS) | resonances, min_size=1, max_size=60),
       tol=st.sampled_from([0.0, 1e-10, 1e-3]))
@settings(max_examples=60)
def test_certify_grid_is_each_point_alone(family, rs, tol):
    # repr tells -0.0 from 0.0, so every field must match bit for bit
    ps = [make_params(2.5, r) for r in rs]
    got = [repr(rep) for rep in lyapunov.certify_grid(family, ps, tol)]
    assert got == [repr(certify(family, p, tol)) for p in ps]
    assert got == [repr(_alone(family, p, tol)) for p in ps]


def test_certify_grid_blocks_give_the_same_bytes(monkeypatch, capsys):
    ps = [make_params(1.0, 0.02 * k) for k in range(50)]
    args = ["certify", "--families", "As,Bs,QsWorstCase", "--r-grid", "0:0.98:0.02"]
    whole = {family: lyapunov.certify_grid(family, ps) for family in MatrixFamily}
    assert cli.main(args) == 0
    text = capsys.readouterr().out
    monkeypatch.setattr(lyapunov, "_BLOCK_MATRICES", 7)
    calls = _limit_eigensolves(monkeypatch)
    for family in MatrixFamily:
        assert [repr(rep) for rep in lyapunov.certify_grid(family, ps)] == [
            repr(rep) for rep in whole[family]]
    assert len(calls) == 3 * 8  # 50 matrices in blocks of 7
    assert cli.main(args) == 0
    assert capsys.readouterr().out == text


_BRACKET_ENDS = {MatrixFamily.AS: 1.0, MatrixFamily.BS: 1.0001, MatrixFamily.QS_WORST_CASE: 1.0001}


@given(los=st.lists(st.tuples(st.sampled_from(list(MatrixFamily)),
                              st.just(0.0) | st.floats(min_value=1e-300, max_value=0.4)),
                    min_size=1, max_size=6),
       tol=st.sampled_from([1e-8, 1e-10, 5e-324]),
       verdict_tol=st.sampled_from([0.0, 1e-10, 1e-6]))
@settings(max_examples=40)
@example(los=[(family, 0.0) for family in MatrixFamily], tol=5e-324, verdict_tol=1e-10)
def test_lockstep_bisection_is_each_bracket_alone(los, tol, verdict_tol):
    brackets = []
    for family, r_lo in los:
        top = certify(family, model._derive(1.0, r_lo)).max_eig
        brackets.append((family, r_lo, _BRACKET_ENDS[family], top < -verdict_tol, verdict_tol))
    got = lyapunov.bisect_brackets(brackets + [None], tol)
    assert got == [definiteness_threshold(family, r_lo, r_hi, tol, verdict_tol)
                   for family, r_lo, r_hi, _, _ in brackets] + [None]


@pytest.mark.parametrize("family, r_lo, r_hi, name", [
    (MatrixFamily.AS, 0.1, math.inf, "r_hi"),
    (MatrixFamily.QS_WORST_CASE, 0.5, math.inf, "r_hi"),
    (MatrixFamily.AS, 0.0, 1e308, "r_hi"),  # 4r overflows
    (MatrixFamily.QS_WORST_CASE, 0.5, 1e308, "r_hi"),  # and so does d ** 4
    (MatrixFamily.AS, 1e308, 1.5e308, "r_lo"),
])
def test_threshold_rejects_ends_it_cannot_evaluate(monkeypatch, family, r_lo, r_hi, name):
    calls = _limit_eigensolves(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=rf"^{name} "):
            definiteness_threshold(family, r_lo, r_hi)
    assert not calls


def test_threshold_as_recovers_five_twelfths():
    r_star = definiteness_threshold(MatrixFamily.AS, 0.0, 1.0, tol=1e-8)
    assert abs(r_star - 5.0 / 12.0) < 1e-6


def test_threshold_bs_and_qs_at_one():
    assert abs(definiteness_threshold(MatrixFamily.BS, 0.5, 1.0001, tol=1e-8) - 1.0) < 1e-6
    assert abs(definiteness_threshold(MatrixFamily.QS_WORST_CASE, 0.5, 1.0001, tol=1e-8) - 1.0) < 1e-6


def test_threshold_requires_sign_change():
    with pytest.raises(ValueError):
        definiteness_threshold(MatrixFamily.AS, 0.0, 0.2)
    with pytest.raises(ValueError):
        definiteness_threshold(MatrixFamily.AS, 0.5, 0.3)


def _limit_eigensolves(monkeypatch, limit=500):
    """Make np.linalg.eigvalsh raise after limit calls, so that a bisection
    that never ends fails the test instead of hanging the suite."""
    real = np.linalg.eigvalsh
    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        if len(calls) > limit:
            raise RuntimeError(f"more than {limit} eigensolves")
        return real(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    return calls


@pytest.mark.parametrize("tol", [1e-20, 5e-324])
def test_threshold_stops_at_float_spacing(monkeypatch, tol):
    # a width below the bracket's float spacing cannot be reached; bisection
    # must stop once the midpoint equals an end
    calls = _limit_eigensolves(monkeypatch)
    r_star = definiteness_threshold(MatrixFamily.AS, 0.0, 1.0, tol=tol)
    assert len(calls) < 100
    # the flip of max_eig < -1e-10 lies within 1e-12 of the result
    below = certify(MatrixFamily.AS, make_params(1.0, r_star - 1e-12))
    above = certify(MatrixFamily.AS, make_params(1.0, r_star + 1e-12))
    assert below.verdict is Verdict.NEGATIVE_DEFINITE
    assert above.verdict is not Verdict.NEGATIVE_DEFINITE


@pytest.mark.parametrize("kwargs, name", [
    ({"tol": 0.0}, "tol"),
    ({"tol": -1e-8}, "tol"),
    ({"tol": math.nan}, "tol"),
    ({"tol": math.inf}, "tol"),
    ({"verdict_tol": -1.0}, "verdict_tol"),
    ({"verdict_tol": math.nan}, "verdict_tol"),
    ({"verdict_tol": math.inf}, "verdict_tol"),
])
def test_threshold_rejects_bad_tolerance(monkeypatch, kwargs, name):
    calls = _limit_eigensolves(monkeypatch)
    with pytest.raises(ValueError, match=rf"^{name} must be finite"):
        definiteness_threshold(MatrixFamily.AS, 0.0, 1.0, **kwargs)
    assert not calls


@pytest.mark.parametrize("tol", [-1.0, -1e-300, math.nan, math.inf, -math.inf])
def test_certify_rejects_bad_tolerance(tol):
    with pytest.raises(ValueError, match=r"^tol must be finite and >= 0"):
        certify(MatrixFamily.AS, make_params(1.0, 0.5), tol=tol)


def test_certify_accepts_zero_tolerance():
    # tol = 0 leaves no semidefinite band: only an exactly zero eigenvalue
    rep = certify(MatrixFamily.AS, make_params(1.0, 0.3), tol=0.0)
    assert rep.verdict is Verdict.NEGATIVE_DEFINITE
    assert certify(MatrixFamily.AS, make_params(1.0, 0.5), tol=0.0).verdict is Verdict.INDEFINITE


def test_stability_condition_over_resonance_range():
    # strict margin below r = 1, equality at the top of the range
    for r in np.linspace(0.01, 0.99, 50):
        p = make_params(1.0, r)
        g_lo, _ = model.feedback_ratio_bounds(p)
        lam = structure_max_eigenvalue(model.corner_gain(g_lo, p.d))
        assert lam < 2.0 / p.d
    p = make_params(1.0, 1.0)
    g_lo, _ = model.feedback_ratio_bounds(p)
    lam = structure_max_eigenvalue(model.corner_gain(g_lo, p.d))
    assert abs(lam - 2.0 / p.d) < 1e-12


def test_case_split_by_resonance():
    for r in (0.01, 0.1, 0.25):
        assert make_params(1.0, r).d <= 1.0 + 1e-15
    for r in (0.26, 0.5, 1.0):
        p = make_params(1.0, r)
        assert p.d == p.alpha > 1.0


def test_energy_constants_are_kept_per_params():
    p = make_params(2.0, 0.7)
    w = (0.5, -1.0, 2.0, -0.25)
    first = (lyapunov.energy_column(w, p), _rate(w, p))
    assert model.stage_table(p) is model.stage_table(p)
    assert lyapunov._rate_constants(p) is lyapunov._rate_constants(p)
    fresh = make_params(2.0, 0.7)  # nothing cached on it yet
    assert fresh == p and hash(fresh) == hash(p) and repr(fresh) == repr(p)
    assert (lyapunov.energy_column(w, fresh), _rate(w, fresh)) == first
