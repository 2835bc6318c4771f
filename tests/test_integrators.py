import dataclasses
import math
import operator
import struct
import sys
from itertools import cycle
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from moogvcf import experiments, integrators, lyapunov, model, native
from moogvcf.integrators import (
    IntegrationError,
    Method,
    NewtonError,
    StepConfig,
    simulate,
    step_discrete_gradient,
    step_rk4,
)
from moogvcf.model import make_params
from moogvcf.rng import substream

coords = st.lists(st.floats(min_value=-20, max_value=20), min_size=4, max_size=4)
resonances = st.floats(min_value=1e-3, max_value=1.0, allow_nan=False)


def _energy(w, p):
    """V of the one state w, by lyapunov.energy_column."""
    return lyapunov.energy_column(w, p)[0]


def _rate(w, p):
    """Vdot of the one state w: lyapunov.rate_column of its stage gradients."""
    return lyapunov.rate_column(model.stage_gradients(w, model.stage_table(p)), p)[0]


# The discrete-gradient kernel as it stood before the flat float rewrite:
# list-building helpers over the (scale, inner) columns of model.stage_table
# and over model.stage_field.  The rewrite must reproduce it bit for bit,
# line-search trial counts included.  Its solve gives up as the kernel's does,
# when no line-search trial lowers the residual, within a run it starts a stiff
# solve from the previous solve's slopes, and it takes the kernel's chord
# steps.  The kernel keeps its quotients, slopes and Newton step inline, so the
# tests of those properties (telescoping, coincidence limit, feedback ratio,
# dense solve) run here.
# Its log-cosh difference is the two-argument formula of that time, which
# evaluated tanh(a) itself.


def _ref_log_cosh_diff(a, h):
    if abs(h) <= 1.0:
        sh = math.sinh(0.5 * h)
        return math.log1p(2.0 * sh * sh + math.sinh(h) * math.tanh(a))
    return lyapunov.log_cosh(a + h) - lyapunov.log_cosh(a)


def _ref_table(p):
    return [(scale, inner) for scale, inner, *_ in model.stage_table(p)]


def _ref_stage_quotients(w, v, table):
    lcd = _ref_log_cosh_diff
    out = []
    for a, b, (scale, inner) in zip(w + w[3:], v + v[3:], table):
        h = b - a
        if abs(h) < integrators._COINCIDENCE_CUTOFF * max(1.0, abs(a)):
            out.append(scale * inner * math.tanh(inner * a))
        else:
            out.append(scale * lcd(inner * a, inner * h) / h)
    return out


def _ref_quotient_derivative(a, h, scale, inner, zbar_i):
    v = a + h
    t = math.tanh(inner * v)
    if abs(h) < integrators._DERIVATIVE_CUTOFF * max(1.0, abs(a), abs(v)):
        return 0.5 * scale * inner * inner * (1.0 - t * t)
    return max(0.0, (scale * inner * t - zbar_i) / h)


def _ref_residual(w, v, p, table, dt_omega):
    zbar = _ref_stage_quotients(w, v, table)
    f1, f2, f3, f4 = model.stage_field(zbar, p)
    res = (
        v[0] - w[0] - dt_omega * f1,
        v[1] - w[1] - dt_omega * f2,
        v[2] - w[2] - dt_omega * f3,
        v[3] - w[3] - dt_omega * f4,
    )
    return res, zbar


def _ref_slopes(w, v, table, zbar):
    return [_ref_quotient_derivative(a, b - a, scale, inner, z)
            for a, b, (scale, inner), z in zip(w + w[3:], v + v[3:], table, zbar)]


def _ref_jacobian(w, v, p, table, zbar, dt_omega, slopes=None):
    """The Newton matrix at v, from the given quotient slopes or else those at v."""
    d = p.d
    dz1, dz2, dz3, dz4, ddu4 = slopes or _ref_slopes(w, v, table, zbar)
    return [
        [1.0 + dt_omega * dz1, 0.0, 0.0, dt_omega * p.feedback_coeff * dz4],
        [-dt_omega * d * dz1, 1.0 + dt_omega * dz2, 0.0, 0.0],
        [0.0, -dt_omega * d * dz2, 1.0 + dt_omega * dz3, 0.0],
        [0.0, 0.0, -dt_omega * d * dz3, 1.0 + dt_omega * ddu4],
    ]


def _ref_newton_step(jac, res):
    (j11, _, _, j14), (j21, j22, _, _), (_, j32, j33, _), (_, _, j43, j44) = jac
    p1 = -res[0] / j11
    q1 = j14 / j11
    p2 = (-res[1] - j21 * p1) / j22
    q2 = -j21 * q1 / j22
    p3 = (-res[2] - j32 * p2) / j33
    q3 = -j32 * q2 / j33
    s4 = (-res[3] - j43 * p3) / (j44 - j43 * q3)
    return (p1 - q1 * s4, p2 - q2 * s4, p3 - q3 * s4, s4)


def _ref_newton_dg(w, p, dt, carry=None):
    """(the converged iterate, or None if the solve gives up; its line-search
    trials).  carry, a list across the steps of one run, holds the quotient
    slopes that the previous solve last used: the first iteration uses them
    when the residual at v = w has norm times max(k_i) above 1.  An iteration
    after an accepted iterate with residual norm at most _CHORD_TOL reuses the
    slopes it has and tries the full update alone (a chord step).  An
    iteration with reused slopes whose line search stalls is retried once from
    the slopes at its iterate.  The solve leaves its own last slopes in carry."""
    dt_omega = dt * p.omega0
    table = _ref_table(p)
    v, trials = w, 0
    res, zbar = _ref_residual(w, v, p, table, dt_omega)
    rnorm = max(abs(r) for r in res)
    stale = bool(carry) and rnorm * max(inner for _, inner in table) > 1.0
    chord = False
    slopes = carry[0] if stale else _ref_slopes(w, v, table, zbar)
    for _ in range(integrators._NEWTON_MAX_ITER):
        if rnorm <= integrators._NEWTON_TOL:
            break
        step = _ref_newton_step(_ref_jacobian(w, v, p, table, zbar, dt_omega, slopes), res)
        lam = 1.0
        for _halving in range(1 if chord else 9):
            trials += 1
            cand = (v[0] + lam * step[0], v[1] + lam * step[1],
                    v[2] + lam * step[2], v[3] + lam * step[3])
            cres, czbar = _ref_residual(w, cand, p, table, dt_omega)
            cnorm = max(abs(r) for r in cres)
            if cnorm < rnorm:
                rnorm, v, res, zbar = cnorm, cand, cres, czbar
                stale = chord = rnorm <= integrators._CHORD_TOL
                break
            lam *= 0.5
        else:
            if not stale:
                break
            stale = chord = False
        if rnorm > integrators._NEWTON_TOL and not stale:
            slopes = _ref_slopes(w, v, table, zbar)
    if carry is not None:
        carry[:] = [slopes]
    return (v if rnorm <= integrators._NEWTON_TOL else None), trials


def _ref_stabilized_system(w, p, dt):
    """The stabilized step's matrix I - dt*omega0*Q(g) L and residual
    -dt*omega0*Q(g) z, as _ref_jacobian and _ref_residual lay them out: every
    quotient slope at its curvature bound L_i = S_i k_i^2 (g L4 for du4), z the
    stage gradients at w and g = du4/z4 (c5/c4 at z4 = 0) clamped into
    feedback_ratio_bounds, 1 at r = 0; and g."""
    dt_omega, d, fc = dt * p.omega0, p.d, p.feedback_coeff
    table = model.stage_table(p)
    z1, z2, z3, z4, du4 = model.stage_gradients(w, table)
    lo, hi = model.feedback_ratio_bounds(p) if p.r != 0.0 else (1.0, 1.0)
    g = min(max(du4 / z4 if z4 else table[4][3] / table[3][3], lo), hi)
    L1, L2, L3, L4 = (2.0 * half for *_, half in table[:4])
    jac = [
        [1.0 + dt_omega * L1, 0.0, 0.0, dt_omega * fc * L4],
        [-dt_omega * d * L1, 1.0 + dt_omega * L2, 0.0, 0.0],
        [0.0, -dt_omega * d * L2, 1.0 + dt_omega * L3, 0.0],
        [0.0, 0.0, -dt_omega * d * L3, 1.0 + dt_omega * (g * L4)],
    ]
    field = (-z1 - fc * z4, d * z1 - z2, d * z2 - z3, d * z3 - g * z4)
    return jac, [-(dt_omega * f) for f in field], g


def _ref_step(w, p, dt, carry=None):
    """(the frozen solve's iterate, or the stabilized step from w where it
    gives up; whether that step ran; the solve's line-search trials)."""
    v, trials = _ref_newton_dg(w, p, dt, carry)
    if v is not None:
        return v, False, trials
    delta = _ref_newton_step(*_ref_stabilized_system(w, p, dt)[:2])
    return tuple(a + b for a, b in zip(w, delta)), True, trials


def _ref_trajectory(x0, p, dt, n_steps):
    """simulate's discrete-gradient columns (times, states, V, Vdot) as bytes
    from the frozen solve, which carries its slopes from step to step, with the
    stabilized step where it gives up, and V and Vdot of each state on its own."""
    w = tuple(model.to_scaled(x0, p.d).tolist())
    states, energy, rates, carry = [], [], [], []
    for k in range(n_steps + 1):
        if k:
            w = _ref_step(w, p, dt, carry)[0]
        states.append(model.from_scaled(w, p.d))
        energy.append(_energy(w, p))
        rates.append(_rate(w, p))
    times = np.arange(n_steps + 1, dtype=float) * dt
    return (times.tobytes(), np.array(states).tobytes(), np.array(energy).tobytes(),
            np.array(rates).tobytes())


# simulate's RK4 path before it ran in one kernel frame: the field of
# model.rhs_nonlinear, the _rk4 step in the array form's order, and model.stage_tanh of w = D x per
# recorded state, one call each, as they stood.  The kernel must reproduce its
# states and stage values bit for bit.


def _ref_field(x, p):
    x1, x2, x3, x4 = x
    t1, t2, t3, t4 = math.tanh(x1), math.tanh(x2), math.tanh(x3), math.tanh(x4)
    fb = math.tanh(p.feedback_gain * x4)
    w0 = p.omega0
    return (w0 * (-t1 - fb), w0 * (-t2 + t1), w0 * (-t3 + t2), w0 * (-t4 + t3))


def _ref_rk4(x, p, dt):
    field = _ref_field
    h = 0.5 * dt
    x1, x2, x3, x4 = x
    a1, a2, a3, a4 = field(x, p)
    b1, b2, b3, b4 = field((x1 + h * a1, x2 + h * a2, x3 + h * a3, x4 + h * a4), p)
    c1, c2, c3, c4 = field((x1 + h * b1, x2 + h * b2, x3 + h * b3, x4 + h * b4), p)
    d1, d2, d3, d4 = field((x1 + dt * c1, x2 + dt * c2, x3 + dt * c3, x4 + dt * c4), p)
    s = dt / 6.0
    return (x1 + s * (a1 + 2.0 * b1 + 2.0 * c1 + d1), x2 + s * (a2 + 2.0 * b2 + 2.0 * c2 + d2),
            x3 + s * (a3 + 2.0 * b3 + 2.0 * c3 + d3), x4 + s * (a4 + 2.0 * b4 + 2.0 * c4 + d4))


def _ref_stage_tanh(w, table):
    w1, w2, w3, w4 = w
    (_, k1, _, _), (_, k2, _, _), (_, k3, _, _), (_, k4, _, _), (_, k5, _, _) = table
    return (math.tanh(k1 * w1), math.tanh(k2 * w2), math.tanh(k3 * w3), math.tanh(k4 * w4),
            math.tanh(k5 * w4))


def _ref_rk4_trajectory(x0, p, dt, n_steps):
    """simulate's RK4 columns (times, states, V, Vdot) as bytes from the frozen
    step and stage values, V by lyapunov.energy_column and Vdot by
    lyapunov.rate_column as simulate and Trajectory evaluate them; and the bytes
    of the states and stage values, x0's included, row by row."""
    scale = tuple(model.scaling_matrix(p.d).diagonal().tolist())
    table = model.stage_table(p)
    x, xs, ts = tuple(map(float, x0)), [], []
    for k in range(n_steps + 1):
        if k:
            x = _ref_rk4(x, p, dt)
        xs.extend(x)
        ts.extend(_ref_stage_tanh(tuple(map(operator.mul, scale, x)), table))
    energy = lyapunov.energy_column(np.array(xs).reshape(-1, 4) * np.array(scale), p)
    rates = lyapunov.rate_column(list(map(operator.mul, ts, cycle([g for _, _, g, _ in table]))), p)
    times = np.arange(n_steps + 1, dtype=float) * dt
    columns = (times.tobytes(), np.array(xs).reshape(n_steps + 1, 4).tobytes(),
               np.array(energy).tobytes(), np.array(rates).tobytes())
    return columns, _bits(xs + ts)


def _columns(traj):
    return (traj.times.tobytes(), traj.states.tobytes(), traj.V.tobytes(), traj.Vdot.tobytes())


def _bits(values):
    return struct.pack(f"<{len(values)}d", *values)


def _dg_record(ws, p, dt, n_steps):
    """The states, stage values and record of a _dg_run call of n_steps from
    each state w of ws, row 0 of each trajectory's states."""
    states, stages = np.empty((len(ws), n_steps + 1, 4)), np.empty((len(ws), n_steps + 1, 5))
    states[:, 0] = ws
    record = np.empty((len(ws), 3), np.int64)
    integrators._dg_run(states, stages, np.empty(states.shape[:2]), record,
                        np.array([native.constants(p)] * len(ws)), dt)
    return states, stages, record


def _dg_rows(w, p, dt, n_steps):
    """The state and stage-value rows of a _dg_run call on one trajectory, row
    0 of its states w, and its (stabilized steps, trials) over n_steps,
    the work columns of its record."""
    states, stages, record = _dg_record([w], p, dt, n_steps)
    return (states[0], stages[0], *record[:, 1:].sum(axis=0).tolist())


def _kernel(w, p, dt):
    """One _dg_run step from w with its stage values, as _ref_step returns it."""
    states, _, stabilized, trials = _dg_rows(w, p, dt, 1)
    return tuple(states[1].tolist()), stabilized == 1, trials


def _dg_work(x0, p, dt, n_steps):
    """_dg_rows over n_steps from x0, started as simulate starts it."""
    return _dg_rows(tuple(map(operator.mul, integrators._scale(p).tolist(), x0)), p, dt, n_steps)


def _dg_columns(x0, p, dt, n_steps):
    return _columns(simulate(x0, p, StepConfig(dt=dt), n_steps))


def test_step_config_validation():
    for dt in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="dt"):
            StepConfig(dt=dt)
    # The Newton tolerance and iteration cap are module constants, so no
    # configuration can set them to a value that breaks the solve.
    assert [f.name for f in dataclasses.fields(StepConfig)] == ["dt", "method"]
    for knob in ("newton_tol", "newton_max_iter"):
        with pytest.raises(TypeError):
            StepConfig(dt=0.1, **{knob: 0})
    assert integrators._NEWTON_TOL > 0.0 and integrators._NEWTON_MAX_ITER >= 1


def test_rk4_consistent_with_field():
    p = make_params(1.0, 0.5)
    x = np.array([1.0, -0.5, 0.2, 0.8])
    dt = 1e-8
    increment = (step_rk4(x, p, dt) - x) / dt
    field = model.rhs_nonlinear(x, p)
    assert np.abs(increment - field).max() <= 1e-6 * np.abs(field).max()


@pytest.mark.parametrize("r", [0.0, 0.3, 1.0])
def test_rk4_kernel_matches_array_form_bitwise(r):
    # the textbook array form on numpy vectors is the reference
    p = make_params(3.0, r)
    rng = np.random.default_rng(5)
    for dt in (1e-3, 0.05, 0.7):
        for _ in range(20):
            x = rng.uniform(-6.0, 6.0, size=4)
            k1 = model.rhs_nonlinear(x, p)
            k2 = model.rhs_nonlinear(x + 0.5 * dt * k1, p)
            k3 = model.rhs_nonlinear(x + 0.5 * dt * k2, p)
            k4 = model.rhs_nonlinear(x + dt * k3, p)
            want = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            assert step_rk4(x, p, dt).tobytes() == want.tobytes()


def test_rk4_matches_matrix_exponential_in_linear_regime():
    # eigendecomposition oracle for exp(A dt) acting on a tiny state
    p = make_params(1.0, 0.3)
    A = model.linearized_matrix(p)
    vals, vecs = np.linalg.eig(A)
    dt = 1e-3
    expm = (vecs @ np.diag(np.exp(vals * dt)) @ np.linalg.inv(vecs)).real
    rng = np.random.default_rng(2)
    for _ in range(10):
        x = rng.normal(size=4)
        x *= 1e-6 / np.linalg.norm(x)
        want = expm @ x
        got = step_rk4(x, p, dt)
        assert np.abs(got - want).max() <= 1e-8 * np.abs(want).max()


def test_equilibrium_exact_for_both_methods():
    p = make_params(10.0, 0.8)
    assert np.array_equal(step_rk4(np.zeros(4), p, 0.3), np.zeros(4))
    out = step_discrete_gradient(np.zeros(4), p, StepConfig(dt=0.3))
    assert np.array_equal(out, np.zeros(4))


def test_discrete_gradient_defining_contract():
    # far beyond any explicit stability limit: omega0*dt = 10
    p = make_params(100.0, 0.9)
    traj = simulate(np.array([1.0, 1.0, -1.0, 0.5]), p, StepConfig(dt=0.1), 1000)
    increases = np.diff(traj.V)
    assert increases.max() <= 1e-10
    assert np.linalg.norm(traj.states[-1]) < 1e-3


def test_rk4_fails_in_stiff_regime():
    # same setting must push energy up through RK4, showing the guarantee
    # is not vacuous
    p = make_params(100.0, 0.9)
    traj = simulate(np.array([1.0, 1.0, -1.0, 0.5]), p,
                    StepConfig(dt=0.1, method=Method.RK4), 200)
    assert np.diff(traj.V).max() > 1e-3


# r = 0 and the smallest normal-range resonances, where the stage-4 energy
# scale d^2/(4r) is largest.
full_resonances = st.just(0.0) | st.floats(min_value=1e-300, max_value=1.0)


@given(r=full_resonances, w=coords, v=coords)
@settings(max_examples=500)
def test_discrete_gradient_telescopes(r, w, v):
    p = make_params(1.0, r)
    *zbar, _ = _ref_stage_quotients(tuple(w), tuple(v), _ref_table(p))
    w = np.array(w)
    v = np.array(v)
    change = _energy(v, p) - _energy(w, p)
    assert abs(change - float(np.array(zbar) @ (v - w))) < 1e-12


def test_discrete_gradient_coincidence_limit():
    p = make_params(1.0, 0.7)
    w = np.array([0.3, -1.0, 2.0, 0.5])
    *zbar, du4 = _ref_stage_quotients(tuple(w.tolist()), tuple(w.tolist()), _ref_table(p))
    assert np.array_equal(zbar, model.saturation_vector(w, p))
    d3 = p.d ** 3
    assert du4 == pytest.approx(d3 * math.tanh(w[3] / d3), rel=1e-15)


@given(
    r=resonances,
    w4=st.floats(min_value=-20, max_value=20),
    v4=st.floats(min_value=-20, max_value=20),
)
@settings(max_examples=500)
def test_discrete_feedback_ratio_within_bounds(r, w4, v4):
    # the mean-value bound that makes the implicit scheme dissipative
    p = make_params(1.0, r)
    w = (0.0, 0.0, 0.0, w4)
    v = (0.0, 0.0, 0.0, v4)
    *zbar, du4 = _ref_stage_quotients(w, v, _ref_table(p))
    if abs(zbar[3]) < 1e-6:
        return
    gbar = du4 / zbar[3]
    lo, hi = model.feedback_ratio_bounds(p)
    assert lo - 1e-8 * hi <= gbar <= hi * (1 + 1e-8)
    assert gbar >= 1.0 - 1e-8


def test_zero_feedback_branch_gradients():
    p = make_params(1.0, 0.0)
    w = (1.0, -2.0, 0.5, 3.0)
    v = (0.5, -1.0, 1.5, 2.0)
    *zbar, du4 = _ref_stage_quotients(w, v, _ref_table(p))
    assert du4 == zbar[3]
    change = lyapunov.V_zero_feedback(v) - lyapunov.V_zero_feedback(w)
    assert abs(change - float(np.array(zbar) @ (np.array(v) - np.array(w)))) < 1e-12


big_coords = st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=4, max_size=4)


@given(
    r=full_resonances,
    dt_omega=st.floats(min_value=-3.0, max_value=3.0).map(lambda e: 10.0 ** e),
    w=big_coords,
    v=big_coords,
)
@settings(max_examples=500)
def test_closed_form_newton_step_matches_dense_solve(r, dt_omega, w, v):
    # on the frozen reference, which the kernel matches bit for bit
    p = make_params(1.0, r)
    w, v = tuple(w), tuple(v)
    table = _ref_table(p)
    res, zbar = _ref_residual(w, v, p, table, dt_omega)
    jac = np.array(_ref_jacobian(w, v, p, table, zbar, dt_omega))
    # every quotient slope is nonnegative: diagonal >= 1, corner >= 0 and
    # subdiagonal <= 0
    assert jac.diagonal().min() >= 1.0 and jac[0, 3] >= 0.0
    assert np.diagonal(jac, -1).max() <= 0.0
    q3 = (-jac[2, 1] / jac[2, 2]) * (-jac[1, 0] / jac[1, 1]) * (jac[0, 3] / jac[0, 0])
    assert jac[3, 3] - jac[3, 2] * q3 >= 1.0
    ref = np.linalg.solve(jac, -np.array(res))
    step = np.array(_ref_newton_step(jac.tolist(), res))
    assert np.abs(step - ref).max() <= 1e-12 * np.abs(ref).max()


@st.composite
def stabilized_inputs(draw):
    """(p, w, omega0*dt) over the stabilized step's single-step ranges:
    |w_i| <= 10^U(-3, 6) and omega0*dt = 10^U(-3, 9)."""
    r = draw(st.sampled_from([0.0, 1e-300, 1e-12, 0.3, 0.99, 1.0])
             | st.floats(min_value=1e-300, max_value=1.0))
    bound = 10.0 ** draw(st.floats(min_value=-3.0, max_value=6.0))
    w = draw(st.lists(st.floats(min_value=-bound, max_value=bound), min_size=4, max_size=4))
    return make_params(1.0, r), tuple(w), 10.0 ** draw(st.floats(min_value=-3.0, max_value=9.0))


@given(inputs=stabilized_inputs())
# g L4 = 1 at z4 = 0 while dt*omega0*g overflows
@example(inputs=(make_params(1.0, 1e-300), (0.0, 0.0, 0.0, 0.0), 1e9))
@settings(max_examples=500, deadline=None)
def test_stabilized_step_matches_dense_solve(inputs):
    # the bordered layout solves (I - dt*omega0*Q(g) L) delta = dt*omega0*Q(g) z
    p, w, dt_omega = inputs
    jac, res, g = _ref_stabilized_system(w, p, dt_omega)
    table = model.stage_table(p)
    q = model.coupling_matrix(p, g)
    q[0, 3] = -p.feedback_coeff  # no feedback on the r = 0 branch
    curvature = np.diag([2.0 * half for *_, half in table[:4]])
    z = np.array(model.stage_gradients(w, table)[:4])
    ref = np.linalg.solve(np.eye(4) - dt_omega * (q @ curvature), dt_omega * (q @ z))
    step = np.array(_ref_newton_step(jac, res))
    # subnormal entries keep no relative accuracy
    assert np.abs(step - ref).max() <= 1e-12 * np.abs(ref).max() + sys.float_info.min


@given(inputs=stabilized_inputs())
@settings(max_examples=1000, deadline=None)
def test_stabilized_step_never_raises_energy(inputs):
    # V(w + delta) - V(w) <= dt*omega0*y'sym(Q(g))y - delta'L delta/2 <= 0,
    # with no solver slack: only the rounding of the two V values remains
    p, w, dt_omega = inputs
    with mock.patch.multiple(integrators, _NEWTON_MAX_ITER=0, _NEWTON_TOL=-1.0):
        v, stabilized, _ = _kernel(w, p, dt_omega)
    assert stabilized and all(map(math.isfinite, v))
    before, after = _energy(w, p), _energy(v, p)
    assert after - before <= 1e-15 * max(1.0, before)


@pytest.mark.parametrize("dt_omega, max_per_step", [(0.05, 4.0), (10.0, 7.0)])
def test_newton_work_per_step(dt_omega, max_per_step):
    # Newton starts at v = w (an explicit-Euler start costs 9.7 residuals per
    # step at dt_omega = 10 on this trajectory): at most max_per_step residual
    # evaluations per step, each solve's first and its line-search trials,
    # counted by _dg_run itself on the steps simulate takes
    x0, p, cfg = [1.0, -2.0, 0.5, 3.0], make_params(1.0, 1.0), StepConfig(dt=dt_omega)
    n_steps = 100
    states, stages, stabilized, trials = _dg_work(x0, p, cfg.dt, n_steps)
    assert stabilized == 0
    assert 0 < n_steps + trials <= max_per_step * n_steps
    assert (states.shape, stages.shape) == ((n_steps + 1, 4), (n_steps + 1, 5))
    want = states[1:] / integrators._scale(p)
    assert simulate(x0, p, cfg, n_steps).states[1:].tobytes() == want.tobytes()


def test_stiff_solves_start_from_previous_slopes():
    # r = 0.99 at omega0*dt = 10, with 16 seeded states as a decay study draws
    # them: a solve whose first update would leave |k b| <= 1 starts from the
    # slopes the previous solve last used, not from the near-0 slopes of a
    # saturated stage at v = w, and takes about 3.7 line-search trials per
    # step instead of 5.2, with no solve giving up
    p, dt, n_steps, n_states = make_params(1.0, 0.99), 10.0, 100, 16
    work = []
    for i in range(n_states):
        stream = substream(1, i)
        work.append(_dg_work([stream.uniform(-5.0, 5.0) for _ in range(4)], p, dt, n_steps)[2:])
    stabilized, trials = map(sum, zip(*work))
    assert stabilized == 0
    assert trials <= 4.0 * n_states * n_steps


# (stabilized steps, line-search trials) of the 16 starts of a decay study
# with seed 1 at each of decay_stiff's (r, omega0*dt) cells, 100 steps from
# each, as the DG kernels counted them over a batch before they kept a
# record per trajectory
DECAY_STIFF_WORK = {
    (0.1, 0.1): (0, 4265), (0.1, 1.0): (0, 1908), (0.1, 10.0): (2, 2780),
    (0.5, 0.1): (0, 4681), (0.5, 1.0): (0, 3390), (0.5, 10.0): (0, 4314),
    (0.99, 0.1): (0, 4784), (0.99, 1.0): (0, 5361), (0.99, 10.0): (0, 5946),
    (1.0, 0.1): (0, 4784), (1.0, 1.0): (0, 5394), (1.0, 10.0): (0, 6017),
}


@pytest.mark.parametrize("cell", list(DECAY_STIFF_WORK))
def test_record_work_sums_on_decay_stiff_cells(kernels, cell):
    # each trajectory's work columns, summed over the batch, are the sums the
    # kernels counted: on any thread count, since each row is one trajectory's
    (r, dt), p = cell, make_params(1.0, cell[0])
    ws = experiments._draw_starts([1], 16) * integrators._scale(p)
    states, _, record = _dg_record(ws, p, dt, 100)
    assert tuple(record[:, 1:].sum(axis=0).tolist()) == DECAY_STIFF_WORK[cell]
    assert record[:, 0].tolist() == [0] * 16 and np.isfinite(states).all()


def test_stalled_borrowed_iteration_retries_from_analytic_slopes():
    # The second step's first iteration, from the first solve's last slopes,
    # stalls in its line search (9 trials).  The iteration is retried from the
    # slopes at v = w, and the step then takes the iterates of a solve that
    # starts there: that of the frozen single-step reference from the same w.
    x0, p, dt = [-3.0, -2.0, -2.0, 5.0], make_params(1.0, 1.0), 10.0
    (first, _, _, trials1), (states, _, stabilized, trials2) = (
        _dg_work(x0, p, dt, 1), _dg_work(x0, p, dt, 2))
    v, ref_stabilized, ref_trials = _ref_step(tuple(first[1].tolist()), p, dt)
    assert stabilized == 0 and not ref_stabilized
    assert _bits(states[2]) == _bits(v)
    assert trials2 - trials1 == 9 + ref_trials


# Signed zeros and amplitudes up to 1e6, on a linear and on a log scale.
amplitude = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.floats(min_value=-1e6, max_value=1e6),
    st.tuples(st.sampled_from([1.0, -1.0]), st.floats(min_value=-12.0, max_value=6.0)).map(
        lambda se: se[0] * 10.0 ** se[1]),
)


@st.composite
def solve_inputs(draw):
    """(p, w, omega0*dt) with steps from 1e-12, where iterates stay within
    the cutoffs of w, to 1e8, where the first iterate lands deep in
    saturation and the solve may give up; or with a step whose first
    increment of one coordinate, about omega0*dt*F_i(w), falls within 1e-6
    (relative) of that coordinate's coincidence or derivative cutoff."""
    p = make_params(1.0, draw(full_resonances))
    w = tuple(draw(st.lists(amplitude, min_size=4, max_size=4)))
    dt_omega = 10.0 ** draw(st.floats(min_value=-12.0, max_value=8.0))
    if draw(st.booleans()):
        i = draw(st.integers(min_value=0, max_value=3))
        f = abs(model.stage_field(model.stage_gradients(w, model.stage_table(p)), p)[i])
        cutoff = draw(st.sampled_from([integrators._COINCIDENCE_CUTOFF,
                                       integrators._DERIVATIVE_CUTOFF]))
        e = draw(st.floats(min_value=-1e-6, max_value=1e-6))
        if f > 0.0:  # capped below where dt*omega0*F would overflow
            dt_omega = min(cutoff * max(1.0, abs(w[i])) * (1.0 + e) / f, 1e300)
    return p, w, dt_omega


@given(
    inputs=solve_inputs(),
    max_iter=st.sampled_from([1, 3, 50]),
    tol=st.sampled_from([integrators._NEWTON_TOL, 0.0]),
)
# -0.0 components, at a step that leaves every increment within the cutoffs
# and at one that does not, and |w_i| = 1 exactly, where max(1, |w_i|) ties:
# the signs and ties where a comparison in place of abs() can go wrong
@example(inputs=(make_params(1.0, 0.5), (-0.0, 0.5, -0.0, -2.0), 1e-13), max_iter=50, tol=0.0)
@example(inputs=(make_params(1.0, 0.5), (-0.0, 0.5, -0.0, -2.0), 1.0), max_iter=50, tol=0.0)
@example(inputs=(make_params(1.0, 1.0), (1.0, -1.0, 1.0, -1.0), 0.1), max_iter=50,
         tol=integrators._NEWTON_TOL)
@settings(max_examples=1000, deadline=None)
def test_kernel_bit_identical_to_frozen_reference(inputs, max_iter, tol):
    # The whole step: the returned state, whether the solve gave up and took
    # the stabilized step, and the line-search trials.  At tolerance 0 every
    # solve iterates until its line search stalls, so its trial count depends
    # on every trial's quotients.
    p, w, dt_omega = inputs
    with mock.patch.multiple(integrators, _NEWTON_MAX_ITER=max_iter, _NEWTON_TOL=tol):
        (v, *work), (ref, *ref_work) = _kernel(w, p, dt_omega), _ref_step(w, p, dt_omega)
    assert (_bits(v), work) == (_bits(ref), ref_work)


# The resonances, amplitudes and steps of the extreme-input contract test,
# plus the documented step that Newton alone cannot take.
@given(
    r=st.sampled_from([0.0, 1e-300, 1.0]) | st.floats(min_value=1e-3, max_value=1.0),
    omega0=st.sampled_from([1.0, 100.0]),
    dt_omega=st.floats(min_value=-2.0, max_value=4.0).map(lambda e: 10.0 ** e),
    x0=big_coords,
    n_steps=st.just(4),
)
@example(r=0.99, omega0=1.0, dt_omega=6145.5604786231415,
         x0=[-8.759788673787686, -1.4019593204420175, 23.613903935334953, -18.812994667196612],
         n_steps=4)
# step 71 is stabilized and steps 72 to 76 are not: a stabilized step's
# state and stage values carry into Newton steps within one kernel frame
@example(r=0.0, omega0=1.0, dt_omega=10.0, x0=[1.0, -2.0, 0.5, 3.0], n_steps=76)
@settings(max_examples=200, deadline=None)
def test_trajectory_bit_identical_to_frozen_reference(r, omega0, dt_omega, x0, n_steps):
    # simulate's discrete-gradient Trajectory, every column, against the
    # frozen solve with the stabilized step and the energy functions per state
    p, x0 = make_params(omega0, r), np.array(x0)
    dt = dt_omega / omega0
    assert _dg_columns(x0, p, dt, n_steps) == _ref_trajectory(x0, p, dt, n_steps)


@given(
    r=st.sampled_from([0.0, 1e-300, 1.0]) | st.floats(min_value=1e-3, max_value=1.0),
    omega0=st.sampled_from([1.0, 100.0]),
    dt_omega=st.floats(min_value=-3.0, max_value=1.0).map(lambda e: 10.0 ** e),
    x0=big_coords,
)
@settings(max_examples=100, deadline=None)
def test_rk4_energy_columns_bit_identical_to_per_state_energy(r, omega0, dt_omega, x0):
    # simulate's RK4 V and Vdot are those of w = D x at each recorded state
    # on its own, bit for bit
    p = make_params(omega0, r)
    traj = simulate(np.array(x0), p, StepConfig(dt=dt_omega / omega0, method=Method.RK4), 4)
    ws = [model.to_scaled(x, p.d) for x in traj.states]
    assert traj.V.tobytes() == np.array([_energy(w, p) for w in ws]).tobytes()
    assert traj.Vdot.tobytes() == np.array([_rate(w, p) for w in ws]).tobytes()


@given(
    r=st.sampled_from([0.0, 1e-300, 1.0]) | st.floats(min_value=1e-3, max_value=1.0),
    omega0=st.sampled_from([1.0, 100.0]),
    dt_omega=st.floats(min_value=-3.0, max_value=1.0).map(lambda e: 10.0 ** e),
    x0=big_coords,
)
@settings(max_examples=50, deadline=None)
def test_dg_vdot_bit_identical_to_per_state_rate(r, omega0, dt_omega, x0):
    # simulate's DG Vdot, evaluated on first read, is the rate at each w the
    # kernel recorded on its own, as the test above checks for RK4 at w = D x
    p, dt = make_params(omega0, r), dt_omega / omega0
    traj = simulate(np.array(x0), p, StepConfig(dt=dt), 4)
    ws = _dg_work(x0, p, dt, 4)[0].tolist()
    assert traj.Vdot.tobytes() == np.array([_rate(w, p) for w in ws]).tobytes()


@pytest.mark.parametrize("method", list(Method))
def test_vdot_evaluated_on_first_read_and_kept(monkeypatch, method):
    calls = []
    real = lyapunov.rate_column
    monkeypatch.setattr(lyapunov, "rate_column", lambda zs, p: calls.append(p) or real(zs, p))
    p = make_params(1.0, 0.5)
    traj = simulate(np.array([1.0, -2.0, 0.5, 3.0]), p, StepConfig(dt=0.05, method=method), 30)
    assert calls == []
    first = traj.Vdot
    assert len(first) == 31 and calls == [p]
    assert traj.Vdot is first
    assert calls == [p]


@given(
    r=st.sampled_from([0.0, 1e-300, 1.0]) | st.floats(min_value=1e-3, max_value=1.0),
    omega0=st.sampled_from([1.0, 100.0]),
    dt_omega=st.floats(min_value=-3.0, max_value=1.0).map(lambda e: 10.0 ** e),
    x0=big_coords,
    n_steps=st.integers(min_value=1, max_value=6),
)
@settings(max_examples=300, deadline=None)
def test_rk4_trajectory_bit_identical_to_frozen_reference(r, omega0, dt_omega, x0, n_steps):
    # simulate's RK4 Trajectory, every column, and the kernel's states and
    # stage values against the frozen step and per-state stage_tanh
    p, dt = make_params(omega0, r), dt_omega / omega0
    columns, flat = _ref_rk4_trajectory(x0, p, dt, n_steps)
    traj = simulate(np.array(x0), p, StepConfig(dt=dt, method=Method.RK4), n_steps)
    assert _columns(traj) == columns
    arrays = states, stages, _, _, _ = integrators._start(np.array([x0]), [p], n_steps, rk4=True)
    integrators._rk4_run(*arrays, dt)
    assert _bits([*states.ravel(), *stages.ravel()]) == flat


def test_rk4_tanh_calls_per_step(python_kernels):
    # 20 for the four field evaluations and 5 for the new state's stage
    # values, after the 5 of the initial state, counted on the Python kernel
    p, x0, dt, n_steps = make_params(1.0, 1.0), np.array([1.0, -2.0, 0.5, 3.0]), 0.05, 100
    want, _ = _ref_rk4_trajectory(x0, p, dt, n_steps)
    calls, real_tanh = [], math.tanh

    def tanh(u):
        calls.append(u)
        return real_tanh(u)

    with mock.patch.object(math, "tanh", tanh):
        traj = simulate(x0, p, StepConfig(dt=dt, method=Method.RK4), n_steps)
    assert _columns(traj) == want
    assert len(calls) == 5 + 25 * n_steps


def test_rk4_overflow_names_its_step(kernels):
    # the first step overflows, and so does a lone step
    p, x0 = make_params(1e300, 0.5), [1.0, 2.0, 3.0, 4.0]
    with pytest.raises(IntegrationError, match="step 1:") as exc:
        simulate(x0, p, StepConfig(dt=1e10, method=Method.RK4), 3)
    assert exc.value.step == 1 and not isinstance(exc.value, NewtonError)
    with pytest.raises(IntegrationError, match="step 1:"):
        step_rk4(x0, p, 1e10)


@pytest.mark.parametrize("x", [[0.0, 0.0, 0.0, 1e308], [1e308] * 4])
def test_step_from_infinite_energy_is_rejected(kernels, x):
    # every entry is finite but V(D x) overflows: the kernel takes no step,
    # and both one-step functions raise the ValueError simulate raises, not
    # an IntegrationError naming step 1
    p = make_params(1.0, 1.0)
    with pytest.raises(ValueError, match=r"^x must have a finite energy V\(D x\), got "):
        step_rk4(x, p, 0.1)
    with pytest.raises(ValueError, match=r"^x must have a finite energy V\(D x\), got "):
        step_discrete_gradient(x, p, StepConfig(0.1))


def test_rk4_non_finite_state_names_its_step(python_kernels):
    # a NaN injected into the first tanh of step k of the Python kernel
    # spreads to later steps, and the error names step k
    p, x0, real_tanh = make_params(1.0, 0.5), [1.0, 2.0, 3.0, 4.0], math.tanh
    for k in (2, 5, 10):
        calls = []

        def tanh(u):
            calls.append(u)
            return math.nan if len(calls) == 5 + 25 * (k - 1) + 1 else real_tanh(u)

        with mock.patch.object(math, "tanh", tanh):
            with pytest.raises(IntegrationError, match=f"step {k}:") as exc:
                simulate(x0, p, StepConfig(dt=0.1, method=Method.RK4), 10)
        assert exc.value.step == k


@pytest.mark.parametrize("dt_omega", [0.1, 10.0])
def test_stage_tanh_once_per_state(monkeypatch, python_kernels, dt_omega):
    # A recorded state's five stage values serve its rate and the solve from
    # it, and a solve evaluates tanh only for the quotient slopes of its
    # iterations after the first: at most 5 tanh calls per recorded state
    # plus 5 per such iteration, counted on the Python kernel, which makes
    # them all, row 0's included.  The iterations are counted on the frozen
    # solve, which takes the same iterates bit for bit.
    p, x0, n_steps = make_params(1.0, 1.0), np.array([1.0, -2.0, 0.5, 3.0]), 100
    counts = {"solve": 0, "iteration": 0, "tanh": 0}
    real_newton, real_jacobian, real_tanh = _ref_newton_dg, _ref_jacobian, math.tanh

    def newton(*args):
        counts["solve"] += 1
        return real_newton(*args)

    def jacobian(*args):
        counts["iteration"] += 1
        return real_jacobian(*args)

    def tanh(u):
        counts["tanh"] += 1
        return real_tanh(u)

    with mock.patch.dict(globals(), _ref_newton_dg=newton, _ref_jacobian=jacobian):
        want = _ref_trajectory(x0, p, dt_omega, n_steps)
    assert counts["solve"] == n_steps  # one solve per step
    with mock.patch.object(math, "tanh", tanh):
        got = _dg_columns(x0, p, dt_omega, n_steps)
    assert got == want
    assert 0 < counts["tanh"] <= 5 * (n_steps + 1) + 5 * (counts["iteration"] - counts["solve"])


@given(
    a=st.floats(min_value=-3.0, max_value=3.0) | st.floats(min_value=-800.0, max_value=800.0),
    h=st.floats(min_value=-1.0, max_value=1.0) | st.floats(min_value=1.0, max_value=1e3)
    | st.floats(min_value=-1e3, max_value=-1.0),
)
# |h| > 1 with each of |a + h| and |a| on either side of 1, where the
# two-argument formula took log_cosh's two branches
@example(a=0.5, h=-1.25)
@example(a=0.5, h=1.5)
@example(a=2.0, h=-1.5)
@example(a=-2.0, h=-1.5)
@example(a=1.0, h=-2.0)
@example(a=-0.0, h=1.0)
@settings(max_examples=500)
def test_log_cosh_diff_bit_identical_to_two_argument_formula(a, h):
    assert _bits([lyapunov.log_cosh_diff(a, h, math.tanh(a))]) == _bits([_ref_log_cosh_diff(a, h)])


def test_step_discrete_gradient_is_simulate_step():
    # the one-step API takes simulate's step path, the stabilized step included
    # Newton alone stalls near residual 1.45e-12 here, where no line-search
    # trial lowers it; the solve gives up at once, and the stabilized step
    # takes over.
    p = make_params(1.0, 0.99)
    cfg = StepConfig(dt=6145.5604786231415)
    x = np.array([-8.759788673787686, -1.4019593204420175, 23.613903935334953, -18.812994667196612])
    _, _, stabilized, trials = _dg_work(x.tolist(), p, cfg.dt, 1)
    assert stabilized == 1
    assert 1 + trials <= 50
    got = step_discrete_gradient(x, p, cfg)
    assert got.tobytes() == simulate(x, p, cfg, 1).states[1].tobytes()
    stream = substream(8, 0)
    for _ in range(40):
        p = make_params(10.0 ** stream.uniform(-1.0, 2.0), stream.uniform(0.0, 1.0))
        cfg = StepConfig(dt=10.0 ** stream.uniform(-1.0, 4.0) / p.omega0)
        x = np.array([stream.uniform(-30.0, 30.0) for _ in range(4)])
        got = step_discrete_gradient(x, p, cfg)
        assert got.tobytes() == simulate(x, p, cfg, 1).states[1].tobytes()


def test_one_step_agreement_with_rk4():
    p = make_params(1.0, 0.5)
    x0 = np.array([1.0, 0.0, 0.0, 0.0])
    dts = [0.1, 0.05, 0.025, 0.0125]
    diffs = [
        np.linalg.norm(step_discrete_gradient(x0, p, StepConfig(dt=dt)) - step_rk4(x0, p, dt))
        for dt in dts
    ]
    slope = np.polyfit(np.log(dts), np.log(diffs), 1)[0]
    assert slope >= 1.8


def test_trajectory_convergence_order_at_least_one():
    p = make_params(1.0, 0.5)
    x0 = np.array([1.0, 0.0, 0.0, 0.0])
    ref = x0.copy()
    for _ in range(10000):
        ref = step_rk4(ref, p, 1e-4)
    dts = [0.1, 0.05, 0.025, 0.0125]
    errs = []
    for dt in dts:
        traj = simulate(x0, p, StepConfig(dt=dt), int(round(1.0 / dt)))
        errs.append(np.linalg.norm(traj.states[-1] - ref))
    slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
    assert slope >= 1.0


# Properties of the scheme itself, whose expected values stay the same when a
# change to the solve moves the bits.  Multi-step runs reach omega0*dt = 10,
# where solves after the first start from the previous solve's slopes.
property_resonances = (st.sampled_from([0.0, 1e-300, 1e-12, 1.0])
                       | st.floats(min_value=0.0, max_value=1.0, allow_subnormal=False))
property_runs = {
    "r": property_resonances,
    "bound": st.floats(min_value=-3.0, max_value=3.0).map(lambda e: 10.0 ** e),
    "dt_omega": st.floats(min_value=-3.0, max_value=1.0).map(lambda e: 10.0 ** e),
    "n_steps": st.integers(min_value=1, max_value=8),
    "data": st.data(),
}


def _run_steps(r, bound, dt_omega, n_steps, data):
    """(p, [(w, its stage values, the frozen residual norm of the step to it)],
    stabilized steps) of one _dg_run call from x0 with |x0_i| <= bound."""
    p = make_params(1.0, r)
    x0 = data.draw(st.lists(st.floats(min_value=-bound, max_value=bound),
                            min_size=4, max_size=4), label="x0")
    states, stages, stabilized, _ = _dg_work(x0, p, dt_omega, n_steps)
    run = [(tuple(states[0].tolist()), tuple(stages[0].tolist()), 0.0)]
    for v, t in zip(states[1:].tolist(), stages[1:].tolist()):
        res, _ = _ref_residual(run[-1][0], tuple(v), p, _ref_table(p), dt_omega)
        run.append((tuple(v), tuple(t), max(map(abs, res))))
    return p, run, stabilized


def _field_lipschitz(p):
    """The max-norm Lipschitz constant of v -> Fbar(w, v): each quotient's
    slope in v lies in [0, L_i], L_i = S_i k_i^2 its stage's largest curvature."""
    L1, L2, L3, L4, L5 = (2.0 * half for *_, half in model.stage_table(p))
    d, fc = p.d, p.feedback_coeff
    return max(L1 + fc * L4, d * L1 + L2, d * L2 + L3, d * L3 + L5)


@given(**property_runs)
@settings(max_examples=200, deadline=None)
def test_discrete_gradient_time_reversal(r, bound, dt_omega, n_steps, data):
    # Fbar(w, v) = Fbar(v, w), so w solves the step from v with -dt.  Where
    # that backward equation is a contraction, q = omega0*dt * Lipschitz <= 1/2,
    # it has no other solution, and the back-solve returns w within its own and
    # the forward residual over 1 - q.  Beyond, it may have others: one that
    # the back-solve finds is a state u whose (unique) forward step, where
    # Newton takes it, reaches v.
    p, run, stabilized = _run_steps(r, bound, dt_omega, n_steps, data)
    q, tol = dt_omega * _field_lipschitz(p), integrators._NEWTON_TOL
    for (w, _, _), (v, t, rnorm) in zip(run, run[1:]):
        if stabilized and rnorm > tol:  # a stabilized step
            continue
        try:
            back, back_stages, record = np.array([[v, v]]), np.array([[t, t]]), np.empty(
                (1, 3), np.int64)
            integrators._dg_run(back, back_stages, np.empty((1, 2)), record,
                                np.array([native.constants(p)]), -dt_omega)
            u, back_stabilized = back[0, 1].tolist(), record[0, 1]
        except ZeroDivisionError:  # with -dt, a Newton or stabilized pivot 1 - dt*omega0*e_i
            assert q > 0.5  # can be 0 only beyond the contraction range
            continue
        m = max(1.0, *map(abs, w), *map(abs, v))
        if q <= 0.5:
            assert back_stabilized == 0
            assert max(map(abs, map(operator.sub, u, w))) <= 2.0 * (tol + 1e-15 * m) / (1.0 - q)
        elif back_stabilized == 0:
            again, again_stabilized, _ = _kernel(tuple(u), p, dt_omega)
            if not again_stabilized:
                assert max(map(abs, map(operator.sub, again, v))) <= 1e-10 * m


@given(**property_runs)
@settings(max_examples=200, deadline=None)
def test_discrete_gradient_telescopes_on_every_step(r, bound, dt_omega, n_steps, data):
    # Every step that did not give up solves the scheme, and on it V changes
    # by exactly zbar'(v - w) up to rounding
    p, run, stabilized = _run_steps(r, bound, dt_omega, n_steps, data)
    tol = integrators._NEWTON_TOL
    assert sum(rnorm > tol for _, _, rnorm in run) == stabilized
    for (w, _, _), (v, _, rnorm) in zip(run, run[1:]):
        if rnorm > tol:
            continue
        *zbar, _ = _ref_stage_quotients(w, v, _ref_table(p))
        terms = list(map(operator.mul, zbar, map(operator.sub, v, w)))
        before, after = _energy(w, p), _energy(v, p)
        scale = max(1.0, abs(before), sum(map(abs, terms)))
        assert abs(after - before - math.fsum(terms)) <= 1e-13 * scale


@given(r=property_resonances)
@example(r=0.5)  # criterion 10's resonance
@settings(max_examples=8, deadline=None)
def test_discrete_gradient_order_two(r):
    # criterion 10's set-up, which asks only for order >= 1: the symmetric
    # scheme is of order 2 (2.0004 to 2.0009 over r)
    p, x0 = make_params(1.0, r), np.array([1.0, 0.0, 0.0, 0.0])
    ref = simulate(x0, p, StepConfig(dt=1e-5, method=Method.RK4), 100000).states[-1]
    dts = [0.1, 0.05, 0.025, 0.0125, 0.00625]
    errs = [np.linalg.norm(simulate(x0, p, StepConfig(dt=dt), round(1.0 / dt)).states[-1] - ref)
            for dt in dts]
    assert np.polyfit(np.log(dts), np.log(errs), 1)[0] >= 1.9


@pytest.mark.parametrize("r", [0.0, 0.5, 1.0])
def test_discrete_gradient_agrees_with_rk4(r):
    # the two kernels, written independently for one field, agree at t = 1
    # from a saturated state: DG's distance from a fine RK4 run shrinks at
    # order 2 as dt halves (1.997 to 1.999 on each halving)
    p, x0 = make_params(1.0, r), np.array([4.0, -3.0, 2.0, 1.5])
    ref = simulate(x0, p, StepConfig(dt=1e-3, method=Method.RK4), 1000).states[-1]
    errs = [np.linalg.norm(simulate(x0, p, StepConfig(dt=dt), round(1.0 / dt)).states[-1] - ref)
            for dt in (0.1, 0.05, 0.025)]
    assert min(math.log2(a / b) for a, b in zip(errs, errs[1:])) >= 1.9


def test_failed_solve_costs_one_stabilized_step(monkeypatch):
    # a solve that cannot reach the tolerance gives up after its iterations,
    # and its step is one stabilized step: no retry, no tree of sub-steps
    x0, p, n_steps = [1.0, 1.0, -1.0, 0.5], make_params(1.0, 0.9), 20
    with monkeypatch.context() as patch:
        patch.setattr(integrators, "_NEWTON_TOL", 1e-30)
        patch.setattr(integrators, "_NEWTON_MAX_ITER", 2)
        _, _, stabilized, trials = _dg_work(x0, p, 0.5, n_steps)
    assert stabilized == n_steps and 0 < trials <= 2 * 9 * n_steps
    # with no Newton iteration at all, a run of n steps takes n stabilized
    # steps and no line-search trial, and V does not rise
    monkeypatch.setattr(integrators, "_NEWTON_MAX_ITER", 0)
    _, _, stabilized, trials = _dg_work(x0, p, 0.5, n_steps)
    assert (stabilized, trials) == (n_steps, 0)
    traj = simulate(np.array(x0), p, StepConfig(dt=0.5), n_steps)
    assert np.isfinite(traj.states).all()
    assert np.diff(traj.V).max() <= 0.0


def test_simulate_rejects_bad_inputs():
    p = make_params(1.0, 0.5)
    cfg = StepConfig(dt=0.1)
    with pytest.raises(ValueError):
        simulate(np.zeros(4), p, cfg, 0)
    with pytest.raises(ValueError):
        simulate(np.zeros(3), p, cfg, 10)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="x0 must be finite"):
            simulate([1.0, bad, 0.0, 0.0], p, cfg, 10)
        with pytest.raises(ValueError, match="x must be finite"):
            step_rk4([1.0, 0.0, bad, 0.0], p, 0.1)
        with pytest.raises(ValueError, match="x must be finite"):
            step_discrete_gradient([1.0, 0.0, 0.0, bad], p, cfg)
    with pytest.raises(ValueError, match="dt"):
        step_rk4(np.zeros(4), p, math.inf)
    # finite entries whose energy V(D x0) overflows: w4 = d^3 x4 at r = 1
    for method in Method:
        with pytest.raises(ValueError, match="x0 must have a finite energy"):
            simulate([0.0, 0.0, 0.0, 1e308], make_params(1.0, 1.0), StepConfig(0.1, method), 1)


def test_simulate_records_consistent_columns():
    p = make_params(1.0, 0.4)
    cfg = StepConfig(dt=0.05)
    traj = simulate(np.array([1.0, -1.0, 0.5, 2.0]), p, cfg, 50)
    assert len(traj.times) == len(traj.states) == len(traj.V) == len(traj.Vdot) == 51
    assert np.all(np.diff(traj.times) > 0.0)
    for k in (0, 10, 50):
        w = model.to_scaled(traj.states[k], p.d)
        assert traj.V[k] == pytest.approx(lyapunov.V_nonlinear(w, p), rel=1e-12)
        assert traj.Vdot[k] == pytest.approx(lyapunov.Vdot_nonlinear(w, p), rel=1e-9, abs=1e-12)


def test_simulate_rk4_states_equal_repeated_steps():
    p = make_params(1.0, 0.9)
    cfg = StepConfig(dt=0.05, method=Method.RK4)
    x = np.array([3.0, -1.5, 0.25, 4.0])
    traj = simulate(x, p, cfg, 40)
    want = [x]
    for _ in range(40):
        want.append(step_rk4(want[-1], p, cfg.dt))
    assert traj.states.tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("method", list(Method))
def test_trajectory_arrays_are_float64(method):
    n = 7
    traj = simulate([1, -2, 0, 3], make_params(1.0, 0.5), StepConfig(dt=1, method=method), n)
    for column in (traj.times, traj.V, traj.Vdot):
        assert column.dtype == np.float64 and column.shape == (n + 1,)
    assert traj.states.dtype == np.float64 and traj.states.shape == (n + 1, 4)
    assert traj.times.tolist() == [float(k) for k in range(n + 1)]


def test_simulate_rk4_energy_decay_small_steps():
    p = make_params(1.0, 0.5)
    traj = simulate(np.array([1.0, 0.0, 0.0, 0.0]), p,
                    StepConfig(dt=0.01, method=Method.RK4), 5000)
    assert np.diff(traj.V).max() <= 1e-9


def test_simulate_rk4_decays_to_origin():
    from moogvcf.spectral import eigvals_closed_form
    p = make_params(1.0, 0.5)
    t_end = 30.0 / -eigvals_closed_form(p).max_real_part
    dt = 0.05
    traj = simulate(np.array([1.0, 0.0, 0.0, 0.0]), p,
                    StepConfig(dt=dt, method=Method.RK4), int(round(t_end / dt)))
    assert np.linalg.norm(traj.states[-1]) < 1e-3


@pytest.mark.parametrize("r", [1e-10, 1e-12, 1e-15])
def test_discrete_gradient_contract_at_tiny_resonance(r):
    # the stage-4 energy scale d^2/(4r) multiplies any absolute error of
    # lncosh near 0, so V must keep its relative accuracy there
    p = make_params(1.0, r)
    traj = simulate(np.array([1.0, -2.0, 0.5, 3.0]), p, StepConfig(dt=0.05), 200)
    assert np.diff(traj.V).max() <= 1e-10


def test_simulate_zero_feedback_branch():
    p = make_params(1.0, 0.0)
    traj = simulate(np.array([2.0, -3.0, 1.0, 0.5]), p, StepConfig(dt=0.5), 100)
    assert np.diff(traj.V).max() <= 1e-10


def test_stalled_line_search_gives_up_at_once():
    # r = 0 at omega0*dt = 10: Newton iterates sometimes stall just above the
    # tolerance, and a stalled solve must give up at once for the stabilized
    # step to take over: at most 5 residual evaluations per step (a stall
    # that kept iterating would cost 9 per iteration, up to 450 per solve)
    x0, p, n_steps = [1.0, -2.0, 0.5, 3.0], make_params(1.0, 0.0), 100
    _, _, stabilized, trials = _dg_work(x0, p, 10.0, n_steps)
    assert stabilized > 0
    assert n_steps + trials <= 5 * n_steps
    traj = simulate(np.array(x0), p, StepConfig(dt=10.0), n_steps)
    assert np.diff(traj.V).max() <= 1e-10


@given(
    r=st.sampled_from([0.0, 1.0]) | st.floats(min_value=1e-300, max_value=1.0),
    dt_omega=st.floats(min_value=-2.0, max_value=8.0).map(lambda e: 10.0 ** e),
    x0=st.lists(amplitude, min_size=4, max_size=4),
)
@settings(max_examples=300, deadline=None)
def test_discrete_gradient_contract_at_extreme_inputs(r, dt_omega, x0):
    # amplitudes up to 1e6 and steps up to omega0*dt = 1e8, the shrinking
    # companion of tests/test_campaign.py: no exception, finite states, and V
    # never rises beyond solver slack
    traj = simulate(np.array(x0), make_params(1.0, r), StepConfig(dt=dt_omega), 3)
    assert np.isfinite(traj.states).all()
    assert np.diff(traj.V).max() <= 1e-10


def test_simulate_stabilized_step_recovers():
    # inputs on which Newton alone gives up: simulate takes the stabilized
    # step there and Newton steps elsewhere, and V does not rise
    for r, dt, x0, n_steps in [
        (0.99, 6145.5604786231415,
         [-8.759788673787686, -1.4019593204420175, 23.613903935334953, -18.812994667196612], 5),
        (0.0, 10.0, [1.0, -2.0, 0.5, 3.0], 100),
    ]:
        p = make_params(1.0, r)
        _, _, stabilized, _ = _dg_work(x0, p, dt, n_steps)
        assert 0 < stabilized < n_steps
        traj = simulate(np.array(x0), p, StepConfig(dt=dt), n_steps)
        assert np.isfinite(traj.states).all()
        assert np.diff(traj.V).max() <= 1e-10


def test_dg_non_finite_state_names_its_step(python_kernels):
    # a NaN injected into the first stage value tanh(w1) of state k - 1 (by
    # the Python kernel from k = 2 on) makes state k NaN, whatever the solve
    # does with it, and the error names step k
    x0, p, dt, n_steps = [1.0, -2.0, 0.5, 3.0], make_params(1.0, 0.5), 0.1, 10
    states, real_tanh = _dg_work(x0, p, dt, n_steps)[0], math.tanh
    for k in (1, 2, 5, 10):
        target, injected = states[k - 1, 0], []  # w1 of state k - 1

        def tanh(u):
            if u == target and not injected:
                injected.append(u)
                return math.nan
            return real_tanh(u)

        with mock.patch.object(math, "tanh", tanh):
            with pytest.raises(IntegrationError, match=f"step {k}: state not finite") as exc:
                simulate(x0, p, StepConfig(dt=dt), n_steps)
        assert injected and exc.value.step == k


def test_stress_matrix_dissipation_sample():
    # small slice of the full stress matrix; the acceptance suite runs it
    # at full size
    for r in (0.1, 1.0):
        p = make_params(1.0, r)
        for dt in (0.1, 10.0):
            cfg = StepConfig(dt=dt)
            for i in range(3):
                stream = substream(99, i)
                x0 = np.array([stream.uniform(-5, 5) for _ in range(4)])
                traj = simulate(x0, p, cfg, 50)
                assert np.diff(traj.V).max() <= 10.0 * integrators._NEWTON_TOL


@given(
    r=property_resonances,
    omega0=st.sampled_from([1.0, 1e300]),
    log_omega_dt=st.floats(min_value=0.0, max_value=306.0) | st.just(306.0),
    x0=st.lists(amplitude | st.sampled_from([1e100, -1e300]), min_size=4, max_size=4),
    n_steps=st.integers(min_value=1, max_value=5),
)
@settings(max_examples=300, deadline=None)
def test_dg_steps_up_to_the_limit_are_finite_and_dissipative(r, omega0, log_omega_dt, x0,
                                                            n_steps):
    # omega0*dt up to MAX_DG_OMEGA0_DT: finite states, and V rises by at most
    # 1e-10 (relative to max(1, V)) in any step; just above it, or at an
    # omega0*dt that overflows, simulate and step_discrete_gradient raise
    # ValueError naming dt before any step
    p, limit = make_params(omega0, r), integrators.MAX_DG_OMEGA0_DT
    cfg = StepConfig(dt=min(10.0 ** log_omega_dt, limit) / omega0)
    traj = simulate(x0, p, cfg, n_steps)
    assert np.isfinite(traj.states).all()
    assert (np.diff(traj.V) / np.maximum(1.0, np.abs(traj.V[:-1]))).max() <= 1e-10
    for above in (1.0000001 * limit, 1e308, math.inf):
        cfg = StepConfig(dt=min(above / omega0, sys.float_info.max))
        with pytest.raises(ValueError, match="^dt = .* discrete-gradient limit"):
            simulate(x0, p, cfg, 1)
        with pytest.raises(ValueError, match="^dt = .* discrete-gradient limit"):
            step_discrete_gradient(x0, p, cfg)
