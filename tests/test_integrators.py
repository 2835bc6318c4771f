import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moogvcf import integrators, lyapunov, model
from moogvcf.integrators import (
    Method,
    NewtonError,
    StepConfig,
    _stage_quotients,
    simulate,
    step_discrete_gradient,
    step_rk4,
)
from moogvcf.model import make_params
from moogvcf.rng import substream

coords = st.lists(st.floats(min_value=-20, max_value=20), min_size=4, max_size=4)
resonances = st.floats(min_value=1e-3, max_value=1.0, allow_nan=False)


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
    *zbar, _ = _stage_quotients(tuple(w), tuple(v), model.stage_table(p))
    w = np.array(w)
    v = np.array(v)
    change = lyapunov.lyapunov_value(v, p) - lyapunov.lyapunov_value(w, p)
    assert abs(change - float(np.array(zbar) @ (v - w))) < 1e-12


def test_discrete_gradient_coincidence_limit():
    p = make_params(1.0, 0.7)
    w = np.array([0.3, -1.0, 2.0, 0.5])
    *zbar, du4 = _stage_quotients(tuple(w.tolist()), tuple(w.tolist()), model.stage_table(p))
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
    *zbar, du4 = _stage_quotients(w, v, model.stage_table(p))
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
    *zbar, du4 = _stage_quotients(w, v, model.stage_table(p))
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
    p = make_params(1.0, r)
    w, v = tuple(w), tuple(v)
    table = model.stage_table(p)
    res, zbar = integrators._residual(w, v, p, table, dt_omega)
    jac = integrators._jacobian(w, v, p, table, zbar, dt_omega)
    (j11, _, _, j14), (j21, j22, _, _), (_, j32, j33, _), (_, _, j43, j44) = jac
    assert min(j11, j22, j33, j44) >= 1.0
    q3 = (-j32 / j33) * (-j21 / j22) * (j14 / j11)
    assert j44 - j43 * q3 >= 1.0
    ref = np.linalg.solve(np.array(jac), -np.array(res))
    step = np.array(integrators._newton_step(jac, res))
    assert np.abs(step - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("dt_omega, max_per_step", [(0.05, 4.0), (10.0, 7.0)])
def test_newton_work_per_step(monkeypatch, dt_omega, max_per_step):
    # Newton starts at v = w (an explicit-Euler start costs 9.7 residuals per
    # step at dt_omega = 10 on this trajectory), and a Jacobian, five
    # quotient derivatives, is built only for an accepted iterate above tol:
    # never for the converged iterate that ends each solve, nor for a
    # rejected line-search trial.
    counts = {"residual": 0, "derivative": 0, "solve": 0}

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(integrators, "_residual", counted("residual", integrators._residual))
    monkeypatch.setattr(integrators, "_quotient_derivative",
                        counted("derivative", integrators._quotient_derivative))
    real_newton = integrators._newton_dg

    def newton(w, *args):
        assert all(type(u) is float for u in w)
        counts["solve"] += 1
        v = real_newton(w, *args)
        assert all(type(u) is float for u in v)
        return v

    monkeypatch.setattr(integrators, "_newton_dg", newton)
    x0, p, cfg = np.array([1.0, -2.0, 0.5, 3.0]), make_params(1.0, 1.0), StepConfig(dt=dt_omega)
    n_steps = 100
    simulate(x0, p, cfg, n_steps)
    assert counts["solve"] == n_steps
    assert counts["residual"] <= max_per_step * n_steps
    assert counts["derivative"] <= 5 * (counts["residual"] - counts["solve"])
    step_discrete_gradient(x0, p, cfg)  # float entries on this path too


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


def test_newton_reports_residual_on_failure(monkeypatch):
    monkeypatch.setattr(integrators, "_NEWTON_TOL", 1e-30)
    monkeypatch.setattr(integrators, "_NEWTON_MAX_ITER", 2)
    p = make_params(100.0, 0.9)
    with pytest.raises(NewtonError) as exc:
        step_discrete_gradient(np.array([1.0, 1.0, -1.0, 0.5]), p, StepConfig(dt=0.5))
    assert exc.value.residual > 0.0


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
    from moogvcf.spectral import stability_margin
    p = make_params(1.0, 0.5)
    t_end = 30.0 / stability_margin(p)
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


def test_simulate_step_halving_recovers(monkeypatch):
    # force failures for coarse steps only; simulate must split the interval
    real = integrators._newton_dg
    calls = []

    def flaky(w, p, dt):
        calls.append(dt)
        if dt > 0.03:
            raise NewtonError("forced", 1.0)
        return real(w, p, dt)

    monkeypatch.setattr(integrators, "_newton_dg", flaky)
    p = make_params(1.0, 0.5)
    traj = simulate(np.array([1.0, 1.0, 1.0, 1.0]), p, StepConfig(dt=0.1), 5)
    assert np.diff(traj.V).max() <= 1e-10
    assert min(calls) <= 0.03


def test_simulate_halving_gives_up_with_step_index(monkeypatch):
    def always_fail(w, p, dt):
        raise NewtonError("forced", 2.5)

    monkeypatch.setattr(integrators, "_newton_dg", always_fail)
    p = make_params(1.0, 0.5)
    with pytest.raises(NewtonError) as exc:
        simulate(np.ones(4), p, StepConfig(dt=0.1), 3)
    assert exc.value.step == 1
    assert "step 1" in str(exc.value)


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
