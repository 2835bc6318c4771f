"""Time integration with a per-step energy-decay guarantee.

Two one-step methods are provided: classic explicit RK4 as the accuracy
reference, and an implicit discrete-gradient scheme.  The latter advances
the scaled state by (w' - w)/dt = omega0 * Fbar(w, w') where Fbar rebuilds
the vector field from coordinate-wise discrete gradients of the separable
saturation energy: zbar_i = (V_i(w_i') - V_i(w_i)) / (w_i' - w_i).  Because
the quotients telescope, V(w') - V(w) = zbar' (w' - w) exactly, so the
energy change per accepted step equals dt * omega0 * zbar' Qbar zbar plus
Newton slack, and that quadratic form is nonpositive for d = max(1, alpha).

All discrete-gradient stepping happens in w coordinates; conversion to x
is done when recording trajectories.
"""

import math
from dataclasses import dataclass
from enum import Enum
from operator import mul, truediv

import numpy as np

from . import lyapunov, model
from .model import FilterParams

# Relative |w_i' - w_i| below which the discrete gradient uses the analytic
# stage derivative, and below which its v-derivative uses the limit form.
_COINCIDENCE_CUTOFF = 1e-12
_DERIVATIVE_CUTOFF = 1e-7

# Newton stops once the residual's infinity norm is at most _NEWTON_TOL,
# and gives up after _NEWTON_MAX_ITER iterations.
_NEWTON_TOL = 1e-12
_NEWTON_MAX_ITER = 50


class Method(Enum):
    RK4 = "rk4"
    DISCRETE_GRADIENT = "dg"


class NewtonError(RuntimeError):
    """Implicit solve failed; carries the last residual and, when raised
    from a simulation, the failing step index."""

    def __init__(self, message: str, residual: float, step: int | None = None):
        self.residual = residual
        self.step = step
        super().__init__(f"{message} (residual {residual:.3e})")


@dataclass(frozen=True)
class StepConfig:
    """Integration settings for one simulation."""

    dt: float
    method: Method = Method.DISCRETE_GRADIENT

    def __post_init__(self):
        if not 0.0 < self.dt < math.inf:
            raise ValueError(f"dt must be positive and finite, got {self.dt}")


@dataclass
class Trajectory:
    """Sampled solution: times, states in x coordinates, energy V, and its
    decay rate Vdot, all of equal length with strictly increasing times."""

    times: np.ndarray
    states: np.ndarray
    V: np.ndarray
    Vdot: np.ndarray


def _finite_state(x, name: str) -> np.ndarray:
    """x as a float 4-vector; ValueError naming the field unless finite."""
    x = np.asarray(x, dtype=float)
    if x.shape != (4,):
        raise ValueError(f"{name} must be a 4-vector, got shape {x.shape}")
    if not all(map(math.isfinite, x.tolist())):
        raise ValueError(f"{name} must be finite, got {x.tolist()}")
    return x


def _rk4(x, p: FilterParams, dt: float) -> tuple:
    """Classic fourth-order step x + dt/6 (k1 + 2 k2 + 2 k3 + k4) of
    model.nonlinear_field on the float 4-tuple x, in the array form's order."""
    field = model.nonlinear_field
    h = 0.5 * dt
    x1, x2, x3, x4 = x
    a1, a2, a3, a4 = field(x, p)
    b1, b2, b3, b4 = field((x1 + h * a1, x2 + h * a2, x3 + h * a3, x4 + h * a4), p)
    c1, c2, c3, c4 = field((x1 + h * b1, x2 + h * b2, x3 + h * b3, x4 + h * b4), p)
    d1, d2, d3, d4 = field((x1 + dt * c1, x2 + dt * c2, x3 + dt * c3, x4 + dt * c4), p)
    s = dt / 6.0
    return (x1 + s * (a1 + 2.0 * b1 + 2.0 * c1 + d1), x2 + s * (a2 + 2.0 * b2 + 2.0 * c2 + d2),
            x3 + s * (a3 + 2.0 * b3 + 2.0 * c3 + d3), x4 + s * (a4 + 2.0 * b4 + 2.0 * c4 + d4))


def step_rk4(x, p: FilterParams, dt: float) -> np.ndarray:
    """Classic fourth-order one-step update of rhs_nonlinear."""
    StepConfig(dt)  # validates dt
    return np.array(_rk4(tuple(_finite_state(x, "x").tolist()), p, dt))


def _quotient(a, b, stage):
    """Discrete gradient (S lncosh(k b) - S lncosh(k a)) / (b - a) of the
    potential with model.stage_table row stage; S k tanh(k a) at coincidence."""
    s, k, sk, _ = stage
    h = b - a
    # max(1, |a|) as a conditional, which gives the same value without a call
    m = abs(a) if abs(a) > 1.0 else 1.0
    if abs(h) < _COINCIDENCE_CUTOFF * m:
        return sk * math.tanh(k * a)
    return s * lyapunov.log_cosh_diff(k * a, k * h) / h


def _quotient_slope(a, b, stage, z):
    """d/db of the quotient z = _quotient(a, b, stage); limit form
    S k^2 sech^2(k b) / 2 near coincidence.  The quotient is a secant slope
    of a convex potential, so the derivative is nonnegative; the secant form
    is clamped at 0 so that rounding cannot flip its sign."""
    _, k, sk, half_skk = stage
    h = b - a
    v = a + h
    t = math.tanh(k * v)
    m = abs(a) if abs(a) > 1.0 else 1.0
    if abs(h) < _DERIVATIVE_CUTOFF * (abs(v) if abs(v) > m else m):  # max(1, |a|, |v|)
        return half_skk * (1.0 - t * t)
    e = (sk * t - z) / h
    return e if e > 0.0 else 0.0


def _residual(w, v, p: FilterParams, stages, dt_omega: float):
    """Residual R(v) = v - w - dt*omega0*Fbar(w, v), with the scaled field
    Fbar = (-z1 - d z4, d z1 - z2, d z2 - z3, d z3 - du4) of model.stage_field,
    and the stage quotients (z1, z2, z3, z4, du4) it was built from."""
    w1, w2, w3, w4 = w
    v1, v2, v3, v4 = v
    c1, c2, c3, c4, c5 = stages
    z1, z2, z3 = _quotient(w1, v1, c1), _quotient(w2, v2, c2), _quotient(w3, v3, c3)
    z4, du4 = _quotient(w4, v4, c4), _quotient(w4, v4, c5)
    d = p.d
    res = (v1 - w1 - dt_omega * (-z1 - p.feedback_coeff * z4), v2 - w2 - dt_omega * (d * z1 - z2),
           v3 - w3 - dt_omega * (d * z2 - z3), v4 - w4 - dt_omega * (d * z3 - du4))
    return res, (z1, z2, z3, z4, du4)


def _newton_step(w, v, zbar, res, p: FilterParams, stages, dt_omega: float):
    """Newton step -J^{-1} R at v, for the residual R and quotients zbar of
    _residual at v.

    J is lower bidiagonal plus the (1, 4) feedback corner, with diagonal
    >= 1, nonpositive subdiagonal and nonnegative corner, because every
    quotient slope is nonnegative.  Forward substitution writes the first
    three components as s_i = p_i - q_i * s4 with every q_i >= 0, so the
    last pivot J44 - J43*q3 is at least J44 >= 1 and no pivoting is needed.
    """
    w1, w2, w3, w4 = w
    v1, v2, v3, v4 = v
    z1, z2, z3, z4, du4 = zbar
    c1, c2, c3, c4, c5 = stages
    slope = _quotient_slope
    e1, e2, e3 = slope(w1, v1, c1, z1), slope(w2, v2, c2, z2), slope(w3, v3, c3, z3)
    e4, e5 = slope(w4, v4, c4, z4), slope(w4, v4, c5, du4)
    sub = -dt_omega * p.d
    j11, j22, j33 = 1.0 + dt_omega * e1, 1.0 + dt_omega * e2, 1.0 + dt_omega * e3
    j21, j32, j43 = sub * e1, sub * e2, sub * e3
    p1 = -res[0] / j11
    q1 = dt_omega * p.feedback_coeff * e4 / j11
    p2 = (-res[1] - j21 * p1) / j22
    q2 = -j21 * q1 / j22
    p3 = (-res[2] - j32 * p2) / j33
    q3 = -j32 * q2 / j33
    s4 = (-res[3] - j43 * p3) / (1.0 + dt_omega * e5 - j43 * q3)
    return (p1 - q1 * s4, p2 - q2 * s4, p3 - q3 * s4, s4)


def _newton_dg(w, p: FilterParams, dt: float):
    """Solve the implicit discrete-gradient update from w over one step dt.

    Full Newton with analytic Jacobian, started at v = w, where the
    quotients take their analytic form, so the first iterate is the
    linearly implicit step.  Each iteration takes the first of the update
    and its 8 halvings that lowers the residual's infinity norm.  Raises
    NewtonError with the last accepted residual if no trial lowers it, or
    if the norm does not reach _NEWTON_TOL within _NEWTON_MAX_ITER
    iterations.
    """
    dt_omega = dt * p.omega0
    stages = model.stage_table(p)
    v = w
    res, zbar = _residual(w, v, p, stages, dt_omega)
    rnorm = max(map(abs, res))
    for _ in range(_NEWTON_MAX_ITER):
        if rnorm <= _NEWTON_TOL:
            return v
        s1, s2, s3, s4 = _newton_step(w, v, zbar, res, p, stages, dt_omega)
        v1, v2, v3, v4 = v
        lam = 1.0
        for _halving in range(9):
            cand = (v1 + lam * s1, v2 + lam * s2, v3 + lam * s3, v4 + lam * s4)
            cres, czbar = _residual(w, cand, p, stages, dt_omega)
            cnorm = max(map(abs, cres))
            if cnorm < rnorm:
                rnorm, v, res, zbar = cnorm, cand, cres, czbar
                break
            lam *= 0.5
        else:  # the line search stalled: _advance_dg halves the interval
            break
    if rnorm <= _NEWTON_TOL:
        return v
    raise NewtonError("discrete-gradient Newton iteration did not converge", rnorm)


def step_discrete_gradient(x, p: FilterParams, cfg: StepConfig) -> np.ndarray:
    """One implicit discrete-gradient step of length cfg.dt from state x,
    taken as simulate takes it: Newton failures halve the interval."""
    w = model.to_scaled(_finite_state(x, "x"), p.d)
    return model.from_scaled(_advance_dg(tuple(w.tolist()), p, cfg.dt), p.d)


def _advance_dg(w, p, dt, depth=0):
    """Newton step with internal halving, the solve's one recovery: on
    NewtonError the interval is split in two, recursively, up to 10 levels."""
    try:
        return _newton_dg(w, p, dt)
    except NewtonError:
        if depth >= 10:
            raise
        half = _advance_dg(w, p, 0.5 * dt, depth + 1)
        return _advance_dg(half, p, 0.5 * dt, depth + 1)


def simulate(x0, p: FilterParams, cfg: StepConfig, n_steps: int) -> Trajectory:
    """Integrate n_steps steps from x0 and record (t, x, V, Vdot).

    The energy columns are lyapunov_value and lyapunov_rate, the saturation
    energy of model.stage_table with d = max(1, alpha).  Each failed
    discrete-gradient Newton solve halves the step (up to 10 levels) before
    a NewtonError carrying the step index is raised.
    """
    n_steps = int(n_steps)
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    x0 = _finite_state(x0, "x0")
    scale = model.scaling_matrix(p.d).diagonal().tolist()  # w = D x, entry by entry
    rk4 = cfg.method is Method.RK4
    u = tuple(x0.tolist() if rk4 else map(mul, scale, x0.tolist()))  # x for RK4, w for DG
    value, rate = lyapunov.lyapunov_value, lyapunov.lyapunov_rate
    states = np.empty((n_steps + 1, 4))
    energy, rates = np.empty(n_steps + 1), np.empty(n_steps + 1)
    for k in range(n_steps + 1):
        if k:  # row 0 records the initial state
            try:
                u = _rk4(u, p, cfg.dt) if rk4 else _advance_dg(u, p, cfg.dt)
            except NewtonError as err:
                raise NewtonError(f"integration failed at step {k}", err.residual, step=k) from err
        x, w = (u, tuple(map(mul, scale, u))) if rk4 else (tuple(map(truediv, u, scale)), u)
        states[k] = x
        energy[k] = value(w, p)
        rates[k] = rate(w, p)
    return Trajectory(times=np.arange(n_steps + 1, dtype=float) * cfg.dt, states=states,
                      V=energy, Vdot=rates)
