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

Each rule on a run's input is written here once, and every entry point
calls it: StepConfig holds the dt domain, _check_dg_step the limit
MAX_DG_OMEGA0_DT on |omega0 * dt|, and _check_steps the cap MAX_STEPS on
n_steps and a finite last time dt * n_steps.
"""

import ctypes
import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np

from . import lyapunov, model, native
from .model import FilterParams

# Relative |w_i' - w_i| below which the discrete gradient uses the analytic
# stage derivative, and below which its v-derivative uses the limit form.
_COINCIDENCE_CUTOFF = 1e-12
_DERIVATIVE_CUTOFF = 1e-7

# Newton stops once the residual's infinity norm is at most _NEWTON_TOL,
# and gives up after _NEWTON_MAX_ITER iterations.
_NEWTON_TOL = 1e-12
_NEWTON_MAX_ITER = 50

# Once an accepted iterate's residual norm is at most _CHORD_TOL, the next
# Newton iteration reuses the quotient slopes it last used and tries the full
# update alone (a chord step).  Newton converges quadratically, so those slopes
# came from an iterate whose residual, and distance from the root, was about
# sqrt(1e-8) = 1e-4: they are off by about 1e-4 times the stage curvature, and
# the chord step leaves a residual of about 1e-4 * 1e-8 = _NEWTON_TOL.  It so
# ends the solve as a fresh iteration would, without five tanh calls and secants.
_CHORD_TOL = 1e-8

# The line search's trial factors: the Newton update and its 8 halvings.
_LINE_SEARCH = tuple(0.5 ** i for i in range(9))

# The largest |omega0 * dt| a discrete-gradient step takes.  The residual and
# the stabilized step's right-hand side are omega0 * dt times sums of stage
# gradients, and from about 2.5e307 (at r >= 0.9; 3.5e307 at r = 0.7, 1e308 at
# r <= 0.3) they lose the step: V rises, or the state overflows.  Up to 1e306
# no step of 6,400 trajectories (|x_i| from 1e-12 to 1e300, r from 0 to 1)
# raised V.
MAX_DG_OMEGA0_DT = 1e306

# The largest n_steps of one trajectory: simulate holds every recorded step,
# about 0.19 KB each with the CLI's rendering, so 10^6 steps take about 190 MB.
MAX_STEPS = 10 ** 6


class Method(Enum):
    RK4 = "rk4"
    DISCRETE_GRADIENT = "dg"


class IntegrationError(RuntimeError):
    """A simulation could not continue; carries the 1-based index of the
    failed step, when known."""

    def __init__(self, message: str, step: int | None = None):
        self.step = step
        super().__init__(message)


class NewtonError(IntegrationError):
    """Implicit solve failed.  Nothing raises it now (a failed solve takes the
    stabilized step); bench/tracing.py still reads it."""


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
    """Sampled solution: times, states in x coordinates and energy V, of equal
    length with strictly increasing times, and the decay rate Vdot of each state.

    Vdot is evaluated by lyapunov.rate_column from the kernel's (n, 5) array
    of stage values times the stage gains, on its first read and kept: a
    caller that reads only V, as a decay study does, never pays for it.
    """

    times: np.ndarray
    states: np.ndarray
    V: np.ndarray
    stages: np.ndarray = field(repr=False)
    p: FilterParams = field(repr=False)

    @cached_property
    def Vdot(self) -> np.ndarray:
        gains = np.array([g for _, _, g, _ in model.stage_table(self.p)])
        return lyapunov.rate_column(self.stages * gains, self.p)


def _finite_state(x, name: str) -> np.ndarray:
    """x as a float 4-vector; ValueError naming the field unless finite."""
    x = np.asarray(x, dtype=float)
    if x.shape != (4,):
        raise ValueError(f"{name} must be a 4-vector, got shape {x.shape}")
    if not all(map(math.isfinite, x.tolist())):
        raise ValueError(f"{name} must be finite, got {x.tolist()}")
    return x


def _check_steps(n_steps, name: str = "n_steps", dt: float = 0.0) -> int:
    """round(n_steps), a real (inf too); ValueError naming name unless
    1 <= n_steps <= MAX_STEPS and the last time dt * n_steps is finite."""
    if not 1 <= n_steps <= MAX_STEPS:
        raise ValueError(f"{name} must be from 1 to {MAX_STEPS} steps, got {n_steps!r}")
    n_steps = round(n_steps)
    if dt * n_steps == math.inf:
        raise ValueError(f"dt * {name} must be finite, got dt = {dt!r} and {name} = {n_steps}")
    return n_steps


def _check_dg_step(omega0: float, dt: float) -> None:
    """ValueError naming dt unless |omega0 * dt| <= MAX_DG_OMEGA0_DT."""
    if not abs(omega0 * dt) <= MAX_DG_OMEGA0_DT:
        raise ValueError(f"dt = {dt!r} at omega0 = {omega0!r} makes |omega0 * dt| more "
                         f"than {MAX_DG_OMEGA0_DT:g}, the discrete-gradient limit")


def _steps(states: np.ndarray, stages: np.ndarray, energy: np.ndarray, record: np.ndarray,
           constants: np.ndarray, dt: float, dg: bool) -> int:
    """The number of steps n of a kernel call on its five arrays and its dt;
    ValueError unless they are writable, C-ordered arrays of the same N >= 1
    trajectories, as _kernels.c reads and writes them: n + 1 >= 1 float64 rows
    of 4 states, 5 stage values and 1 energy each, an int64 record of 3 and a
    float64 row of 30 native.constants each.  ValueError names dt unless
    _check_dg_step admits it at the largest omega0 of constants, for a
    discrete-gradient (dg) call, and unless 0 < dt < inf, as StepConfig has
    it: within that domain no kernel divides by zero."""
    # plain comparisons, no generator: this runs at every kernel call, a
    # one-step call included
    nd = np.ndarray
    if not (isinstance(states, nd) and isinstance(stages, nd) and isinstance(energy, nd)
            and isinstance(record, nd) and isinstance(constants, nd)
            and states.flags.c_contiguous and states.flags.writeable
            and stages.flags.c_contiguous and stages.flags.writeable
            and energy.flags.c_contiguous and energy.flags.writeable
            and record.flags.c_contiguous and record.flags.writeable
            and constants.flags.c_contiguous and constants.flags.writeable
            and states.dtype == stages.dtype == energy.dtype == constants.dtype == np.float64
            and record.dtype == np.int64
            and (states.ndim, stages.ndim, energy.ndim, constants.ndim) == (3, 3, 2, 2)
            and states.shape[:2] == stages.shape[:2] == energy.shape
            and (states.shape[2], stages.shape[2]) == (4, 5)
            and record.shape == (len(states), 3) and constants.shape == (len(states), 30)
            and 0 not in energy.shape):
        arrays = (states, stages, energy, record, constants)
        raise ValueError("kernel arrays must be writable, C-ordered and of the same trajectories, "
                         "at least 1: float64 rows of 4, 5 and 1, at least 1, int64 records of 3 "
                         f"and float64 constants of 30, got {arrays!r}")
    if dg:
        _check_dg_step(constants[:, 24].max().item(), dt)
    StepConfig(dt)  # validates dt
    return states.shape[1] - 1


def _failures(record: np.ndarray, energy: np.ndarray) -> list:
    """For each trajectory of a kernel call's record and energies, None if its
    states and their V stayed finite, else the IntegrationError naming its first
    step whose state (the record's row) or V (an RK4 step's can overflow) is not."""
    finite = np.isfinite(energy[:, 1:])
    steps = np.where(finite.all(axis=1), 0, finite.argmin(axis=1) + 1).tolist()
    return [IntegrationError(f"integration failed at step {k}: "
                             f"{'state' if k == row else 'V'} not finite", k) if k else None
            for k, row in zip(steps, record[:, 0].tolist())]


def _table(pc: list) -> list:
    """The five rows (S, k, S k, S k^2 / 2) of model.stage_table from pc, a
    native.constants row as a list of floats."""
    return [pc[i:i + 4] for i in range(0, 20, 4)]


def _max_abs(u: float, m: float) -> float:
    """max(m, |u|), as max_abs of _kernels.c takes it: m if u is NaN."""
    return u if u > m else -u if -u > m else m


def _norm(r) -> float:
    """The infinity norm of the four floats r, as the chain of comparisons of
    _kernels.c takes it: it keeps a NaN first term and skips a NaN later one."""
    r1, r2, r3, r4 = r
    return _max_abs(r4, _max_abs(r3, _max_abs(r2, abs(r1))))


def _slope(c: float, g: float, th: float, z: float, h: float, dc: float) -> float:
    """A quotient's slope in v_i at the iterate, as slope of _kernels.c: the
    analytic c (1 - th^2) of the stage's tanh th there within dc of
    coincidence (|h| < dc), else the secant (g th - z) / h clamped at +0.0,
    as a convex potential's is."""
    if -dc < h < dc:
        return c * (1.0 - th * th)
    e = (g * th - z) / h
    return e if e > 0.0 else 0.0


def _residual(b, f, ho: float, d: float, fc: float) -> tuple:
    """The residual b - ho Fbar of a discrete-gradient step b = v - w, Fbar
    the scaled field model.stage_field of its stage quotients f, with p's d
    and feedback_coeff fc."""
    b1, b2, b3, b4 = b
    f1, f2, f3, f4, f5 = f
    return (b1 - ho * (-f1 - fc * f4), b2 - ho * (d * f1 - f2), b3 - ho * (d * f2 - f3),
            b4 - ho * (d * f3 - f5))


def _solve(b, e, ho: float, sub: float, hf: float) -> tuple:
    """The solution n of M n = b by forward substitution, M the bordered
    bidiagonal matrix of the slopes e, sub = -ho d and hf = ho fc:

        [[1 + ho e1, 0,         0,         hf e4    ],
         [sub e1,    1 + ho e2, 0,         0        ],
         [0,         sub e2,    1 + ho e3, 0        ],
         [0,         0,         sub e3,    1 + ho e5]],

    the Jacobian of _residual in v at quotient slopes e.  It writes n_i =
    p_i - q_i n4 (q_i >= 0 for e >= 0), so the last pivot is >= 1."""
    b1, b2, b3, b4 = b
    e1, e2, e3, e4, e5 = e
    j11, j22, j33 = 1.0 + ho * e1, 1.0 + ho * e2, 1.0 + ho * e3
    j21, j32, j43 = sub * e1, sub * e2, sub * e3
    p1 = b1 / j11
    q1 = hf * e4 / j11
    p2 = (b2 - j21 * p1) / j22
    q2 = -j21 * q1 / j22
    p3 = (b3 - j32 * p2) / j33
    q3 = -j32 * q2 / j33
    n4 = (b4 - j43 * p3) / (1.0 + ho * e5 - j43 * q3)
    return p1 - q1 * n4, p2 - q2 * n4, p3 - q3 * n4, n4


def _rk4_run_python(states: np.ndarray, stages: np.ndarray, energy: np.ndarray,
                    record: np.ndarray, constants: np.ndarray, dt: float) -> None:
    """For each trajectory of states and stages, with the parameters p of its
    row of constants, take n classic fourth-order steps x + dt/6 (a + 2 b +
    2 c + d) of model.ladder_field, the field of rhs_nonlinear, from its row 0
    of states into its rows 1..n, and write the stage values
    model.stage_tanh(D x, model.stage_table(p)) of its rows 0..n to its rows
    of stages and the energy V(D x) of each row, with D x rounded as
    x * _scale(p) rounds, to its row of energy (row 0's first), and its
    record, stopping as _dg_run_python does, with no work.  The constants
    are native.constants(p), as rk4_run of _kernels.c reads them."""
    n, h, s = _steps(states, stages, energy, record, constants, dt, False), 0.5 * dt, dt / 6.0
    field = model.ladder_field
    for xs, ts, vs, rec, pc in zip(states, stages, energy, record, constants.tolist()):
        table = _table(pc)
        omega0, gain, sc1, sc2, sc3, sc4 = pc[24:30]
        x1, x2, x3, x4 = xs[0].tolist()
        rows = [(sc1 * x1, sc2 * x2, sc3 * x3, sc4 * x4)]  # w = D x of each row
        ts[0] = model.stage_tanh(rows[0], table)
        vs[0] = v = lyapunov._energy_rows(pc, rows)[0]
        last = n + 1 if math.isfinite(v) else 1  # a start whose V is not finite takes no step
        for step in range(1, last):
            a1, a2, a3, a4 = field((x1, x2, x3, x4), omega0, gain)
            b1, b2, b3, b4 = field((x1 + h * a1, x2 + h * a2, x3 + h * a3, x4 + h * a4),
                                   omega0, gain)
            c1, c2, c3, c4 = field((x1 + h * b1, x2 + h * b2, x3 + h * b3, x4 + h * b4),
                                   omega0, gain)
            d1, d2, d3, d4 = field((x1 + dt * c1, x2 + dt * c2, x3 + dt * c3, x4 + dt * c4),
                                   omega0, gain)
            x = x1, x2, x3, x4 = (x1 + s * (a1 + 2.0 * b1 + 2.0 * c1 + d1),
                                  x2 + s * (a2 + 2.0 * b2 + 2.0 * c2 + d2),
                                  x3 + s * (a3 + 2.0 * b3 + 2.0 * c3 + d3),
                                  x4 + s * (a4 + 2.0 * b4 + 2.0 * c4 + d4))
            if not all(map(math.isfinite, x)):
                last = step  # the trajectory stops at its first row that is not finite
                break
            rows.append((sc1 * x1, sc2 * x2, sc3 * x3, sc4 * x4))
            xs[step] = x
            ts[step] = model.stage_tanh(rows[-1], table)
        vs[1:last] = lyapunov._energy_rows(pc, rows[1:])
        xs[last:] = ts[last:] = vs[last:] = math.nan
        rec[:] = (0 if last > n else last), 0, 0


def _dg_run_python(states: np.ndarray, stages: np.ndarray, energy: np.ndarray,
                   record: np.ndarray, constants: np.ndarray, dt: float) -> None:
    """For each trajectory of states and stages, with the parameters p of its
    row of constants, write the stage values t = model.stage_tanh(w,
    model.stage_table(p)) of its row 0 of states, w, to its row 0 of stages
    and V(w) to its row 0 of energy; then take n discrete-gradient steps of
    length dt from w into its rows 1..n of both, the new states v and their
    tanh(k_i v_i), and the energy V of each to its row of energy.  It stops
    at its first state that is not finite, and a start whose V is not finite
    (an overflowing or non-finite w) takes no step: every value from that row
    on is math.nan, and its row of record holds that row (0 if none), its
    stabilized steps and its line-search trials, the residual evaluations
    with quotients.  Nothing carries over from one trajectory to
    the next.  The constants are native.constants(p), as dg_run of _kernels.c
    reads them, and those of (p, dt) are computed once per trajectory.

    A step solves v = w + dt*omega0*Fbar(w, v), Fbar being model.stage_field
    of the stage quotients zbar of the table's rows (rows 4 and 5 along w4):
    S k tanh(k w_i) within _COINCIDENCE_CUTOFF * max(1, |w_i|) of coincidence,
    else S lyapunov.log_cosh_diff(k w_i, k h_i, tanh(k w_i)) / h_i.  A
    quotient's slope in v_i is _slope: S k^2 sech^2(k v_i) / 2 within
    _DERIVATIVE_CUTOFF * max(1, |w_i|, |v_i|), else the secant form clamped at
    0, as a convex potential's is.  So the Jacobian is _solve's bordered
    bidiagonal matrix, with diagonal >= 1, subdiagonal <= 0 and corner >= 0.

    Newton starts at v = w, where every quotient is analytic.  The first
    iteration uses the slopes there, so its iterate is the linearly implicit
    step, unless the step is not its trajectory's first and the residual norm at w
    times max(k_i) exceeds 1: that update may leave the |k b| <= 1 region, and
    a saturated stage's slope at w, near 0, would shoot far past the root.
    The first iteration then uses the slopes that the previous solve last used.
    A later iteration uses the slopes at the iterate, unless that iterate's
    residual norm is at most _CHORD_TOL: it then reuses the slopes it has (a
    chord step).  An iteration takes the first of the update and its 8 halvings
    (a chord step: the update alone) that lowers the residual's infinity norm.
    If none does, an iteration with reused slopes is retried once from the
    slopes at its iterate (at v = w, those a solve started there uses), and one
    with fresh slopes makes the solve give up.  It also gives up if
    _NEWTON_MAX_ITER iterations (a retried one counted twice) do not reach
    _NEWTON_TOL (a NaN residual included).  Its step is then the stabilized
    step delta = dt*omega0*Q(g)(z + L delta): z the stage gradients at w,
    L = diag(S_i k_i^2) >= every stage curvature, Q = model.coupling_matrix and
    g = du4/z4 at w (c5/c4 at z4 = 0, 1 at r = 0) clamped into its bounds, solved
    with slopes e_i = L_i and e5 = g L4.  With y = z + L delta, V(w + delta) - V(w)
    <= z'delta + delta'L delta/2 = dt*omega0*y'Q(g)y - delta'L delta/2 <= 0, as
    the QsWorstCase certificate makes sym(Q(g)) <= 0 within the bounds.
    """
    n = _steps(states, stages, energy, record, constants, dt, True)
    tol, ctol, cut, dcut = _NEWTON_TOL, _CHORD_TOL, _COINCIDENCE_CUTOFF, _DERIVATIVE_CUTOFF
    tanh, lcd = math.tanh, lyapunov.log_cosh_diff
    for ws, ts, vs, rec, pc in zip(states, stages, energy, record, constants.tolist()):
        (s1, k1, g1, c1, s2, k2, g2, c2, s3, k3, g3, c3, s4, k4, g4, c4, s5, k5, g5, c5,
         d, fc, glo, ghi, omega0, *_) = pc
        table, ho = _table(pc), dt * omega0
        sub, hf, kmax = -ho * d, ho * fc, max(k1, k2, k3, k4, k5)
        cb1, cb2, cb3, cb4, g0 = 2.0 * c1, 2.0 * c2, 2.0 * c3, 2.0 * c4, c5 / c4  # L, g at z4 = 0
        w = w1, w2, w3, w4 = ws[0].tolist()
        ts[0] = t1, t2, t3, t4, t5 = model.stage_tanh(w, table)
        vs[0] = v = lyapunov._energy_rows(pc, [w])[0]
        km = 0.0  # kmax from the second step on: the first solve has no slopes to borrow
        # a start whose V is not finite takes no step: its rows from 1 on are NaN
        stabilized, trials, last = 0, 0, n + 1 if math.isfinite(v) else 1
        for step in range(1, last):
            y = y1, y2, y3, y4, y5 = g1 * t1, g2 * t2, g3 * t3, g4 * t4, g5 * t5
            m1, m2, m3, m4 = [_max_abs(u, 1.0) for u in w]  # max(1, |w_i|)
            cut1, cut2, cut3, cut4 = cut * m1, cut * m2, cut * m3, cut * m4
            # the iterate v, h = v - w, its quotients z, residual r and norm
            v1, v2, v3, v4 = w
            h1 = h2 = h3 = h4 = 0.0
            z, r = y, _residual((0.0, 0.0, 0.0, 0.0), y, ho, d, fc)
            rnorm = _norm(r)
            # the quotient slopes at v = w, where h = 0 takes the analytic form,
            # unless the first update may leave |k b| <= 1: then those that the
            # previous solve last used, still in e
            stale, km, search = rnorm * km > 1.0, kmax, _LINE_SEARCH  # stale: not from the iterate
            if not stale:
                e = (c1 * (1.0 - t1 * t1), c2 * (1.0 - t2 * t2), c3 * (1.0 - t3 * t3),
                     c4 * (1.0 - t4 * t4), c5 * (1.0 - t5 * t5))
            for _ in (() if rnorm <= tol else range(_NEWTON_MAX_ITER)):  # none if v = w solves
                r1, r2, r3, r4 = r
                n1, n2, n3, n4 = _solve((-r1, -r2, -r3, -r4), e, ho, sub, hf)
                for lam in search:
                    trials += 1
                    x1, x2, x3, x4 = v1 + lam * n1, v2 + lam * n2, v3 + lam * n3, v4 + lam * n4
                    b = b1, b2, b3, b4 = x1 - w1, x2 - w2, x3 - w3, x4 - w4
                    # the stage quotients S log_cosh_diff(k w, k b, tanh(k w)) / b, and
                    # the stage gradients y within the coincidence cutoffs
                    f1 = y1 if -cut1 < b1 < cut1 else s1 * lcd(k1 * w1, k1 * b1, t1) / b1
                    f2 = y2 if -cut2 < b2 < cut2 else s2 * lcd(k2 * w2, k2 * b2, t2) / b2
                    f3 = y3 if -cut3 < b3 < cut3 else s3 * lcd(k3 * w3, k3 * b3, t3) / b3
                    if -cut4 < b4 < cut4:
                        f4, f5 = y4, y5
                    else:
                        f4 = s4 * lcd(k4 * w4, k4 * b4, t4) / b4
                        f5 = s5 * lcd(k5 * w4, k5 * b4, t5) / b4
                    f = f1, f2, f3, f4, f5
                    o = _residual(b, f, ho, d, fc)
                    cnorm = _norm(o)
                    if cnorm < rnorm:
                        v1, v2, v3, v4, h1, h2, h3, h4 = x1, x2, x3, x4, b1, b2, b3, b4
                        z, r, rnorm = f, o, cnorm
                        stale = cnorm <= ctol  # the next iteration is a chord step
                        break
                else:  # the line search stalled
                    if not stale:
                        break  # the solve gives up
                    stale = False  # retry from the slopes at the iterate
                if rnorm <= tol:
                    break
                if stale:  # a chord step, which takes the full update or none
                    search = _LINE_SEARCH[:1]
                    continue
                search = _LINE_SEARCH
                # the quotient slopes at the iterate u = w + h, analytic within
                # dcut * max(m_i, |u_i|), so at u = w those at w
                u1, u2, u3, u4 = w1 + h1, w2 + h2, w3 + h3, w4 + h4
                z1, z2, z3, z4, z5 = z
                dc = dcut * _max_abs(u4, m4)
                e = (_slope(c1, g1, tanh(k1 * u1), z1, h1, dcut * _max_abs(u1, m1)),
                     _slope(c2, g2, tanh(k2 * u2), z2, h2, dcut * _max_abs(u2, m2)),
                     _slope(c3, g3, tanh(k3 * u3), z3, h3, dcut * _max_abs(u3, m3)),
                     _slope(c4, g4, tanh(k4 * u4), z4, h4, dc),
                     _slope(c5, g5, tanh(k5 * u4), z5, h4, dc))
            if not rnorm <= tol:  # gave up (NaN included): the stabilized step from w
                g = y5 / y4 if y4 else g0
                g = glo if g < glo else ghi if g > ghi else g
                n1, n2, n3, n4 = _solve((ho * (-y1 - fc * y4), ho * (d * y1 - y2),
                                         ho * (d * y2 - y3), ho * (d * y3 - g * y4)),
                                        (cb1, cb2, cb3, cb4, g * cb4), ho, sub, hf)
                v1, v2, v3, v4 = w1 + n1, w2 + n2, w3 + n3, w4 + n4
                stabilized += 1
            w = v1, v2, v3, v4
            if not all(map(math.isfinite, w)):
                last = step  # the trajectory stops at its first row that is not finite
                break
            w1, w2, w3, w4 = ws[step] = w
            ts[step] = t1, t2, t3, t4, t5 = model.stage_tanh(w, table)
        vs[1:last] = lyapunov._energy_rows(pc, ws[1:last].tolist())
        ws[last:] = ts[last:] = vs[last:] = math.nan
        rec[:] = (0 if last > n else last), stabilized, trials


def _rk4_run_native(states: np.ndarray, stages: np.ndarray, energy: np.ndarray,
                    record: np.ndarray, constants: np.ndarray, dt: float) -> None:
    """_rk4_run_python, run by rk4_run of _kernels.c."""
    n = _steps(states, stages, energy, record, constants, dt, False)
    double = ctypes.c_double.from_buffer  # a cheap pointer
    native.lib.rk4_run(double(constants), dt, len(states), n, double(states), double(stages),
                       double(energy), ctypes.c_long.from_buffer(record))


def _dg_run_native(states: np.ndarray, stages: np.ndarray, energy: np.ndarray,
                   record: np.ndarray, constants: np.ndarray, dt: float) -> None:
    """_dg_run_python, run by dg_run of _kernels.c with this module's solver
    constants as they stand at the call."""
    n = _steps(states, stages, energy, record, constants, dt, True)
    double = ctypes.c_double.from_buffer
    native.lib.dg_run(double(constants), dt, len(states), n, _NEWTON_MAX_ITER, _NEWTON_TOL,
                      _CHORD_TOL, _COINCIDENCE_CUTOFF, _DERIVATIVE_CUTOFF,
                      native.doubles(_LINE_SEARCH), len(_LINE_SEARCH), double(states),
                      double(stages), double(energy), ctypes.c_long.from_buffer(record))


# The kernels simulate_batch runs: those of _kernels.c if native loaded them,
# else the Python ones, which give the same bits.
_dg_run, _rk4_run = ((_dg_run_python, _rk4_run_python) if native.lib is None
                     else (_dg_run_native, _rk4_run_native))


def _scale(p: FilterParams) -> np.ndarray:
    """The diagonal (1, d, d^2, d^3) of model.scaling_matrix(p.d), so that
    w = D x and x = D^-1 w are taken entry by entry; a read-only view of the
    last four native.constants."""
    return native.constants(p)[26:]


def _start(xs: np.ndarray, params: list, n: int, rk4: bool):
    """The five arrays of a kernel call of n steps from each of the N rows x of
    xs, trajectory m with the parameters params[m]: the (N, n + 1, 4) states,
    row 0 x (RK4) or w = D x (DG), the (N, n + 1, 5) stage values, the
    (N, n + 1) energies and the (N, 3) record, left for the kernel to write,
    and N native.constants."""
    constants = np.array([native.constants(p) for p in params])
    states = np.empty((len(xs), n + 1, 4))
    if rk4:
        states[:, 0] = xs
    else:
        with np.errstate(over="ignore"):  # an infinite w: the kernel's V of row 0 rejects it
            np.multiply(xs, constants[:, 26:], out=states[:, 0])
    return (states, np.empty((len(xs), n + 1, 5)), np.empty(states.shape[:2]),
            np.empty((len(xs), 3), np.int64), constants)


def _step(x, p: FilterParams, dt: float, rk4: bool) -> np.ndarray:
    """The state after one kernel step of length dt from the state x, x for
    RK4 and w = D x for DG; the step's IntegrationError if it or its V is not
    finite, and ValueError, as simulate raises it, if V(D x) is not, since
    the kernel then takes no step."""
    x = _finite_state(x, "x")
    arrays = states, _, energy, record, _ = _start(x[None], [p], 1, rk4)
    (_rk4_run if rk4 else _dg_run)(*arrays, dt)
    (error,) = _failures(record, energy)
    if error:
        if not math.isfinite(energy[0, 0]):
            raise ValueError(f"x must have a finite energy V(D x), got {x.tolist()}")
        raise error
    return states[0, 1]


def step_rk4(x, p: FilterParams, dt: float) -> np.ndarray:
    """Classic fourth-order one-step update of rhs_nonlinear, taken as
    simulate takes it."""
    return _step(x, p, dt, rk4=True)


def step_discrete_gradient(x, p: FilterParams, cfg: StepConfig) -> np.ndarray:
    """One implicit discrete-gradient step of length cfg.dt from state x,
    taken as simulate takes it: a failed Newton solve takes the stabilized step."""
    return _step(x, p, cfg.dt, rk4=False) / _scale(p)


def simulate_batch(x0s, p, cfg: StepConfig, n_steps: int):
    """Integrate n_steps steps from each row of x0s, an (N, 4) array, in one
    kernel call, with the FilterParams p for every row, or with p[m] for row m
    if p is a sequence of N of them, and return the (N, n_steps + 1, 4) states
    in x coordinates, their (N, n_steps + 1) energies V and (N, n_steps + 1, 5)
    stage values, and for each trajectory None or the IntegrationError naming
    its first step whose state or V is not finite (its rows from a state that
    is not finite on are NaN).

    ValueError names n_steps unless _check_steps admits it at cfg.dt, dt unless
    _check_dg_step does at the batch's largest omega0 for the discrete-gradient
    method, p unless it has one FilterParams per row, and x0 unless each row is
    finite with a finite energy V(D x0), which the kernel writes to row 0 of the
    energies before any step, taking none from a row whose V is not finite.
    One _rk4_run or _dg_run call writes, for each trajectory and on the thread
    that steps it, the states (x for RK4, w for discrete gradient), their stage
    values, their energies V, the saturation energy with d = max(1, alpha) at
    w, and its record, which names its error, to the arrays of _start.  DG
    states then become x = D^-1 w in one in-place division by each row's own
    scale, which rounds as a float division does.
    """
    n_steps = _check_steps(n_steps, "n_steps", cfg.dt)
    x0s, rk4 = np.asarray(x0s, dtype=float), cfg.method is Method.RK4
    if x0s.ndim != 2 or x0s.shape[1] != 4 or not len(x0s):
        raise ValueError(f"x0s must be an (N, 4) array with N >= 1, got shape {x0s.shape}")
    if not np.isfinite(x0s).all():
        bad = np.isfinite(x0s).all(axis=1).argmin()
        raise ValueError(f"x0 must be finite, got {x0s[bad].tolist()}")
    params = [p] * len(x0s) if isinstance(p, FilterParams) else list(p)
    if len(params) != len(x0s):
        raise ValueError(f"p must be one FilterParams or one per row of x0s, got {len(params)} "
                         f"for {len(x0s)} rows")
    arrays = states, stages, energy, record, constants = _start(x0s, params, n_steps, rk4)
    (_rk4_run if rk4 else _dg_run)(*arrays, cfg.dt)
    if not np.isfinite(energy[:, 0]).all():
        bad = np.isfinite(energy[:, 0]).argmin()
        raise ValueError(f"x0 must have a finite energy V(D x0), got {x0s[bad].tolist()}")
    if not rk4:
        states /= constants[:, None, 26:]
    return states, energy, stages, _failures(record, energy)


def simulate(x0, p: FilterParams, cfg: StepConfig, n_steps: int) -> Trajectory:
    """Integrate n_steps steps from x0 and record (t, x, V), with Vdot on first
    read: simulate_batch of the one row x0, whose IntegrationError it raises.
    ValueError also names x0 unless it is a finite 4-vector."""
    states, energy, stages, (error,) = simulate_batch(_finite_state(x0, "x0")[None], p, cfg,
                                                      n_steps)
    if error:
        raise error
    return Trajectory(times=np.arange(energy.shape[1], dtype=float) * cfg.dt, states=states[0],
                      V=energy[0], stages=stages[0], p=p)
