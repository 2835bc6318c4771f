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
from array import array
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from itertools import cycle
from operator import mul, truediv

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

    Vdot is evaluated by lyapunov.rate_column from the kernel's flat stage
    values, 5 per state, times the stage gains, on its first read and kept: a
    caller that reads only V, as a decay study does, never pays for it.
    """

    times: np.ndarray
    states: np.ndarray
    V: np.ndarray
    stages: list = field(repr=False)
    p: FilterParams = field(repr=False)

    @cached_property
    def Vdot(self) -> np.ndarray:
        gains = np.array([g for _, _, g, _ in model.stage_table(self.p)])
        return lyapunov.rate_column(np.array(self.stages).reshape(-1, 5) * gains, self.p)


def _finite_state(x, name: str) -> np.ndarray:
    """x as a float 4-vector; ValueError naming the field unless finite."""
    x = np.asarray(x, dtype=float)
    if x.shape != (4,):
        raise ValueError(f"{name} must be a 4-vector, got shape {x.shape}")
    if not all(map(math.isfinite, x.tolist())):
        raise ValueError(f"{name} must be finite, got {x.tolist()}")
    return x


def _check_finite(states: list) -> None:
    """IntegrationError naming the first step whose state is not finite, if the
    last of the flat list states is not: each kernel adds an increment to the
    state, so a component that is not finite stays so in every later step."""
    if not all(map(math.isfinite, states[-4:])):
        step = list(map(math.isfinite, states)).index(False) // 4 + 1
        raise IntegrationError(f"integration failed at step {step}: state not finite", step)


def _rk4_run_python(x, p: FilterParams, dt: float, n: int):
    """Take n classic fourth-order steps x + dt/6 (a + 2 b + 2 c + d) of
    model.rhs_nonlinear from the float 4-tuple x.

    Returns the n new states and their stage values model.stage_tanh(D x,
    model.stage_table(p)), each back to back in a flat list.  The field and
    the stage values are inline, with the operands and order of
    rhs_nonlinear and stage_tanh, so they match those bit for bit; the
    constants of (p, dt) are computed once per call, and _check_finite
    checks the last state.
    """
    (_, k1, _, _), (_, k2, _, _), (_, k3, _, _), (_, k4, _, _), (_, k5, _, _) = (
        model.stage_table(p))
    _, sc2, sc3, sc4 = _scale(p)  # D's first entry is 1, so w1 = x1
    w0, g, h, s, tanh = p.omega0, p.feedback_gain, 0.5 * dt, dt / 6.0, math.tanh
    x1, x2, x3, x4 = x
    states, stages = [], []
    # at most three targets per assignment, as in _dg_run
    for _ in range(n):
        t1, t2, t3 = tanh(x1), tanh(x2), tanh(x3)
        t4, fb = tanh(x4), tanh(g * x4)
        a1, a2, a3 = w0 * (-t1 - fb), w0 * (-t2 + t1), w0 * (-t3 + t2)
        a4 = w0 * (-t4 + t3)
        y1, y2, y3 = x1 + h * a1, x2 + h * a2, x3 + h * a3
        y4 = x4 + h * a4
        t1, t2, t3 = tanh(y1), tanh(y2), tanh(y3)
        t4, fb = tanh(y4), tanh(g * y4)
        b1, b2, b3 = w0 * (-t1 - fb), w0 * (-t2 + t1), w0 * (-t3 + t2)
        b4 = w0 * (-t4 + t3)
        y1, y2, y3 = x1 + h * b1, x2 + h * b2, x3 + h * b3
        y4 = x4 + h * b4
        t1, t2, t3 = tanh(y1), tanh(y2), tanh(y3)
        t4, fb = tanh(y4), tanh(g * y4)
        c1, c2, c3 = w0 * (-t1 - fb), w0 * (-t2 + t1), w0 * (-t3 + t2)
        c4 = w0 * (-t4 + t3)
        y1, y2, y3 = x1 + dt * c1, x2 + dt * c2, x3 + dt * c3
        y4 = x4 + dt * c4
        t1, t2, t3 = tanh(y1), tanh(y2), tanh(y3)
        t4, fb = tanh(y4), tanh(g * y4)
        d1, d2, d3 = w0 * (-t1 - fb), w0 * (-t2 + t1), w0 * (-t3 + t2)
        d4 = w0 * (-t4 + t3)
        x1, x2 = x1 + s * (a1 + 2.0 * b1 + 2.0 * c1 + d1), x2 + s * (a2 + 2.0 * b2 + 2.0 * c2 + d2)
        x3, x4 = x3 + s * (a3 + 2.0 * b3 + 2.0 * c3 + d3), x4 + s * (a4 + 2.0 * b4 + 2.0 * c4 + d4)
        w4 = sc4 * x4
        states += (x1, x2, x3, x4)
        stages += (tanh(k1 * x1), tanh(k2 * (sc2 * x2)), tanh(k3 * (sc3 * x3)), tanh(k4 * w4),
                   tanh(k5 * w4))
    _check_finite(states)
    return states, stages


def step_rk4(x, p: FilterParams, dt: float) -> np.ndarray:
    """Classic fourth-order one-step update of rhs_nonlinear, taken as
    simulate takes it."""
    StepConfig(dt)  # validates dt
    return np.array(_rk4_run(tuple(_finite_state(x, "x").tolist()), p, dt, 1)[0])


def _dg_run_python(w, t, p: FilterParams, dt: float, n: int):
    """Take n discrete-gradient steps of length dt from the float 4-tuple w
    with its stage values t = model.stage_tanh(w, model.stage_table(p)).

    Returns the n new states and their stage values tanh(k_i v_i), each back
    to back in a flat list, the number of stabilized steps and that of
    line-search trials, the residual evaluations with quotients.  The constants
    of (p, dt) are computed once per call, and _check_finite checks the last state.

    A step solves v = w + dt*omega0*Fbar(w, v), Fbar being model.stage_field
    of the stage quotients zbar of the table's rows (rows 4 and 5 along w4):
    S k tanh(k w_i) within _COINCIDENCE_CUTOFF * max(1, |w_i|) of coincidence,
    else S lyapunov.log_cosh_diff(k w_i, k h_i, tanh(k w_i)) / h_i, with its
    |k h_i| <= 1 branch inline.  A quotient's slope in v_i is S k^2 sech^2(k v_i)
    / 2 within _DERIVATIVE_CUTOFF * max(1, |w_i|, |v_i|), else the secant form
    clamped at 0, as a convex potential's is.  So the Jacobian is lower
    bidiagonal plus the (1, 4) feedback corner, with diagonal >= 1, subdiagonal
    <= 0 and corner >= 0: forward substitution writes n_i = p_i - q_i * n4
    (q_i >= 0), and the last pivot is >= 1.

    Newton starts at v = w, where every quotient is analytic.  The first
    iteration uses the slopes there, so its iterate is the linearly implicit
    step, unless the step is not the call's first and the residual norm at w
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
    (s1, k1, g1, c1), (s2, k2, g2, c2), (s3, k3, g3, c3), (s4, k4, g4, c4), (s5, k5, g5, c5) = (
        model.stage_table(p))
    ho, d, fc, tol, cut = dt * p.omega0, p.d, p.feedback_coeff, _NEWTON_TOL, _COINCIDENCE_CUTOFF
    ctol = _CHORD_TOL
    sub, hf, dcut, kmax = -ho * d, ho * fc, _DERIVATIVE_CUTOFF, max(k1, k2, k3, k4, k5)
    km = 0.0  # kmax from the second step on: the first solve has no slopes to borrow
    iterations, line_search, chord = range(_NEWTON_MAX_ITER), _LINE_SEARCH, _LINE_SEARCH[:1]
    tanh, sinh, log1p, lcd = math.tanh, math.sinh, math.log1p, lyapunov.log_cosh_diff
    cb1, cb2, cb3, cb4, g0 = 2.0 * c1, 2.0 * c2, 2.0 * c3, 2.0 * c4, c5 / c4  # L, g at z4 = 0
    glo, ghi = model.feedback_ratio_bounds(p) if p.r != 0.0 else (1.0, 1.0)
    (w1, w2, w3, w4), (t1, t2, t3, t4, t5) = w, t
    states, stages, stabilized, trials = [], [], 0, 0
    # The loops below keep three rules, as CPython 3.11 runs them.  An
    # assignment has at most three targets: four or more build and unpack a
    # tuple.  No builtin is called: |b| < c is written -c < b < c, and a max of
    # absolute values is a chain of comparisons that, as max(map(abs, ...))
    # does, keeps a NaN first term and skips a NaN later one.  Constants are
    # read into locals before the loop.  Each float operation keeps the
    # operands and order it had with abs(), so no result changes by a bit.
    for _ in range(n):
        y1, y2, y3 = g1 * t1, g2 * t2, g3 * t3
        y4, y5 = g4 * t4, g5 * t5
        # m_i = max(1, |w_i|), the coincidence cutoffs cut_i and nc_i = -cut_i
        m1 = w1 if w1 > 1.0 else -w1 if -w1 > 1.0 else 1.0
        m2 = w2 if w2 > 1.0 else -w2 if -w2 > 1.0 else 1.0
        m3 = w3 if w3 > 1.0 else -w3 if -w3 > 1.0 else 1.0
        m4 = w4 if w4 > 1.0 else -w4 if -w4 > 1.0 else 1.0
        cut1, cut2, cut3 = cut * m1, cut * m2, cut * m3
        cut4, nc1, nc2 = cut * m4, -cut1, -cut2
        nc3, nc4 = -cut3, -cut4
        # the iterate v, h = v - w, its quotients z, residual r and norm
        v1, v2, v3 = w1, w2, w3
        v4, h1, h2 = w4, 0.0, 0.0
        h3, h4 = 0.0, 0.0
        z1, z2, z3 = y1, y2, y3
        z4, z5 = y4, y5
        r1, r2 = 0.0 - ho * (-z1 - fc * z4), 0.0 - ho * (d * z1 - z2)
        r3, r4 = 0.0 - ho * (d * z2 - z3), 0.0 - ho * (d * z3 - z5)
        rnorm = -r1 if r1 < 0.0 else r1
        rnorm = r2 if r2 > rnorm else -r2 if -r2 > rnorm else rnorm
        rnorm = r3 if r3 > rnorm else -r3 if -r3 > rnorm else rnorm
        rnorm = r4 if r4 > rnorm else -r4 if -r4 > rnorm else rnorm
        # the quotient slopes at v = w, where h = 0 takes the analytic form,
        # unless the first update may leave |k b| <= 1: then those that the
        # previous solve last used, still in e1..e5
        stale, km, search = rnorm * km > 1.0, kmax, line_search  # stale: not from the iterate
        if not stale:
            e1, e2, e3 = c1 * (1.0 - t1 * t1), c2 * (1.0 - t2 * t2), c3 * (1.0 - t3 * t3)
            e4, e5 = c4 * (1.0 - t4 * t4), c5 * (1.0 - t5 * t5)
        for _ in (() if rnorm <= tol else iterations):  # none if v = w solves
            j11, j22, j33 = 1.0 + ho * e1, 1.0 + ho * e2, 1.0 + ho * e3
            j21, j32, j43 = sub * e1, sub * e2, sub * e3
            p1 = -r1 / j11
            q1 = hf * e4 / j11
            p2 = (-r2 - j21 * p1) / j22
            q2 = -j21 * q1 / j22
            p3 = (-r3 - j32 * p2) / j33
            q3 = -j32 * q2 / j33
            n4 = (-r4 - j43 * p3) / (1.0 + ho * e5 - j43 * q3)
            n1, n2, n3 = p1 - q1 * n4, p2 - q2 * n4, p3 - q3 * n4
            for lam in search:
                trials += 1
                x1, x2, x3 = v1 + lam * n1, v2 + lam * n2, v3 + lam * n3
                x4 = v4 + lam * n4
                b1, b2, b3 = x1 - w1, x2 - w2, x3 - w3
                b4 = x4 - w4
                # a quotient S log_cosh_diff(k w, q, tanh(k w)) / b with q = k b
                f1 = y1 if nc1 < b1 < cut1 else s1 * (
                    log1p(2.0 * (sh := sinh(0.5 * q)) * sh + sinh(q) * t1)
                    if -1.0 <= (q := k1 * b1) <= 1.0 else lcd(k1 * w1, q, t1)) / b1
                f2 = y2 if nc2 < b2 < cut2 else s2 * (
                    log1p(2.0 * (sh := sinh(0.5 * q)) * sh + sinh(q) * t2)
                    if -1.0 <= (q := k2 * b2) <= 1.0 else lcd(k2 * w2, q, t2)) / b2
                f3 = y3 if nc3 < b3 < cut3 else s3 * (
                    log1p(2.0 * (sh := sinh(0.5 * q)) * sh + sinh(q) * t3)
                    if -1.0 <= (q := k3 * b3) <= 1.0 else lcd(k3 * w3, q, t3)) / b3
                if nc4 < b4 < cut4:
                    f4, f5 = y4, y5
                else:
                    f4 = s4 * (log1p(2.0 * (sh := sinh(0.5 * q)) * sh + sinh(q) * t4)
                               if -1.0 <= (q := k4 * b4) <= 1.0 else lcd(k4 * w4, q, t4)) / b4
                    f5 = s5 * (log1p(2.0 * (sh := sinh(0.5 * q)) * sh + sinh(q) * t5)
                               if -1.0 <= (q := k5 * b4) <= 1.0 else lcd(k5 * w4, q, t5)) / b4
                o1, o2 = b1 - ho * (-f1 - fc * f4), b2 - ho * (d * f1 - f2)
                o3, o4 = b3 - ho * (d * f2 - f3), b4 - ho * (d * f3 - f5)
                cnorm = -o1 if o1 < 0.0 else o1
                cnorm = o2 if o2 > cnorm else -o2 if -o2 > cnorm else cnorm
                cnorm = o3 if o3 > cnorm else -o3 if -o3 > cnorm else cnorm
                cnorm = o4 if o4 > cnorm else -o4 if -o4 > cnorm else cnorm
                if cnorm < rnorm:
                    v1, v2, v3 = x1, x2, x3
                    v4, h1, h2 = x4, b1, b2
                    h3, h4, rnorm = b3, b4, cnorm
                    z1, z2, z3 = f1, f2, f3
                    z4, z5, r1 = f4, f5, o1
                    r2, r3, r4 = o2, o3, o4
                    stale = cnorm <= ctol  # the next iteration is a chord step
                    break
            else:  # the line search stalled
                if not stale:
                    break  # the solve gives up
                stale = False  # retry from the slopes at the iterate
            if rnorm <= tol:
                break
            if stale:  # a chord step, which takes the full update or none
                search = chord
                continue
            search = line_search
            # the quotient slopes at the iterate u = w + h, from its tanh,
            # analytic within dcut * max(m_i, |u_i|), so at u = w those at w
            u1, u2, u3 = w1 + h1, w2 + h2, w3 + h3
            u4 = w4 + h4
            th1, th2, th3 = tanh(k1 * u1), tanh(k2 * u2), tanh(k3 * u3)
            th4, th5 = tanh(k4 * u4), tanh(k5 * u4)
            dc = dcut * (u1 if u1 > m1 else -u1 if -u1 > m1 else m1)
            if -dc < h1 < dc:
                e1 = c1 * (1.0 - th1 * th1)
            else:
                e1 = (g1 * th1 - z1) / h1
                e1 = e1 if e1 > 0.0 else 0.0
            dc = dcut * (u2 if u2 > m2 else -u2 if -u2 > m2 else m2)
            if -dc < h2 < dc:
                e2 = c2 * (1.0 - th2 * th2)
            else:
                e2 = (g2 * th2 - z2) / h2
                e2 = e2 if e2 > 0.0 else 0.0
            dc = dcut * (u3 if u3 > m3 else -u3 if -u3 > m3 else m3)
            if -dc < h3 < dc:
                e3 = c3 * (1.0 - th3 * th3)
            else:
                e3 = (g3 * th3 - z3) / h3
                e3 = e3 if e3 > 0.0 else 0.0
            dc = dcut * (u4 if u4 > m4 else -u4 if -u4 > m4 else m4)
            if -dc < h4 < dc:
                e4, e5 = c4 * (1.0 - th4 * th4), c5 * (1.0 - th5 * th5)
            else:
                e4, e5 = (g4 * th4 - z4) / h4, (g5 * th5 - z5) / h4
                e4, e5 = e4 if e4 > 0.0 else 0.0, e5 if e5 > 0.0 else 0.0
        if not rnorm <= tol:  # gave up (NaN included): the stabilized step from w
            g = y5 / y4 if y4 else g0
            g = glo if g < glo else ghi if g > ghi else g
            j11, j22, j33 = 1.0 + ho * cb1, 1.0 + ho * cb2, 1.0 + ho * cb3
            j21, j32, j43 = sub * cb1, sub * cb2, sub * cb3
            p1 = ho * (-y1 - fc * y4) / j11
            q1 = hf * cb4 / j11
            p2 = (ho * (d * y1 - y2) - j21 * p1) / j22
            q2 = -j21 * q1 / j22
            p3 = (ho * (d * y2 - y3) - j32 * p2) / j33
            q3 = -j32 * q2 / j33
            n4 = (ho * (d * y3 - g * y4) - j43 * p3) / (1.0 + ho * (g * cb4) - j43 * q3)
            v1, v2, v3 = w1 + (p1 - q1 * n4), w2 + (p2 - q2 * n4), w3 + (p3 - q3 * n4)
            v4 = w4 + n4
            stabilized += 1
        w1, w2, w3 = v1, v2, v3
        w4 = v4
        t1, t2, t3 = tanh(k1 * w1), tanh(k2 * w2), tanh(k3 * w3)
        t4, t5 = tanh(k4 * w4), tanh(k5 * w4)
        states += (w1, w2, w3, w4)
        stages += (t1, t2, t3, t4, t5)
    _check_finite(states)
    return states, stages, stabilized, trials


def _buffers(n: int, state, stage_values):
    """The state and stage-value arrays of n + 1 rows (1 for n < 1) that a kernel
    of _kernels.c reads its first rows from and writes the others to, each row
    a copy of the first; ValueError unless a row has 4 and 5 values, as the
    Python kernels raise on unpacking, for the C side reads that many."""
    rows = max(n, 0) + 1
    states, stages = array("d", state) * rows, array("d", stage_values) * rows
    if (len(states), len(stages)) != (4 * rows, 5 * rows):
        raise ValueError(f"expected a state of 4 values and 5 stage values, got "
                         f"{tuple(state)} and {tuple(stage_values)}")
    return states, stages


def _rk4_run_native(x, p: FilterParams, dt: float, n: int):
    """_rk4_run_python, run by rk4_run of _kernels.c."""
    states, stages = _buffers(n, x, (0.0,) * 5)  # the first stage row is not read
    native.lib.rk4_run(native.constants(p).buffer_info()[0], dt, n, states.buffer_info()[0],
                       stages.buffer_info()[0])
    states = states[4:].tolist()
    _check_finite(states)
    return states, stages[5:].tolist()


def _dg_run_native(w, t, p: FilterParams, dt: float, n: int):
    """_dg_run_python, run by dg_run of _kernels.c with this module's solver
    constants as they stand at the call."""
    (states, stages), work, search = _buffers(n, w, t), array("l", (0, 0)), array("d", _LINE_SEARCH)
    if native.lib.dg_run(native.constants(p).buffer_info()[0], dt, n, _NEWTON_MAX_ITER,
                         _NEWTON_TOL, _CHORD_TOL, _COINCIDENCE_CUTOFF, _DERIVATIVE_CUTOFF,
                         search.buffer_info()[0], len(search), lyapunov._LN2,
                         states.buffer_info()[0], stages.buffer_info()[0], work.buffer_info()[0]):
        raise ZeroDivisionError("float division by zero")  # where _dg_run_python raises it
    states = states[4:].tolist()
    _check_finite(states)
    return states, stages[5:].tolist(), work[0], work[1]


# The kernels simulate runs: those of _kernels.c if native loaded them, else
# the Python ones, which give the same bits.
_dg_run, _rk4_run = ((_dg_run_python, _rk4_run_python) if native.lib is None
                     else (_dg_run_native, _rk4_run_native))


def step_discrete_gradient(x, p: FilterParams, cfg: StepConfig) -> np.ndarray:
    """One implicit discrete-gradient step of length cfg.dt from state x,
    taken as simulate takes it: a failed Newton solve takes the stabilized step."""
    scale = _scale(p)
    w = tuple(map(mul, scale, _finite_state(x, "x").tolist()))
    w = _dg_run(w, model.stage_tanh(w, model.stage_table(p)), p, cfg.dt, 1)[0]
    return np.array(tuple(map(truediv, w, scale)))


@model.per_params
def _scale(p: FilterParams) -> tuple:
    """The diagonal (1, d, d^2, d^3) of model.scaling_matrix(p.d) as floats,
    so that w = D x and x = D^-1 w are taken entry by entry."""
    return tuple(model.scaling_matrix(p.d).diagonal().tolist())


def simulate(x0, p: FilterParams, cfg: StepConfig, n_steps: int) -> Trajectory:
    """Integrate n_steps steps from x0 and record (t, x, V), with Vdot on first read.

    ValueError names dt if the last time dt * n_steps overflows, and x0 unless
    it is finite with a finite energy V(D x0).
    The states (x for RK4, w for discrete gradient) and their stage values
    model.stage_tanh go to flat lists from one _rk4_run or _dg_run call, whose
    IntegrationError names the first step that is not finite.
    lyapunov.energy_column then evaluates V, the saturation energy with
    d = max(1, alpha), once per trajectory, and the Trajectory keeps the stage
    values for its rate; DG states become x = D^-1 w in one array division,
    which rounds as the entry-by-entry float division does.
    """
    n_steps = int(n_steps)
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    if cfg.dt * n_steps == math.inf:  # the last recorded time
        raise ValueError(f"dt * n_steps must be finite, got dt = {cfg.dt!r} and n_steps = {n_steps}")
    x0 = _finite_state(x0, "x0")
    scale, table = _scale(p), model.stage_table(p)
    rk4 = cfg.method is Method.RK4
    w = tuple(map(mul, scale, x0.tolist()))
    if not math.isfinite(lyapunov.energy_column(w, p)[0]):
        raise ValueError(f"x0 must have a finite energy V(D x0), got {x0.tolist()}")
    u, t = (tuple(x0.tolist()) if rk4 else w), model.stage_tanh(w, table)  # u: x for RK4, w for DG
    us, ts = list(u), list(t)  # the initial row, then the kernel's n_steps rows
    if rk4:
        us[4:], ts[5:] = _rk4_run(u, p, cfg.dt, n_steps)
    else:
        us[4:], ts[5:], _, _ = _dg_run(u, t, p, cfg.dt, n_steps)
    ws = map(mul, us, cycle(scale)) if rk4 else us  # w = D x, entry by entry
    energy = lyapunov.energy_column(ws, p)
    states = np.array(us).reshape(n_steps + 1, 4)
    return Trajectory(times=np.arange(n_steps + 1, dtype=float) * cfg.dt,
                      states=states if rk4 else states / np.array(scale),
                      V=np.array(energy), stages=ts, p=p)
