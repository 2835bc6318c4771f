"""Nonlinear four-stage ladder filter model and its scaled-coordinate algebra.

State convention: ``x`` is the 4-vector of nondimensionalized capacitor
voltages of the ladder, ``w = D x`` its diagonally rescaled image with
``D = diag(1, d, d^2, d^3)``.  All matrices are dense 4x4 float arrays;
the system is exactly four-dimensional, so no general-N machinery is used.
"""

import functools
import math
import sys
from dataclasses import dataclass, field

import numpy as np

ALPHA_MAX = math.sqrt(2.0)

# Below this magnitude of the feedback tanh argument the damping/feedback
# ratio is evaluated by its small-argument limit.  The threshold only has to
# guard the 0/0 case and denormal division; the direct ratio is accurate to
# a few ulp everywhere else because numerator and denominator share sign.
_RATIO_LIMIT_CUTOFF = 1e-285


class ParameterRangeError(ValueError):
    """A filter parameter is outside its allowed range."""

    def __init__(self, field: str, value, allowed: str):
        self.field = field
        self.value = value
        super().__init__(f"{field}={value!r} outside allowed range {allowed}")


@dataclass(frozen=True)
class FilterParams:
    """Cutoff/resonance pair plus the derived gain and scaling base.

    omega0: angular cutoff frequency in rad/s, > 0.
    r:      resonance in [0, 1].
    alpha:  per-stage feedback gain base, sqrt(2) * r**(1/4), in [0, sqrt(2)].
    d:      diagonal scaling base, max(1, alpha).
    feedback_coeff: coefficient of the fed-back stage-4 saturation in the
            scaled field, d, or 0.0 on the feedback-free r = 0 branch.

    The fed-back state is multiplied by alpha**4 = 4*r; formulas use 4*r
    directly since it is exact in floating point.
    """

    omega0: float
    r: float
    alpha: float
    d: float
    # Derived, and a plain attribute because the Newton residual reads it.
    feedback_coeff: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "feedback_coeff", self.d if self.r != 0.0 else 0.0)

    @property
    def feedback_gain(self) -> float:
        """alpha**4, represented exactly as 4*r."""
        return 4.0 * self.r


def _derive(omega0: float, r: float) -> FilterParams:
    # No range validation: the definiteness bisection probes r slightly
    # beyond 1.  Public construction goes through make_params.
    alpha = ALPHA_MAX * r ** 0.25
    return FilterParams(omega0=float(omega0), r=float(r), alpha=alpha, d=max(1.0, alpha))


def make_params(omega0: float, r: float) -> FilterParams:
    """Validate (omega0, r) and derive alpha and d.

    Raises ParameterRangeError naming the offending field if omega0 <= 0
    or r lies outside [0, 1].  Subnormal r is rejected too: the stage-4
    energy scale d^2/(4r) of stage_table would overflow.
    """
    if not (omega0 > 0.0) or math.isinf(omega0):
        raise ParameterRangeError("omega0", omega0, "(0, inf)")
    if not (r == 0.0 or sys.float_info.min <= r <= 1.0):
        raise ParameterRangeError("r", r, f"{{0}} U [{sys.float_info.min!r}, 1]")
    return _derive(omega0, r)


def ladder_field(x, omega0: float, gain: float) -> tuple:
    """dx/dt of the four-stage ladder at the four floats x, with feedback gain
    4r, as rhs_nonlinear and the RK4 kernels evaluate it:

    dx/dt = omega0 * [-tanh(x1) - tanh(gain * x4),
                      -tanh(x2) + tanh(x1),
                      -tanh(x3) + tanh(x2),
                      -tanh(x4) + tanh(x3)]
    """
    x1, x2, x3, x4 = x
    t1, t2, t3, t4 = math.tanh(x1), math.tanh(x2), math.tanh(x3), math.tanh(x4)
    fb = math.tanh(gain * x4)
    return omega0 * (-t1 - fb), omega0 * (-t2 + t1), omega0 * (-t3 + t2), omega0 * (-t4 + t3)


def rhs_nonlinear(x, p: FilterParams) -> np.ndarray:
    """Autonomous vector field dx/dt of the four-stage ladder at a real
    4-vector x, the field that RK4 integrates: ladder_field of x."""
    return np.array(ladder_field(map(float, x), p.omega0, p.feedback_gain))


def rhs_scaled(w, p: FilterParams) -> np.ndarray:
    """Vector field dw/dt in scaled coordinates w = D x, evaluated as
    omega0 * stage_field(stage_gradients(w)); equal to
    D @ rhs_nonlinear(D^-1 w, p) up to rounding."""
    f1, f2, f3, f4 = stage_field(stage_gradients(w, stage_table(p)), p)
    w0 = p.omega0
    return np.array([w0 * f1, w0 * f2, w0 * f3, w0 * f4])


def linearized_matrix(p: FilterParams) -> np.ndarray:
    """Jacobian of rhs_nonlinear at the origin (tanh u ~ u)."""
    w0 = p.omega0
    a4 = p.feedback_gain
    return w0 * np.array([
        [-1.0, 0.0, 0.0, -a4],
        [1.0, -1.0, 0.0, 0.0],
        [0.0, 1.0, -1.0, 0.0],
        [0.0, 0.0, 1.0, -1.0],
    ])


def scaled_linearized_matrix(p: FilterParams) -> np.ndarray:
    """Jacobian of the scaled system at the origin, with the alpha scaling.

    Equals D A D^-1 for D built from d = alpha (the linear-analysis choice);
    every off-diagonal gain becomes alpha.
    """
    w0 = p.omega0
    a = p.alpha
    return w0 * np.array([
        [-1.0, 0.0, 0.0, -a],
        [a, -1.0, 0.0, 0.0],
        [0.0, a, -1.0, 0.0],
        [0.0, 0.0, a, -1.0],
    ])


def scaling_matrix(d: float) -> np.ndarray:
    """D = diag(1, d, d^2, d^3) for d > 0."""
    if not d > 0.0:
        raise ParameterRangeError("d", d, "(0, inf)")
    return np.diag([1.0, d, d * d, d * d * d])


def to_scaled(x, d: float) -> np.ndarray:
    """w = D x, entry by entry."""
    x1, x2, x3, x4 = (float(v) for v in x)
    return np.array([x1, x2, x3, x4]) * scaling_matrix(d).diagonal()


def from_scaled(w, d: float) -> np.ndarray:
    """x = D^-1 w, entry by entry; exact inverse of to_scaled up to rounding."""
    w1, w2, w3, w4 = (float(v) for v in w)
    return np.array([w1, w2, w3, w4]) / scaling_matrix(d).diagonal()


def per_params(fn):
    """Memoise fn(p) on the FilterParams p itself: constants derived from
    the parameters are computed once per parameter set and freed with it."""
    key = f"_{fn.__module__}.{fn.__name__}"

    @functools.wraps(fn)
    def memo(p):
        try:
            return p.__dict__[key]
        except KeyError:  # first call: not a field, so equality, hash and repr ignore it
            value = p.__dict__[key] = fn(p)
            return value

    return memo


@per_params
def stage_table(p: FilterParams):
    """(S, k, S*k, S*k^2/2) of each stage potential S * lncosh(k * u): scale,
    inner factor, derivative factor and half the curvature at 0.  Rows: the
    four stage energies of V in w1..w4, then the stage-4 damping potential
    d^6 lncosh(w4/d^3).  On the r = 0 branch d = 1 and the stage-4 energy is
    plain lncosh, so V is the feedback-free sum."""
    d = p.d
    d2 = d * d
    d3 = d2 * d
    a4 = p.feedback_gain
    stage4 = (d2 / a4, a4 / d3) if p.r != 0.0 else (1.0, 1.0)
    pairs = ((1.0, 1.0), (d2, 1.0 / d), (d2 * d2, 1.0 / d2), stage4, (d3 * d3, 1.0 / d3))
    return tuple((s, k, s * k, 0.5 * s * k * k) for s, k in pairs)


def stage_tanh(w, table):
    """tanh(k * u) of the stage potentials of table at u = w1, w2, w3, w4, w4,
    from which every stage gradient and discrete-gradient quotient at w is built."""
    w1, w2, w3, w4 = w
    (_, k1, _, _), (_, k2, _, _), (_, k3, _, _), (_, k4, _, _), (_, k5, _, _) = table
    return (math.tanh(k1 * w1), math.tanh(k2 * w2), math.tanh(k3 * w3), math.tanh(k4 * w4),
            math.tanh(k5 * w4))


def stage_gradients(w, table):
    """Derivatives S * k * tanh(k * u) of the stage potentials of table at
    u = w1, w2, w3, w4, w4: [z1, z2, z3, z4, du4]."""
    t1, t2, t3, t4, t5 = stage_tanh(w, table)
    (_, _, sk1, _), (_, _, sk2, _), (_, _, sk3, _), (_, _, sk4, _), (_, _, sk5, _) = table
    return [sk1 * t1, sk2 * t2, sk3 * t3, sk4 * t4, sk5 * t5]


def stage_field(z, p: FilterParams):
    """Scaled field per unit omega0, (-z1 - d z4, d z1 - z2, d z2 - z3,
    d z3 - du4), from stage gradients or their discrete-gradient quotients;
    the feedback term reads p.feedback_coeff, so it is 0 on the r = 0 branch."""
    z1, z2, z3, z4, du4 = z
    d = p.d
    return (-z1 - p.feedback_coeff * z4, d * z1 - z2, d * z2 - z3, d * z3 - du4)


def saturation_vector(w, p: FilterParams) -> np.ndarray:
    """Scaled stage saturations z(w), the first four stage gradients:
    z = [tanh(w1), d tanh(w2/d), d^2 tanh(w3/d^2), (1/d) tanh(4r * w4/d^3)].
    For r = 0 the fourth component (the feedback saturation) is 0."""
    z1, z2, z3, z4, _ = stage_gradients(w, stage_table(p))
    return np.array([z1, z2, z3, z4 if p.feedback_coeff != 0.0 else 0.0])


def feedback_ratio(w4: float, p: FilterParams) -> float:
    """State-dependent ratio g of stage-4 damping to feedback saturation.

    g(w4) = d^4 * tanh(w4/d^3) / tanh(4r * w4/d^3); the removable 0/0 at
    w4 = 0 is filled with the small-argument limit d^4 / (4r).  The value
    always lies between d^4 and d^4/(4r).

    Raises ValueError for r = 0, where the ratio is meaningless (the caller
    must branch to the feedback-free model).
    """
    if p.r == 0.0:
        raise ValueError("feedback_ratio undefined for r=0 (feedback-free branch)")
    d = p.d
    d3 = d * d * d
    u = float(w4) / d3
    a4 = p.feedback_gain
    den_arg = a4 * u
    d4 = d * d3
    if abs(den_arg) < _RATIO_LIMIT_CUTOFF:
        return d4 / a4
    return d4 * math.tanh(u) / math.tanh(den_arg)


def feedback_ratio_bounds(p: FilterParams) -> tuple[float, float]:
    """Closed interval (lo, hi) containing feedback_ratio for every w4."""
    if p.r == 0.0:
        raise ValueError("feedback_ratio undefined for r=0 (feedback-free branch)")
    d4 = p.d ** 4
    other = d4 / p.feedback_gain
    return (min(d4, other), max(d4, other))


def corner_gain(ratio: float, base: float) -> float:
    """Corner parameter f = (2/d)(1 - g) of the symmetrized coupling."""
    return (2.0 / base) * (1.0 - ratio)


def coupling_matrix(p: FilterParams, ratio: float) -> np.ndarray:
    """Coefficient matrix Q with dw/dt = omega0 * Q @ saturation_vector(w).

    Q = [[-1, 0, 0, -d], [d, -1, 0, 0], [0, d, -1, 0], [0, 0, d, -g]]
    where g is the feedback ratio at the current w4.
    """
    d = p.d
    return np.array([
        [-1.0, 0.0, 0.0, -d],
        [d, -1.0, 0.0, 0.0],
        [0.0, d, -1.0, 0.0],
        [0.0, 0.0, d, -float(ratio)],
    ])


def coupling_structure(corner: float) -> np.ndarray:
    """Symmetric structure matrix G with sym(Q) = -I + (d/2) G.

    G = [[0, 1, 0, -1], [1, 0, 1, 0], [0, 1, 0, 1], [-1, 0, 1, f]].
    """
    f = float(corner)
    return np.array([
        [0.0, 1.0, 0.0, -1.0],
        [1.0, 0.0, 1.0, 0.0],
        [0.0, 1.0, 0.0, 1.0],
        [-1.0, 0.0, 1.0, f],
    ])
