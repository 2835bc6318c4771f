"""Lyapunov candidates, their decay rates, and definiteness certification.

Three candidate energies are implemented: the plain quadratic 0.5*x'x, the
scaled quadratic 0.5*w'w, and the saturation energy built from log-cosh
stage potentials whose gradient is exactly the saturation vector z.  A
matrix family is certified negative (semi)definite through the eigenvalues
of its omega0-normalized symmetrization.
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import model
from .model import FilterParams

_SQRT2 = math.sqrt(2.0)
_LN2 = math.log(2.0)


def log_cosh(u: float) -> float:
    """ln(cosh(u)) without overflow: log1p(2 sinh(u/2)^2) for |u| <= 1, which
    keeps full relative accuracy as u -> 0, else |u| + log1p(exp(-2|u|)) - ln 2."""
    a = abs(float(u))
    if a <= 1.0:
        sh = math.sinh(0.5 * a)
        return math.log1p(2.0 * sh * sh)
    return a + math.log1p(math.exp(-2.0 * a)) - _LN2


def log_cosh_diff(a: float, h: float, tanh_a: float) -> float:
    """ln(cosh(a+h)) - ln(cosh(a)), stable across step sizes, given
    tanh_a = tanh(a), a stage value the quotient's caller already holds.

    For |h| <= 1 uses cosh(a+h)/cosh(a) = cosh(h) + sinh(h) tanh(a), i.e.
    log1p(2 sinh(h/2)^2 + sinh(h) tanh(a)), which avoids cancelling the
    large log-cosh values; the ratio stays well above -1 there.  For larger
    h the two exponential-like terms of the ratio can cancel instead, so
    the direct difference (then benign) is used.
    """
    if abs(h) <= 1.0:
        sh = math.sinh(0.5 * h)
        return math.log1p(2.0 * sh * sh + math.sinh(h) * tanh_a)
    u, v = abs(a + h), abs(a)  # log_cosh(a + h) and log_cosh(a), inline
    u = (math.log1p(2.0 * (sh := math.sinh(0.5 * u)) * sh) if u <= 1.0
         else u + math.log1p(math.exp(-2.0 * u)) - _LN2)
    v = (math.log1p(2.0 * (sh := math.sinh(0.5 * v)) * sh) if v <= 1.0
         else v + math.log1p(math.exp(-2.0 * v)) - _LN2)
    return u - v


def V_quadratic_x(x) -> float:
    """Quadratic energy 0.5 * v'v: the stored energy 0.5 * x'x on x, and the
    scaled quadratic 0.5 * w'w = 0.5 * x' D^2 x on w."""
    v = np.asarray(x, dtype=float)
    return 0.5 * float(v @ v)


def V_nonlinear(w, p: FilterParams) -> float:
    """Saturation energy in scaled coordinates (requires r > 0).

    V(w) = lncosh(w1) + d^2 lncosh(w2/d) + d^4 lncosh(w3/d^2)
           + (d^2/(4r)) lncosh(4r * w4/d^3)

    Zero at the origin, positive elsewhere, radially unbounded.
    """
    if p.r == 0.0:
        raise ValueError("V_nonlinear undefined for r=0; use V_zero_feedback")
    return lyapunov_value(w, p)


def V_zero_feedback(w) -> float:
    """Feedback-free energy sum(lncosh(w_i)); the r = 0 branch (d = 1)."""
    return sum(log_cosh(float(v)) for v in w)


def grad_V(w, p: FilterParams) -> np.ndarray:
    """Gradient of V_nonlinear with respect to w; identically the
    saturation vector z (same code path)."""
    if p.r == 0.0:
        raise ValueError("grad_V undefined for r=0; use tanh(w) on that branch")
    return model.saturation_vector(w, p)


def Vdot_nonlinear(w, p: FilterParams) -> float:
    """Decay rate of V_nonlinear along the flow: omega0 * z' sym(Q) z
    with the feedback ratio evaluated at w4."""
    if p.r == 0.0:
        raise ValueError("Vdot_nonlinear undefined for r=0; use Vdot_zero_feedback")
    return lyapunov_rate(w, p)


def Vdot_zero_feedback(w, p: FilterParams) -> float:
    """Decay rate of the feedback-free energy along the r = 0 cascade."""
    return lyapunov_rate(w, p)


def lyapunov_value(w, p: FilterParams) -> float:
    """energy_column's V of the one state w: V_nonlinear, or V_zero_feedback at r = 0."""
    return energy_column(w, p)[0]


@model.per_params
def _rate_constants(p: FilterParams):
    """The w-independent terms of rate_column's LDL' factorisation."""
    h = 0.5 * p.d
    c = 0.5 * p.feedback_coeff
    piv2 = 1.0 - h * h  # >= 1/2, as d^2 <= 2
    l32, l42 = -h / piv2, h * c / piv2
    piv3 = max(0.0, 1.0 - h * h / piv2)
    m34 = -h + h * h * c / piv2
    l43 = m34 / piv3 if piv3 > 0.0 else 0.0
    return h, c, piv2, l32, l42, piv3, l43, c * c, h * c * l42, m34 * l43


def lyapunov_rate(w, p: FilterParams) -> float:
    """Decay rate of lyapunov_value: rate_of_gradients of model.stage_gradients."""
    return rate_of_gradients(model.stage_gradients(w, model.stage_table(p)), p)


def rate_of_gradients(z, p: FilterParams) -> float:
    """rate_column's Vdot of the one row z = (z1, z2, z3, z4, du4) of stage gradients."""
    return rate_column(z, p)[0]


def energy_column(ws, p: FilterParams) -> list:
    """V of each state (w1, w2, w3, w4) in ws, back to back (else ValueError):
    V = sum_i S_i lncosh(k_i w_i) over model.stage_table."""
    (s1, k1, _, _), (s2, k2, _, _), (s3, k3, _, _), (s4, k4, _, _), _ = model.stage_table(p)
    log1p, sinh, exp, ln2 = math.log1p, math.sinh, math.exp, _LN2
    energy, wi = [], iter(ws)
    # no abs call and at most three targets per assignment, as in integrators._dg_run
    for w1, w2, w3, w4 in zip(wi, wi, wi, wi, strict=True):
        # log_cosh(k_i w_i) of a_i = |k_i w_i| (0.0 - a: +0.0 at a = -0.0, as abs gives), inline
        a1 = a if (a := k1 * w1) > 0.0 else 0.0 - a
        a1 = (log1p(2.0 * (sh := sinh(0.5 * a1)) * sh) if a1 <= 1.0
              else a1 + log1p(exp(-2.0 * a1)) - ln2)
        a2 = a if (a := k2 * w2) > 0.0 else 0.0 - a
        a2 = (log1p(2.0 * (sh := sinh(0.5 * a2)) * sh) if a2 <= 1.0
              else a2 + log1p(exp(-2.0 * a2)) - ln2)
        a3 = a if (a := k3 * w3) > 0.0 else 0.0 - a
        a3 = (log1p(2.0 * (sh := sinh(0.5 * a3)) * sh) if a3 <= 1.0
              else a3 + log1p(exp(-2.0 * a3)) - ln2)
        a4 = a if (a := k4 * w4) > 0.0 else 0.0 - a
        a4 = (log1p(2.0 * (sh := sinh(0.5 * a4)) * sh) if a4 <= 1.0
              else a4 + log1p(exp(-2.0 * a4)) - ln2)
        energy.append(s1 * a1 + s2 * a2 + s3 * a3 + s4 * a4)
    return energy


def rate_column(zs, p: FilterParams) -> list:
    """Vdot of each row of stage gradients z = (z1, z2, z3, z4, du4) in zs, back
    to back (else ValueError).

    Vdot is omega0 * z' model.stage_field(z), for r > 0 omega0 * z' sym(Q) z
    (z4 du4 = g z4^2, g the feedback ratio at w4), evaluated as -omega0 * y' D y
    with y = L' z and L D L' = -sym(Q) = [[1, -h, 0, c], [-h, 1, -h, 0],
    [0, -h, 1, -h], [c, 0, -h, g]], h = d/2, c = p.feedback_coeff/2 (h, or 0 at
    r = 0) and g = du4/z4.  The pivots are clamped at 0, so Vdot <= 0, also on
    the null direction of -sym(Q) at r = 1.
    """
    h, c, piv2, l32, l42, piv3, l43, cc, hcl42, ml43 = _rate_constants(p)
    omega0, rates, zi = p.omega0, [], iter(zs)
    # at most three targets per assignment, as in integrators._dg_run
    for z1, z2, z3, z4, du4 in zip(zi, zi, zi, zi, zi, strict=True):
        y1, y2, y3 = z1 - h * z2 + c * z4, z2 + l32 * z3 + l42 * z4, z3 + l43 * z4
        quad = y1 * y1 + piv2 * y2 * y2 + piv3 * y3 * y3
        if z4 != 0.0:
            piv4 = du4 / z4 - cc - hcl42 - ml43
            quad += (piv4 if piv4 > 0.0 else 0.0) * z4 * z4  # max(0.0, piv4), NaN included
        rates.append(0.0 - omega0 * quad)  # not -(...): the origin gives 0.0, not -0.0
    return rates


def symmetrize(M) -> np.ndarray:
    """0.5 * (M + M'); idempotent on symmetric input."""
    A = np.asarray(M, dtype=float)
    return 0.5 * (A + A.T)


def sym_eigvals(M, tol: float = 1e-10) -> np.ndarray:
    """Eigenvalues of a symmetric 4x4 matrix, ascending (LAPACK eigvalsh).

    Rejects matrices with ||M - M'||_inf >= tol; the symmetric part is
    what gets decomposed.
    """
    A = np.array(M, dtype=float)
    if A.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {A.shape}")
    if np.abs(A - A.T).max() >= tol:
        raise ValueError("matrix is not symmetric within tolerance")
    return np.linalg.eigvalsh(0.5 * (A + A.T))


def structure_max_eigenvalue(corner: float) -> float:
    """Largest eigenvalue of coupling_structure(f):
    max(sqrt(2), (f + sqrt(f^2 + 8)) / 2)."""
    f = float(corner)
    return max(_SQRT2, 0.5 * (f + math.sqrt(f * f + 8.0)))


class Verdict(Enum):
    NEGATIVE_DEFINITE = "NegativeDefinite"
    NEGATIVE_SEMIDEFINITE = "NegativeSemidefinite"
    INDEFINITE = "Indefinite"


class MatrixFamily(Enum):
    AS = "As"
    BS = "Bs"
    QS_WORST_CASE = "QsWorstCase"


def family_named(name) -> MatrixFamily:
    """The family whose value is name; ValueError listing the choices otherwise."""
    try:
        return MatrixFamily(name)
    except ValueError:
        choices = sorted(f.value for f in MatrixFamily)
        raise ValueError(f"unknown family {name!r}; choose from {choices}") from None


def _verdict(margin: float, tol: float) -> Verdict:
    """Verdict for a largest eigenvalue, or a resonance's offset from the
    family boundary: definite below -tol, semidefinite within tol of 0."""
    if margin < -tol:
        return Verdict.NEGATIVE_DEFINITE
    if abs(margin) <= tol:
        return Verdict.NEGATIVE_SEMIDEFINITE
    return Verdict.INDEFINITE


# Resonance at which each family stops being negative definite: the plain
# quadratic energy at r = 5/12, the scaled and saturation energies at r = 1.
FAMILY_BOUNDARY = {
    MatrixFamily.AS: 5.0 / 12.0,
    MatrixFamily.BS: 1.0,
    MatrixFamily.QS_WORST_CASE: 1.0,
}


def expected_verdict(family: MatrixFamily, r: float) -> Verdict:
    """Verdict the family's boundary predicts at resonance r: semidefinite
    within 1e-9 of the boundary, definite below it, indefinite above."""
    return _verdict(r - FAMILY_BOUNDARY[family], 1e-9)


@dataclass(frozen=True)
class CertificateReport:
    """Definiteness verdict for one matrix family at one parameter point.

    Eigenvalues are of the omega0-normalized symmetrized family member, so
    the verdict tolerance is scale-free (omega0 > 0 cannot change
    definiteness).
    """

    omega0: float
    r: float
    family: MatrixFamily
    min_eig: float
    max_eig: float
    verdict: Verdict
    tol: float


def _normalized_family_matrix(family: MatrixFamily, r: float) -> np.ndarray:
    """Symmetrized family member at resonance r, divided by omega0.

    Accepts r slightly above 1 so threshold bisection can bracket the
    boundary of the valid range.
    """
    p = model._derive(1.0, r)
    if family is MatrixFamily.AS:
        return symmetrize(model.linearized_matrix(p))
    if family is MatrixFamily.BS:
        return symmetrize(model.scaled_linearized_matrix(p))
    if family is MatrixFamily.QS_WORST_CASE:
        if r == 0.0:
            return symmetrize(model.linearized_matrix(p))
        g_lo, _ = model.feedback_ratio_bounds(p)
        return symmetrize(model.coupling_matrix(p, g_lo))
    raise ValueError(f"unknown family {family!r}")


def _check_tol(name: str, value: float, positive: bool = False) -> None:
    """ValueError naming the tolerance unless it is finite and >= 0 (> 0
    when positive)."""
    if not (math.isfinite(value) and (value > 0.0 if positive else value >= 0.0)):
        bound = "> 0" if positive else ">= 0"
        raise ValueError(f"{name} must be finite and {bound}, got {value!r}")


def certify(family: MatrixFamily, p: FilterParams, tol: float = 1e-10) -> CertificateReport:
    """Definiteness certificate for one family at parameters p.

    For QsWorstCase the coupling matrix is evaluated at the smallest
    attainable feedback ratio; since the ratio only enters the (4,4) entry
    with a minus sign, a negative-definite verdict there covers every
    attainable ratio (larger ratios subtract a positive rank-one term).
    At r = 0 there is no feedback ratio; QsWorstCase then certifies the
    feedback-free cascade, the matrix of Vdot_zero_feedback.  Raises
    ValueError naming tol unless it is finite and >= 0.
    """
    _check_tol("tol", tol)
    eigs = sym_eigvals(_normalized_family_matrix(family, p.r), tol=1e-8)
    max_eig = float(eigs[-1])
    return CertificateReport(
        omega0=p.omega0,
        r=p.r,
        family=family,
        min_eig=float(eigs[0]),
        max_eig=max_eig,
        verdict=_verdict(max_eig, tol),
        tol=tol,
    )


def definiteness_threshold(
    family: MatrixFamily,
    r_lo: float,
    r_hi: float,
    tol: float = 1e-8,
    verdict_tol: float = 1e-10,
) -> float:
    """Bisect the resonance at which the family stops being negative
    definite (max eigenvalue crosses -verdict_tol).

    Requires the definiteness predicate to differ at r_lo and r_hi; r_hi may
    sit slightly above 1 to bracket a boundary at r = 1 itself.  Bisection
    stops when the bracket is at most tol wide, or when it can shrink no
    further in floating point.  Raises ValueError naming tol unless it is
    finite and > 0, and naming verdict_tol unless it is finite and >= 0.
    """
    _check_tol("tol", tol, positive=True)
    _check_tol("verdict_tol", verdict_tol)
    if not (0.0 <= r_lo < r_hi):
        raise ValueError(f"need 0 <= r_lo < r_hi, got ({r_lo}, {r_hi})")

    def is_definite(r: float) -> bool:
        eigs = sym_eigvals(_normalized_family_matrix(family, r), tol=1e-8)
        return float(eigs[-1]) < -verdict_tol

    lo_def = is_definite(r_lo)
    if lo_def == is_definite(r_hi):
        raise ValueError(
            f"no definiteness change for {family.value} on [{r_lo}, {r_hi}]"
        )
    lo, hi = float(r_lo), float(r_hi)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if is_definite(mid) == lo_def:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
