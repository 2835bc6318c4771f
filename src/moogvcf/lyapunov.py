"""Lyapunov candidates, their decay rates, and definiteness certification.

There are three candidate energies: the plain quadratic 0.5*x'x and the
scaled quadratic 0.5*w'w, certified through the As and Bs families, and the
saturation energy built from log-cosh stage potentials whose gradient is
exactly the saturation vector z (model.saturation_vector).  A matrix family
is certified negative (semi)definite through the eigenvalues of its
omega0-normalized symmetrization: one LAPACK eigvalsh call on a matrix that
is symmetric by construction.  sym_eigvals is the checked entry point for
matrices from outside.
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import model, native
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


def V_nonlinear(w, p: FilterParams) -> float:
    """Saturation energy in scaled coordinates (requires r > 0).

    V(w) = lncosh(w1) + d^2 lncosh(w2/d) + d^4 lncosh(w3/d^2)
           + (d^2/(4r)) lncosh(4r * w4/d^3)

    Zero at the origin, positive elsewhere, radially unbounded.
    """
    if p.r == 0.0:
        raise ValueError("V_nonlinear undefined for r=0; use V_zero_feedback")
    return float(energy_column(w, p)[0])


def V_zero_feedback(w) -> float:
    """Feedback-free energy sum(lncosh(w_i)); the r = 0 branch (d = 1)."""
    return sum(log_cosh(float(v)) for v in w)


def Vdot_nonlinear(w, p: FilterParams) -> float:
    """Decay rate of V_nonlinear along the flow: omega0 * z' sym(Q) z
    with the feedback ratio evaluated at w4."""
    if p.r == 0.0:
        raise ValueError("Vdot_nonlinear undefined for r=0; use Vdot_zero_feedback")
    return float(rate_column(model.stage_gradients(w, model.stage_table(p)), p)[0])


def Vdot_zero_feedback(w, p: FilterParams) -> float:
    """Decay rate of the feedback-free energy along the r = 0 cascade."""
    return float(rate_column(model.stage_gradients(w, model.stage_table(p)), p)[0])


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


def _energy_column_python(ws, p: FilterParams) -> np.ndarray:
    """V of each state (w1, w2, w3, w4) in ws, an (n, 4) array or the rows
    back to back (else ValueError, from the reshape):
    V = sum_i S_i lncosh(k_i w_i) over model.stage_table."""
    (s1, k1, _, _), (s2, k2, _, _), (s3, k3, _, _), (s4, k4, _, _), _ = model.stage_table(p)
    log1p, sinh, exp, ln2 = math.log1p, math.sinh, math.exp, _LN2
    energy = []
    # no abs call and at most three targets per assignment, as in integrators._dg_run
    for w1, w2, w3, w4 in np.ascontiguousarray(ws, dtype=float).reshape(-1, 4).tolist():
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
    return np.array(energy, dtype=float)


def _energy_column_native(ws, p: FilterParams) -> np.ndarray:
    """_energy_column_python, run by energy_column of _kernels.c."""
    ws = np.ascontiguousarray(ws, dtype=float).reshape(-1, 4)
    energy = np.empty(len(ws))
    native.lib.energy_column(native.constants(p), ws.ctypes.data, len(ws), _LN2,
                             energy.ctypes.data)
    return energy


# the kernel of _kernels.c if native loaded it, else the Python one: the same bits
energy_column = _energy_column_python if native.lib is None else _energy_column_native


def rate_column(zs, p: FilterParams) -> np.ndarray:
    """Vdot of each row of stage gradients z = (z1, z2, z3, z4, du4) in zs, the
    rows back to back, flat or as an (n, 5) array (else ValueError).

    Vdot is omega0 * z' model.stage_field(z), for r > 0 omega0 * z' sym(Q) z
    (z4 du4 = g z4^2, g the feedback ratio at w4), evaluated as -omega0 * y' D y
    with y = L' z and L D L' = -sym(Q) = [[1, -h, 0, c], [-h, 1, -h, 0],
    [0, -h, 1, -h], [c, 0, -h, g]], h = d/2, c = p.feedback_coeff/2 (h, or 0 at
    r = 0) and g = du4/z4.  The pivots are clamped at 0, so Vdot <= 0, also on
    the null direction of -sym(Q) at r = 1.

    One numpy expression over all rows, whose +, -, * and / round as Python
    floats do: the fourth pivot's term is added only where z4 != 0, and a
    pivot that is not > 0 (NaN included) counts as 0, so each row's Vdot is
    bit for bit that of the row on its own in Python floats.
    """
    h, c, piv2, l32, l42, piv3, l43, cc, hcl42, ml43 = _rate_constants(p)
    z = np.asarray(zs, dtype=float)
    if z.size % 5:
        raise ValueError(f"stage gradients come 5 per row, got {z.size} values")
    z1, z2, z3, z4, du4 = z.reshape(-1, 5).T
    with np.errstate(all="ignore"):  # du4/z4 at z4 = 0, and inf or NaN rows, as floats
        y1, y2, y3 = z1 - h * z2 + c * z4, z2 + l32 * z3 + l42 * z4, z3 + l43 * z4
        quad = y1 * y1 + piv2 * y2 * y2 + piv3 * y3 * y3
        piv4 = du4 / z4 - cc - hcl42 - ml43
        quad = np.where(z4 != 0.0, quad + np.where(piv4 > 0.0, piv4, 0.0) * z4 * z4, quad)
        return 0.0 - p.omega0 * quad  # not -(...): the origin gives 0.0, not -0.0


def symmetrize(M) -> np.ndarray:
    """0.5 * (M + M'); idempotent on symmetric input."""
    A = np.asarray(M, dtype=float)
    return 0.5 * (A + A.T)


def sym_eigvals(M, tol: float = 1e-10) -> np.ndarray:
    """Eigenvalues of a symmetric 4x4 matrix, ascending (LAPACK eigvalsh):
    the checked entry point for matrices from outside.

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


def _family_matrix(family: MatrixFamily, p: FilterParams) -> np.ndarray:
    """Symmetrized family member at p's resonance, divided by omega0, built
    from one ladder pattern:

        [[-1,   s/2, 0,   -c/2],
         [s/2,  -1,  s/2, 0   ],
         [0,    s/2, -1,  s/2 ],
         [-c/2, 0,   s/2, -g  ]]

    with (s, c, g) = (1, 4r, 1) for As and for QsWorstCase at r = 0,
    (alpha, alpha, 1) for Bs, and (d, d, g_lo) for QsWorstCase, g_lo the
    smallest attainable feedback ratio.  Each entry is rounded as symmetrize
    rounds it, so the matrix is bit for bit symmetrize of the model's
    linearized_matrix, scaled_linearized_matrix or coupling_matrix at
    omega0 = 1.  p may sit slightly above r = 1, so that threshold bisection
    can bracket the boundary of the valid range.
    """
    if family is MatrixFamily.AS or (family is MatrixFamily.QS_WORST_CASE and p.r == 0.0):
        s, c, g = 1.0, p.feedback_gain, 1.0
    elif family is MatrixFamily.BS:
        s = c = p.alpha
        g = 1.0
    elif family is MatrixFamily.QS_WORST_CASE:
        s = c = p.d
        g = model.feedback_ratio_bounds(p)[0]
    else:
        raise ValueError(f"unknown family {family!r}")
    h, k = 0.5 * s, 0.5 * (0.0 - c)  # 0.0 - c: +0.0, not -0.0, at c = 0
    return np.array([[-1.0, h, 0.0, k], [h, -1.0, h, 0.0], [0.0, h, -1.0, h], [k, 0.0, h, -g]])


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
    feedback-free cascade, the matrix of Vdot_zero_feedback.  The
    certificate is one eigvalsh call on the family matrix, which is
    symmetric by construction; sym_eigvals is the checked entry point for
    matrices from outside.  Raises ValueError naming tol unless it is
    finite and >= 0.
    """
    _check_tol("tol", tol)
    eigs = np.linalg.eigvalsh(_family_matrix(family, p))
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
    finite and > 0, naming verdict_tol unless it is finite and >= 0, and
    naming r_lo or r_hi if the family matrix there has a non-finite entry:
    at r = inf, or once 4r overflows, past about 4.5e307.
    """
    _check_tol("tol", tol, positive=True)
    _check_tol("verdict_tol", verdict_tol)
    if not (0.0 <= r_lo < r_hi):
        raise ValueError(f"need 0 <= r_lo < r_hi, got ({r_lo}, {r_hi})")

    def is_definite(M: np.ndarray) -> bool:
        return float(np.linalg.eigvalsh(M)[-1]) < -verdict_tol

    # Entries overflow only at large r, so a matrix finite at r_hi is finite inside.
    ends = []
    for name, r in (("r_lo", r_lo), ("r_hi", r_hi)):
        try:
            M = _family_matrix(family, model._derive(1.0, r))
        except OverflowError:  # d ** 4 in QsWorstCase's feedback ratio bound
            M = None
        if M is None or not np.isfinite(M).all():
            raise ValueError(f"{name} = {r!r} gives a non-finite {family.value} matrix entry")
        ends.append(M)
    lo_def = is_definite(ends[0])
    if lo_def == is_definite(ends[1]):
        raise ValueError(
            f"no definiteness change for {family.value} on [{r_lo}, {r_hi}]"
        )
    lo, hi = float(r_lo), float(r_hi)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if is_definite(_family_matrix(family, model._derive(1.0, mid))) == lo_def:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
