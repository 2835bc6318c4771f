"""Lyapunov candidates, their decay rates, and definiteness certification.

There are three candidate energies: the plain quadratic 0.5*x'x and the
scaled quadratic 0.5*w'w, certified through the As and Bs families, and the
saturation energy built from log-cosh stage potentials whose gradient is
exactly the saturation vector z (model.saturation_vector).  A matrix family
is certified negative (semi)definite through the eigenvalues of its
omega0-normalized symmetrization: one stacked LAPACK eigvalsh call per block
of grid points, or per round of the families' lockstep boundary bisection.
sym_eigvals is the checked entry point for matrices from outside.
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import model, native
from .model import FilterParams

_SQRT2 = math.sqrt(2.0)
_LN2 = math.log(2.0)
# Most matrices per eigvalsh call: 2 MB, not the 128 MB of a 10^6-point grid.
_BLOCK_MATRICES = 2 ** 14


def _log_cosh_abs(a: float) -> float:
    """ln(cosh(a)) of a = |u| >= 0 (or NaN), as log_cosh_abs of _kernels.c:
    log1p(2 sinh(a/2)^2) for a <= 1, which keeps full relative accuracy as
    a -> 0, else a + log1p(exp(-2a)) - ln 2, which does not overflow."""
    if a <= 1.0:
        sh = math.sinh(0.5 * a)
        return math.log1p(2.0 * sh * sh)
    return a + math.log1p(math.exp(-2.0 * a)) - _LN2


def log_cosh(u: float) -> float:
    """ln(cosh(u)) without overflow: _log_cosh_abs of |u|."""
    return _log_cosh_abs(abs(float(u)))


def log_cosh_diff(a: float, h: float, tanh_a: float) -> float:
    """ln(cosh(a+h)) - ln(cosh(a)), stable across step sizes, given
    tanh_a = tanh(a), a stage value the quotient's caller already holds.

    For |h| <= 1 uses cosh(a+h)/cosh(a) = cosh(h) + sinh(h) tanh(a), i.e.
    log1p(2 sinh(h/2)^2 + sinh(h) tanh(a)), which avoids cancelling the
    large log-cosh values; the ratio stays well above -1 there.  For larger
    h the two exponential-like terms of the ratio can cancel instead, so
    the direct difference (then benign) is used.
    """
    if -1.0 <= h <= 1.0:
        sh = math.sinh(0.5 * h)
        return math.log1p(2.0 * sh * sh + math.sinh(h) * tanh_a)
    return _log_cosh_abs(abs(a + h)) - _log_cosh_abs(abs(a))


def _state(w) -> np.ndarray:
    """w as a float array; ValueError naming w unless it is one 4-vector."""
    w = np.asarray(w, dtype=float)
    if w.shape != (4,):
        raise ValueError(f"w must be one 4-vector, got shape {w.shape}")
    return w


def V_nonlinear(w, p: FilterParams) -> float:
    """Saturation energy in scaled coordinates (requires r > 0).

    V(w) = lncosh(w1) + d^2 lncosh(w2/d) + d^4 lncosh(w3/d^2)
           + (d^2/(4r)) lncosh(4r * w4/d^3)

    Zero at the origin, positive elsewhere, radially unbounded.
    """
    w = _state(w)
    if p.r == 0.0:
        raise ValueError("V_nonlinear undefined for r=0; use V_zero_feedback")
    return float(energy_column(w, p)[0])


def V_zero_feedback(w) -> float:
    """Feedback-free energy sum(lncosh(w_i)); the r = 0 branch (d = 1)."""
    return sum(map(log_cosh, _state(w).tolist()))


def Vdot_nonlinear(w, p: FilterParams) -> float:
    """Decay rate of V_nonlinear along the flow: omega0 * z' sym(Q) z
    with the feedback ratio evaluated at w4."""
    w = _state(w)
    if p.r == 0.0:
        raise ValueError("Vdot_nonlinear undefined for r=0; use Vdot_zero_feedback")
    return float(rate_column(model.stage_gradients(w, model.stage_table(p)), p)[0])


def Vdot_zero_feedback(w, p: FilterParams) -> float:
    """Decay rate of the feedback-free energy along the r = 0 cascade."""
    return float(rate_column(model.stage_gradients(_state(w), model.stage_table(p)), p)[0])


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


def _energy_rows(pc, rows) -> list:
    """V of each state (w1, w2, w3, w4) of rows, a list of 4-lists of floats:
    V = sum_i S_i ln(cosh(k_i w_i)) over model.stage_table, whose S and k are
    read from pc, a native.constants row as a list of floats, as state_energy
    of _kernels.c reads them; math.nan if V is a NaN, whichever NaN the
    additions kept."""
    s1, k1, _, _, s2, k2, _, _, s3, k3, _, _, s4, k4 = pc[:14]
    energy = []
    for w1, w2, w3, w4 in rows:
        v = (s1 * _log_cosh_abs(abs(k1 * w1)) + s2 * _log_cosh_abs(abs(k2 * w2))
             + s3 * _log_cosh_abs(abs(k3 * w3)) + s4 * _log_cosh_abs(abs(k4 * w4)))
        energy.append(v if v == v else math.nan)
    return energy


def energy_column(ws, p: FilterParams) -> np.ndarray:
    """V of each state (w1, w2, w3, w4) in ws, an (n, 4) array or the rows
    back to back (else ValueError, from the reshape), by _energy_rows, whose
    operations the kernels use for a trajectory's V."""
    rows = np.ascontiguousarray(ws, dtype=float).reshape(-1, 4).tolist()
    return np.array(_energy_rows(native.constants(p).tolist(), rows), dtype=float)


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


def _family_row(family: MatrixFamily, p: FilterParams) -> tuple:
    """The 16 entries, row by row, of the symmetrized family member at p's
    resonance, divided by omega0, built from one ladder pattern:

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
    return -1.0, h, 0.0, k, h, -1.0, h, 0.0, 0.0, h, -1.0, h, k, 0.0, h, -g


def _family_matrices(family: MatrixFamily, ps) -> np.ndarray:
    """The (N, 4, 4) family matrices at each p of ps, from one flat list,
    which costs less than a numpy fill at one to three matrices."""
    flat = []
    for p in ps:
        flat += _family_row(family, p)
    return np.array(flat, dtype=float).reshape(-1, 4, 4)


def _check_tol(name: str, value: float, positive: bool = False) -> None:
    """ValueError naming the tolerance unless it is finite and >= 0 (> 0
    when positive)."""
    if not (math.isfinite(value) and (value > 0.0 if positive else value >= 0.0)):
        bound = "> 0" if positive else ">= 0"
        raise ValueError(f"{name} must be finite and {bound}, got {value!r}")


def certify(family: MatrixFamily, p: FilterParams, tol: float = 1e-10) -> CertificateReport:
    """Definiteness certificate for one family at parameters p: certify_grid of [p]."""
    return certify_grid(family, [p], tol)[0]


def certify_grid(family: MatrixFamily, ps, tol: float = 1e-10) -> list:
    """Definiteness certificate for one family at each parameters p of ps.

    For QsWorstCase the coupling matrix is evaluated at the smallest
    attainable feedback ratio; since the ratio only enters the (4,4) entry
    with a minus sign, a negative-definite verdict there covers every
    attainable ratio (larger ratios subtract a positive rank-one term).
    At r = 0 there is no feedback ratio; QsWorstCase then certifies the
    feedback-free cascade, the matrix of Vdot_zero_feedback.  The family
    matrices go to one eigvalsh call per _BLOCK_MATRICES; numpy runs LAPACK's
    syevd on each matrix of a stack, so a report is bit for bit that of its
    matrix alone.  Raises ValueError naming tol unless it is finite and >= 0.
    """
    _check_tol("tol", tol)
    blocks = [ps[k:k + _BLOCK_MATRICES] for k in range(0, len(ps), _BLOCK_MATRICES)]
    return [CertificateReport(p.omega0, p.r, family, lo, hi, _verdict(hi, tol), tol)
            for block in blocks for p, (lo, *_, hi) in zip(
                block, np.linalg.eigvalsh(_family_matrices(family, block)).tolist())]


def definiteness_threshold(
    family: MatrixFamily,
    r_lo: float,
    r_hi: float,
    tol: float = 1e-8,
    verdict_tol: float = 1e-10,
) -> float:
    """Bisect the resonance at which the family stops being negative
    definite (max eigenvalue crosses -verdict_tol): bisect_brackets of one.

    Requires the definiteness predicate to differ at r_lo and r_hi; r_hi may
    sit slightly above 1 to bracket a boundary at r = 1 itself.  Raises
    ValueError naming tol unless it is finite and > 0, naming verdict_tol
    unless it is finite and >= 0, and naming r_lo or r_hi if the family
    matrix there has a non-finite entry: at r = inf, or once 4r overflows,
    past about 4.5e307.
    """
    _check_tol("tol", tol, positive=True)
    _check_tol("verdict_tol", verdict_tol)
    if not (0.0 <= r_lo < r_hi):
        raise ValueError(f"need 0 <= r_lo < r_hi, got ({r_lo}, {r_hi})")
    # Entries overflow only at large r, so a matrix finite at r_hi is finite inside.
    flat = []
    for name, r in (("r_lo", r_lo), ("r_hi", r_hi)):
        try:
            flat += (row := _family_row(family, model._derive(1.0, r)))
        except OverflowError:  # d ** 4 in QsWorstCase's feedback ratio bound
            row = (math.inf,)
        if not all(map(math.isfinite, row)):
            raise ValueError(f"{name} = {r!r} gives a non-finite {family.value} matrix entry")
    tops = np.linalg.eigvalsh(np.array(flat, dtype=float).reshape(-1, 4, 4))[:, -1].tolist()
    if (lo_def := tops[0] < -verdict_tol) == (tops[1] < -verdict_tol):
        raise ValueError(f"no definiteness change for {family.value} on [{r_lo}, {r_hi}]")
    return bisect_brackets([(family, r_lo, r_hi, lo_def, verdict_tol)], tol)[0]


def bisect_brackets(brackets, tol: float = 1e-8) -> list:
    """The threshold of each bracket (family, r_lo, r_hi, lo_definite,
    verdict_tol), or None for a bracket of None.  lo_definite is the
    predicate max eigenvalue < -verdict_tol at r_lo, which must not hold at
    r_hi.  The brackets still open are bisected in lockstep, one stacked
    eigvalsh call per round; each keeps its own midpoints and stopping rule,
    so its threshold is bit for bit its bisection alone's."""
    ends = [None if b is None else [float(b[1]), float(b[2])] for b in brackets]
    live = [(bracket, end, None) for bracket, end in zip(brackets, ends) if end is not None]
    # a bracket stops once at most tol wide, or once its midpoint is an end
    while live := [(bracket, end, mid) for bracket, end, _ in live if end[1] - end[0] > tol
                   and end[0] != (mid := 0.5 * (end[0] + end[1])) != end[1]]:
        flat = []
        for (family, *_), _, mid in live:
            flat += _family_row(family, model._derive(1.0, mid))
        tops = np.linalg.eigvalsh(np.array(flat, dtype=float).reshape(-1, 4, 4))[:, -1].tolist()
        for (bracket, end, mid), top in zip(live, tops):
            end[0 if (top < -bracket[4]) == bracket[3] else 1] = mid
    return [None if end is None else 0.5 * (end[0] + end[1]) for end in ends]
