"""Eigenvalue analysis of the linearized ladder system.

The closed form puts the four eigenvalues at omega0 * (-1 +- r^(1/4)) +-
j * omega0 * r^(1/4) (all four sign combinations).  The numerical oracle
finds roots of the characteristic polynomial, exact via integer scaling
(Faddeev-LeVerrier on the matrix times a power of two, in Python integers),
by Durand-Kerner simultaneous iteration on the coefficients rounded to
float64.  When that iteration stalls or the roots cluster (multiple
eigenvalues are infinitely ill-conditioned through the coefficients) it
escalates to mpmath arithmetic on the exact rational coefficients.
"""

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .model import FilterParams


class RootFindingError(RuntimeError):
    """Root iteration failed to converge; carries the last residual."""

    def __init__(self, message: str, residual: float):
        self.residual = residual
        super().__init__(f"{message} (residual {residual:.3e})")


@dataclass(frozen=True)
class Spectrum:
    """Four complex eigenvalues sorted by argument in [0, 2pi), taken as 0 within 1e-12 of the
    largest magnitude of the positive real axis, then by magnitude; and the largest real part."""

    eigenvalues: np.ndarray
    max_real_part: float


def _sorted_spectrum(vals) -> Spectrum:
    z = np.asarray(vals, dtype=complex)
    real = (z.real > 0.0) & (np.abs(z.imag) <= 1e-12 * np.abs(z).max())  # imag: rounding noise
    ang = np.where(real, 0.0, np.mod(np.angle(z), 2.0 * np.pi))
    order = np.lexsort((np.abs(z), ang))
    z = z[order]
    return Spectrum(eigenvalues=z, max_real_part=float(z.real.max()))


def eigvals_closed_form(p: FilterParams) -> Spectrum:
    """Closed-form spectrum of the linearized system.

    The four eigenvalues are -omega0 + omega0 * alpha * exp(j (2k+1) pi/4);
    since alpha cos(pi/4) = r^(1/4) exactly, they are built as
    omega0 * (-1 +- m) +- j * omega0 * m with m = r^(1/4), which keeps the
    maximal real part omega0 * (m - 1) exactly nonpositive for r <= 1.
    """
    m = p.r ** 0.25
    w0 = p.omega0
    re_hi = w0 * (m - 1.0)
    re_lo = w0 * (-m - 1.0)
    im = w0 * m
    return _sorted_spectrum([
        complex(re_hi, im),
        complex(re_lo, im),
        complex(re_lo, -im),
        complex(re_hi, -im),
    ])


def _integer_matrix(M) -> tuple[list[list[int]], int]:
    """Exact integer form of a finite real 4x4 matrix: rows of integers A
    and an exponent E with M = A / 2**E.

    Every finite float is n / 2**k (`float.as_integer_ratio`); E is the
    largest k, so each scaled entry n * 2**(E - k) is an integer.
    """
    try:
        arr = np.asarray(M)
    except (TypeError, ValueError):
        raise ValueError("M must be a real 4x4 matrix") from None
    if arr.shape != (4, 4) or arr.dtype.kind not in "biuf":
        raise ValueError(f"M must be a real 4x4 matrix, got shape {arr.shape}, dtype {arr.dtype}")
    entries = arr.astype(float).ravel().tolist()
    if not all(map(math.isfinite, entries)):
        raise ValueError(f"M must be finite, got {entries}")
    ratios = [x.as_integer_ratio() for x in entries]
    E = max(d for _, d in ratios).bit_length() - 1
    scaled = [n << (E + 1 - d.bit_length()) for n, d in ratios]
    return [scaled[i:i + 4] for i in range(0, 16, 4)], E


def characteristic_coeffs(M) -> list[Fraction]:
    """Monic characteristic polynomial coefficients of a finite real 4x4
    matrix, exact via integer scaling.

    With M = A / 2**E (A an integer matrix), Faddeev-LeVerrier runs on A:
    B_1 = A, B_k = A (B_{k-1} + C_{k-1} I), C_k = -tr(B_k) / k.  C_k is the
    k-th characteristic coefficient of the integer matrix A, so the
    division is exact, and M's coefficient is C_k / 2**(kE).  Raises
    ValueError naming M for input that is not a finite real 4x4 matrix.
    """
    A, E = _integer_matrix(M)
    C = [1, -sum(A[i][i] for i in range(4))]
    B = A
    for k in (2, 3, 4):
        shifted = [row[:] for row in B]
        for i in range(4):
            shifted[i][i] += C[-1]
        cols = list(zip(*shifted))
        if k < 4:
            B = [[sum(map(operator.mul, row, col)) for col in cols] for row in A]
            trace = sum(B[i][i] for i in range(4))
        else:  # only the trace of A (B_3 + C_3 I) is needed
            trace = sum(sum(map(operator.mul, row, col)) for row, col in zip(A, cols))
        C.append(-trace // k)  # exact: C_k is an integer
    return [Fraction(c, 1 << (k * E)) for k, c in enumerate(C)]


def _poly_eval(coeffs, z):
    v = coeffs[0]
    for c in coeffs[1:]:
        v = v * z + c
    return v


def _durand_kerner(cs, roots, one, tol, max_iter):
    """Simultaneous iteration on the monic coefficients cs from the start
    roots, in the arithmetic of cs and one (the unit of that arithmetic).
    Returns (roots, converged)."""
    n = len(roots)
    for _ in range(max_iter):
        max_upd = 0.0
        new = []
        for i in range(n):
            den = one
            for j in range(n):
                if j != i:
                    den *= roots[i] - roots[j]
            upd = _poly_eval(cs, roots[i]) / den
            new.append(roots[i] - upd)
            max_upd = max(max_upd, abs(upd) / (1.0 + abs(roots[i])))
        roots = new
        if max_upd < tol:
            return roots, True
    return roots, False


def _durand_kerner_mp(coeffs, max_iter=600):
    """High-precision iteration on exact rational coefficients; used when
    the float64 path stalls on clustered roots."""
    import mpmath as mp

    with mp.workdps(60):
        cs = [mp.mpf(c.numerator) / mp.mpf(c.denominator) for c in coeffs]
        radius = 1 + max(abs(c) for c in cs[1:])
        base = mp.mpc(0.4, 0.9)
        roots = [radius ** (mp.mpf(1) / (len(cs) - 1)) * base ** k for k in range(1, len(cs))]
        roots, _ = _durand_kerner(cs, roots, mp.mpc(1), mp.mpf("1e-15"), max_iter)
        return [complex(r) for r in roots]


def _roots_clustered(roots) -> bool:
    scale = 1.0 + max(abs(r) for r in roots)
    for i in range(len(roots)):
        for j in range(i + 1, len(roots)):
            if abs(roots[i] - roots[j]) < 1e-3 * scale:
                return True
    return False


def eigvals_numeric(M, tol: float = 1e-12, max_iter: int = 200) -> Spectrum:
    """Spectrum of a 4x4 matrix via characteristic-polynomial roots.

    Raises ValueError naming M, before any arithmetic, unless M is a
    finite real 4x4 matrix.  Exact zero eigenvalues are the exact
    coefficients' k trailing zeros; they are returned as exact zeros and the
    iteration runs on the degree-(4 - k) quotient.  Raises RootFindingError
    carrying the last residual if neither the float64 nor the high-precision
    iteration converges.
    """
    exact = characteristic_coeffs(M)
    n = 4
    while n and exact[n] == 0:
        n -= 1
    if not n:
        return _sorted_spectrum([0j] * 4)
    exact = exact[:n + 1]
    cs64 = [float(c) for c in exact]
    radius = 1.0 + max(abs(c) for c in cs64[1:])
    start = [radius ** (1.0 / n) * complex(0.4, 0.9) ** k for k in range(1, n + 1)]
    roots, converged = _durand_kerner(list(map(complex, cs64)), start, 1.0 + 0.0j, tol, max_iter)
    if not converged or _roots_clustered(roots):
        roots = _durand_kerner_mp(exact, max_iter=3 * max_iter)
    # Backward-error residual: |p(root)| relative to sum |c_k| |root|^k.
    worst = 0.0
    for root in roots:
        scale = sum(abs(c) * abs(root) ** (n - k) for k, c in enumerate(cs64))
        worst = max(worst, abs(_poly_eval(cs64, root)) / max(scale, 1e-300))
    if worst > 1e-10:
        raise RootFindingError("characteristic polynomial roots did not converge", worst)
    return _sorted_spectrum(roots + [0j] * (4 - n))
