import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moogvcf import spectral
from moogvcf.model import linearized_matrix, make_params
from moogvcf.spectral import (
    RootFindingError,
    characteristic_coeffs,
    eigvals_closed_form,
    eigvals_numeric,
)


def test_closed_form_r0_all_equal():
    spec = eigvals_closed_form(make_params(1.0, 0.0))
    assert np.allclose(spec.eigenvalues, -1.0)
    assert spec.max_real_part == -1.0


def test_closed_form_r1_against_quartic_oracle():
    # (lambda + 1)^4 + 4 = 0 solved by numpy's companion-matrix roots
    oracle = np.roots([1.0, 4.0, 6.0, 4.0, 5.0])
    spec = eigvals_closed_form(make_params(1.0, 1.0))
    got = sorted(spec.eigenvalues, key=lambda z: (round(z.real, 9), z.imag))
    want = sorted(oracle, key=lambda z: (round(z.real, 9), z.imag))
    assert np.abs(np.array(got) - np.array(want)).max() < 1e-10


def test_closed_form_r1_exact_boundary():
    spec = eigvals_closed_form(make_params(1.0, 1.0))
    assert spec.max_real_part == 0.0
    want = {(0.0, 1.0), (0.0, -1.0), (-2.0, 1.0), (-2.0, -1.0)}
    got = {(round(z.real, 12), round(z.imag, 12)) for z in spec.eigenvalues}
    assert got == want


def test_max_real_part_consistent_with_eigenvalues():
    for r in (0.0, 0.3, 1.0):
        for omega0 in (0.1, 1.0, 42.0):
            spec = eigvals_closed_form(make_params(omega0, r))
            assert spec.max_real_part == spec.eigenvalues.real.max()


def test_numeric_diagonal():
    spec = eigvals_numeric(np.diag([1.0, 2.0, 3.0, 4.0]))
    assert np.abs(np.sort(spec.eigenvalues.real) - [1.0, 2.0, 3.0, 4.0]).max() < 1e-12
    assert np.abs(spec.eigenvalues.imag).max() < 1e-12


@pytest.mark.parametrize("diagonal", [[3.0, 2.0, 1.0, 0.5], [1e-8, 1.0, 1.0, 3.0]])
def test_numeric_positive_real_spectrum_in_ascending_order(diagonal):
    # rounding noise in a positive root's imaginary part must not order it by
    # its noise, or send it to angle 2 pi: it sorts as real, by modulus
    got = eigvals_numeric(np.diag(diagonal)).eigenvalues
    assert np.abs(got - sorted(diagonal)).max() < 1e-12


@pytest.mark.parametrize("M", [
    np.zeros((4, 4)),
    np.diag([0.0, 0.0, 0.0, 1.0]),
    np.diag([0.0, 1.0, 2.0, 3.0]),
    np.diag([1.0, 1.0, 1.0], k=1),  # nilpotent: a quadruple zero
    np.array([[2.0, 1.0, 0.0, 0.0], [1.0, 3.0, 0.0, 0.0], [0.0] * 4, [0.0] * 4]),  # rank 2
], ids=["zero", "diag0001", "diag0123", "nilpotent", "rank2"])
def test_numeric_exact_zero_eigenvalues(M):
    # every exact zero eigenvalue is a trailing zero coefficient, and the
    # relative residual of any nonzero root approximation of it would be 1
    got = np.sort_complex(eigvals_numeric(M).eigenvalues)
    want = np.sort_complex(np.linalg.eigvals(M).astype(complex))
    assert np.abs(got - want).max() <= 1e-12


def test_numeric_rotation_blocks():
    # two uncoupled unit rotations: double pair at +-j
    M = np.array([
        [0.0, -1.0, 0.0, 0.0],
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, -1.0],
        [0.0, 0.0, 1.0, 0.0],
    ])
    spec = eigvals_numeric(M)
    imag_sorted = np.sort(spec.eigenvalues.imag)
    assert np.abs(imag_sorted - [-1.0, -1.0, 1.0, 1.0]).max() < 1e-10
    assert np.abs(spec.eigenvalues.real).max() < 1e-10


def test_numeric_matches_closed_form():
    p = make_params(2.0, 0.5)
    closed = eigvals_closed_form(p)
    numeric = eigvals_numeric(linearized_matrix(p))
    assert np.abs(closed.eigenvalues - numeric.eigenvalues).max() < 1e-10


def test_numeric_conjugate_closure():
    rng = np.random.default_rng(21)
    for _ in range(20):
        M = rng.uniform(-3, 3, size=(4, 4))
        eigs = eigvals_numeric(M).eigenvalues
        conj = np.conj(eigs)
        for z in eigs:
            assert np.abs(conj - z).min() < 1e-9 * (1.0 + abs(z))


def test_grid_agreement_subset():
    for r in np.linspace(0.0, 1.0, 11):
        for omega0 in (0.1, 1.0, 10.0, 100.0):
            p = make_params(omega0, r)
            closed = eigvals_closed_form(p)
            numeric = eigvals_numeric(linearized_matrix(p))
            assert np.abs(closed.eigenvalues - numeric.eigenvalues).max() < 1e-10
            assert closed.max_real_part <= 0.0


def test_characteristic_polynomial_identity():
    # det(A - lambda I) = (lambda + omega0)^4 + omega0^4 * 4r at the
    # computed eigenvalues, scaled by omega0^4
    for r in np.linspace(0.0, 1.0, 11):
        for omega0 in (0.1, 1.0, 100.0):
            p = make_params(omega0, r)
            for z in eigvals_closed_form(p).eigenvalues:
                val = (z + omega0) ** 4 + omega0 ** 4 * (4.0 * r)
                assert abs(val) / omega0 ** 4 < 1e-8
            for z in eigvals_numeric(linearized_matrix(p)).eigenvalues:
                val = (z + omega0) ** 4 + omega0 ** 4 * (4.0 * r)
                assert abs(val) / omega0 ** 4 < 1e-8


def test_characteristic_coeffs_exact():
    coeffs = characteristic_coeffs(linearized_matrix(make_params(1.0, 0.0)))
    assert coeffs == [Fraction(1), Fraction(4), Fraction(6), Fraction(4), Fraction(1)]


def test_stability_margin_values():
    # the distance of the rightmost eigenvalue from the imaginary axis,
    # omega0 * (1 - r^(1/4))
    assert -eigvals_closed_form(make_params(1.0, 1.0)).max_real_part == 0.0
    assert -eigvals_closed_form(make_params(3.0, 0.0)).max_real_part == 3.0
    assert -eigvals_closed_form(make_params(1.0, 1.0 / 16.0)).max_real_part == pytest.approx(
        0.5, rel=1e-15)


def test_stability_margin_nonnegative():
    for r in np.linspace(0.0, 1.0, 101):
        assert eigvals_closed_form(make_params(7.0, r)).max_real_part <= 0.0


def test_margin_agrees_with_closed_form():
    for r in (0.0, 0.2, 0.77, 1.0):
        p = make_params(2.5, r)
        assert -eigvals_closed_form(p).max_real_part == p.omega0 * (1.0 - p.r ** 0.25)


def test_root_finding_error_carries_residual():
    M = linearized_matrix(make_params(1.0, 0.5))
    with pytest.raises(RootFindingError) as exc:
        eigvals_numeric(M, max_iter=1)
    assert exc.value.residual > 0.0


def _reference_coeffs(M):
    """Faddeev-LeVerrier over Fraction entries: the exact rational
    characteristic coefficients, computed the direct way."""
    F = [[Fraction(float(M[i][j])) for j in range(4)] for i in range(4)]
    coeffs = [Fraction(1)]
    Mk = [[Fraction(0)] * 4 for _ in range(4)]
    for k in range(1, 5):
        shifted = [[Mk[i][j] + (coeffs[-1] if i == j else 0) for j in range(4)]
                   for i in range(4)]
        Mk = [[sum(F[i][m] * shifted[m][j] for m in range(4)) for j in range(4)]
              for i in range(4)]
        coeffs.append(-sum(Mk[i][i] for i in range(4)) / k)
    return coeffs


# The whole finite float range: signed zeros, subnormals, the extremes, and
# entries of unrelated exponents in one matrix.
_any_finite = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     1.7976931348623157e308, -1e308, 1e-200, 1e100, 1.0, -0.1]),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_any_finite, min_size=16, max_size=16))
def test_characteristic_coeffs_match_fraction_reference(entries):
    M = np.array(entries).reshape(4, 4)
    got = characteristic_coeffs(M)
    assert all(type(c) is Fraction for c in got)
    assert got == _reference_coeffs(M)


def _bytes(spec):
    return spec.eigenvalues.tobytes(), repr(spec.max_real_part)


def _spectrum_cases():
    r_grid = np.linspace(0.0, 1.0, 21)  # criterion 1's grid
    omega_grid = np.linspace(0.1, 100.0, 21)
    cases = [linearized_matrix(make_params(omega_grid[0], r_grid[0]))]  # mpmath path
    for r in r_grid[[7, 14, 20]]:
        for omega0 in omega_grid[[0, 10, 20]]:
            cases.append(linearized_matrix(make_params(omega0, r)))
    cases.append(np.diag([1.0, 2.0, 3.0, 4.0]))
    cases.append(np.array([
        [0.0, -1.0, 0.0, 0.0],
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, -1.0],
        [0.0, 0.0, 1.0, 0.0],
    ]))
    rng = np.random.default_rng(55)
    cases.extend(rng.uniform(-3, 3, size=(4, 4)) for _ in range(20))
    return cases


def test_numeric_spectra_bytewise_equal_to_fraction_reference(monkeypatch):
    cases = _spectrum_cases()
    got = [_bytes(eigvals_numeric(M)) for M in cases]
    monkeypatch.setattr(spectral, "characteristic_coeffs", _reference_coeffs)
    want = [_bytes(eigvals_numeric(M)) for M in cases]
    assert got == want


def test_characteristic_coeffs_fraction_work(monkeypatch):
    # The recursion runs on integers; each coefficient becomes a Fraction
    # once, at the end.
    built = []

    def counted(*args):
        built.append(args)
        return Fraction(*args)

    monkeypatch.setattr(spectral, "Fraction", counted)
    M = linearized_matrix(make_params(3.7, 0.45))
    coeffs = characteristic_coeffs(M)
    assert len(built) <= 5
    assert coeffs == _reference_coeffs(M)


@pytest.mark.parametrize("M", [
    np.eye(3),
    np.zeros((4, 5)),
    [[1.0, 2.0, 3.0, 4.0]] * 3 + [[1.0, 2.0]],
    np.diag([1.0, math.inf, 2.0, 3.0]),
    np.diag([1.0, 2.0, -math.inf, 3.0]),
    np.diag([1.0, 2.0, 3.0, math.nan]),
    np.eye(4) * 1j,
], ids=["3x3", "4x5", "ragged", "inf", "-inf", "nan", "complex"])
def test_eigvals_numeric_rejects_bad_matrix(M):
    with pytest.raises(ValueError, match=r"\bM\b"):
        characteristic_coeffs(M)
    with pytest.raises(ValueError, match=r"\bM\b"):
        eigvals_numeric(M)
