"""Logarithmic polynomial family R_p^k: the recurrence against the two
reference constructions in validation, closed-form rows, diagonal patterns,
and the derivative ladder.

All coefficients are exact rationals, so every equality here is exact."""

import math
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from polyfourier import LogPolynomial, logpoly_recurrence
from polyfourier.logpoly import logpoly_eval
from polyfourier.validation import logpoly_difference_algorithm, logpoly_from_genfun

F = Fraction


def coeffs(p, k):
    return logpoly_recurrence(p, k).coeffs


def test_low_order_table():
    # Rows p <= 3 written out in full, ascending powers of x.
    assert coeffs(0, 0) == (F(1),)
    assert coeffs(1, 0) == (F(0), F(1))
    assert coeffs(1, 1) == (F(1, 2),)
    assert coeffs(2, 0) == (F(1, 2), F(0), F(1))
    assert coeffs(2, 1) == (F(0), F(1))
    assert coeffs(2, 2) == (F(1, 4),)
    assert coeffs(3, 0) == (F(0), F(3, 2), F(0), F(1))
    assert coeffs(3, 1) == (F(3, 8), F(0), F(3, 2))
    assert coeffs(3, 2) == (F(0), F(3, 4))
    assert coeffs(3, 3) == (F(1, 8),)


def test_symmetry_in_order_index():
    for p in range(7):
        for k in range(p + 1):
            assert coeffs(p, k) == coeffs(p, -k)


def test_degree_and_leading_coefficient():
    # degree p - |k|, leading coefficient p! / ((p-|k|)! |k|! 2^|k|).
    for p in range(9):
        for k in range(-p, p + 1):
            poly = logpoly_recurrence(p, k)
            assert poly.degree == p - abs(k)
            lead = F(
                math.factorial(p),
                math.factorial(p - abs(k)) * math.factorial(abs(k)) * 2 ** abs(k),
            )
            assert poly.coeffs[-1] == lead


def test_diagonal_closed_forms():
    for p in range(1, 13):
        assert coeffs(p, p) == (F(1, 2**p),)
        assert coeffs(p, p - 1) == (F(0), F(p, 2 ** (p - 1)))
        if p >= 2:
            assert coeffs(p, p - 2) == (
                F(p, 2**p),
                F(0),
                F(p * (p - 1), 2 ** (p - 1)),
            )


def test_three_paths_agree():
    # exact equality through p = 24, past the acceptance gate's p <= 12:
    # `polyfourier logpoly` prints the recurrence alone and checks nothing
    for p in range(25):
        by_diff = logpoly_difference_algorithm(p)
        for k in range(-p, p + 1):
            a = logpoly_recurrence(p, k)
            b = by_diff[k]
            c = logpoly_from_genfun(p, k)
            assert a == b == c


@given(st.integers(min_value=0, max_value=10), st.data())
def test_row_sums_are_binomials(p, data):
    # Summing over k with weight y^k and y = +-1 collapses the generating
    # function to (x +- 1)^p.
    k_range = range(-p, p + 1)
    x = data.draw(st.fractions(min_value=-4, max_value=4, max_denominator=16))
    plain = sum(logpoly_recurrence(p, k).eval_exact(x) for k in k_range)
    # (-1)**k returns float for negative k, which would silently leave exact
    # arithmetic; use the parity directly.
    alternating = sum(
        (1 if k % 2 == 0 else -1) * logpoly_recurrence(p, k).eval_exact(x)
        for k in k_range
    )
    assert plain == (x + 1) ** p
    assert alternating == (x - 1) ** p


def test_rows_are_built_without_recursion():
    # one level per stack frame would need ~150 frames; the rows are built in
    # a loop, so a 100-frame limit is enough
    probe = ("import sys; from polyfourier import logpoly_recurrence; "
             "sys.setrecursionlimit(100); print(logpoly_recurrence(150, 0).coeffs[-1])")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         timeout=60)
    assert (out.returncode, out.stdout, out.stderr) == (0, "1\n", "")


def test_derivative_ladder():
    # d/dx R_p^k = p R_{p-1}^k whenever the lower row exists.
    for p in range(1, 13):
        for k in range(-(p - 1), p):
            upper = logpoly_recurrence(p, k)
            lower = logpoly_recurrence(p - 1, k)
            assert upper.derivative_coeffs() == tuple(p * c for c in lower.coeffs)


def test_eval_exact_and_float_agree():
    poly = logpoly_recurrence(3, 1)
    assert poly.eval_exact(F(1, 3)) == F(13, 24)
    assert logpoly_eval(logpoly_recurrence(2, 0), 2.0) == 4.5
    x = 1.7
    assert logpoly_eval(poly, x) == pytest.approx(float(poly.eval_exact(F(x))), rel=1e-15)


def test_out_of_band_order_rejected():
    with pytest.raises(ValueError):
        logpoly_recurrence(2, 3)
    with pytest.raises(ValueError):
        logpoly_from_genfun(1, -2)


def test_constructor_validates_shape():
    with pytest.raises(ValueError):
        LogPolynomial(2, 0, (F(1, 2), F(0)))  # wrong length for degree 2
    with pytest.raises(ValueError):
        LogPolynomial(2, 2, (F(0),))  # leading coefficient must not vanish
    with pytest.raises(ValueError):
        LogPolynomial(1, 2, (F(1),))  # |k| > p


def test_difference_algorithm_covers_full_band():
    table = logpoly_difference_algorithm(5)
    assert sorted(table) == list(range(-5, 6))
