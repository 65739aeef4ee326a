"""Exact scalar helpers: harmonic numbers, beta constant, chi <-> eta map."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from polyfourier import (
    beta_pd,
    digamma_diff,
    eta_from_chi,
    harmonic,
    neumann,
    pochhammer,
)


def test_harmonic_values():
    assert harmonic(0) == 0
    assert harmonic(1) == 1
    assert harmonic(4) == Fraction(25, 12)
    assert isinstance(harmonic(7), Fraction)


def test_harmonic_rejects_negative():
    with pytest.raises(ValueError):
        harmonic(-1)


@given(st.integers(min_value=0, max_value=400))
def test_harmonic_recurrence(j):
    assert harmonic(j + 1) - harmonic(j) == Fraction(1, j + 1)


def test_digamma_diff_is_harmonic_difference():
    assert digamma_diff(1, 1) == 0
    assert digamma_diff(5, 1) == harmonic(4)
    assert digamma_diff(3, 7) == harmonic(2) - harmonic(6)
    with pytest.raises(ValueError):
        digamma_diff(0, 1)


def test_pochhammer_small_cases():
    assert pochhammer(3, 4) == 3 * 4 * 5 * 6
    assert pochhammer(Fraction(1, 2), 3) == Fraction(15, 8)
    assert pochhammer(7.5, 0) == 1
    with pytest.raises(ValueError):
        pochhammer(1, -1)


@given(st.integers(min_value=0, max_value=12), st.integers(min_value=0, max_value=20))
def test_pochhammer_negative_integer_terminates(p, n):
    # (-p)_n vanishes exactly once n exceeds p; this is what truncates the
    # positive-power cosine series at n = p.
    value = pochhammer(-p, n)
    if n > p:
        assert value == 0
    else:
        assert value == (-1) ** n * math.factorial(p) // math.factorial(p - n)


def test_beta_pd_reference_values():
    assert beta_pd(0, 2) == 0
    assert beta_pd(0, 8) == 0
    assert beta_pd(1, 2) == 1
    assert beta_pd(1, 4) == Fraction(3, 4)
    assert beta_pd(2, 2) == Fraction(3, 2)


def test_beta_pd_rejects_odd_or_small_dimension():
    for bad in (1, 3, 0, -2):
        with pytest.raises(ValueError):
            beta_pd(1, bad)
    with pytest.raises(ValueError):
        beta_pd(-1, 2)


@given(st.integers(min_value=0, max_value=30), st.integers(min_value=1, max_value=15))
def test_beta_pd_halved_harmonic_combination(p, half_d):
    d = 2 * half_d
    expected = (harmonic(p) + harmonic(half_d + p - 1) - harmonic(half_d - 1)) / 2
    assert beta_pd(p, d) == expected


def test_eta_from_chi_rejects_boundary():
    for bad in (1.0, 0.5, -3.0):
        with pytest.raises(ValueError):
            eta_from_chi(bad)


def test_eta_from_chi_closed_value():
    assert eta_from_chi(2.0) == pytest.approx(math.log(2.0 + math.sqrt(3.0)), rel=1e-15)


@given(st.floats(min_value=math.log(1e-8), max_value=math.log(1e8)))
def test_chi_eta_round_trip(log_gap):
    # chi -> eta -> cosh round trip.  Near chi = 1 the log1p form keeps full
    # accuracy; for large chi the error grows like eta ulps because cosh
    # amplifies eta's absolute error by sinh, so a flat few-ulp bound is not
    # attainable in either direction.
    chi = min(1.0 + math.exp(log_gap), 1e8)
    eta = eta_from_chi(chi)
    err = abs(math.cosh(eta) - chi)
    assert err <= max(4.0, 2.0 * eta) * math.ulp(chi)


@given(st.floats(min_value=1e-6, max_value=30.0))
def test_eta_chi_round_trip(eta):
    # cosh then invert.  The only error sources are the rounding of cosh
    # itself, amplified by the inverse slope 1/sinh, and a few roundings
    # inside the log1p form; both are budgeted explicitly below.
    chi = math.cosh(eta)
    back = eta_from_chi(chi)
    tol = 4.0 * math.ulp(max(eta, 1.0)) + 2.0 * math.ulp(chi) / math.sinh(eta)
    assert abs(back - eta) <= tol


def test_neumann_weights():
    assert neumann(0) == 1
    assert all(neumann(n) == 2 for n in range(1, 6))


def test_eta_from_chi_rejects_non_finite():
    # inf passes chi > 1, and would become nan coefficients downstream
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError):
            eta_from_chi(bad)
