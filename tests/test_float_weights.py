"""The float point rounds every exact weight by one integer true division.

LegendreArg.weight and the float coefficients each LogPolynomial rounds once
for logpoly_eval, both logpoly._nearest_float, replace float() of an int or
a Fraction on the table-building path.  These tests pin that the
replacement gives float()'s bits, and its OverflowError, that every series
route builds the same tables bit for bit as with float(), and that the
generic float(Fraction) stays off the hot path."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings, strategies as st

from polyfourier import legendre
from polyfourier.legendre import LegendreArg, _nearest_float
from polyfourier.logpoly import horner, logpoly_eval, logpoly_recurrence
from polyfourier.series_algebraic import log_series_algebraic
from polyfourier.series_limit import inverse_power_series, log_series_limit, power_series

BIG = 2**1200  # parts well past 2^1100, where float() of the part overflows

_ints = st.integers(min_value=-BIG, max_value=BIG)
_fractions = st.one_of(
    st.builds(Fraction, _ints, st.integers(min_value=1, max_value=BIG)),
    # results at and below the normal range: subnormal, or rounded to 0
    st.builds(Fraction, st.integers(min_value=-(2**40), max_value=2**40),
              st.integers(min_value=1060, max_value=1120).map(lambda e: 2**e)),
    # results near the top of the range, and past it
    st.builds(Fraction, st.integers(min_value=2**1020, max_value=2**1030).map(
        lambda n: n * 3), st.integers(min_value=1, max_value=7)),
)


def _cast(fn, c):
    try:
        return fn(c).hex()  # hex tells -0.0 from 0.0
    except OverflowError:
        return OverflowError


@seed(2001)
@settings(max_examples=400, deadline=None, database=None)
@given(st.one_of(_ints, _fractions))
def test_nearest_float_is_float_bit_for_bit(c):
    assert _cast(_nearest_float, c) == _cast(float, c)


def test_nearest_float_edge_values():
    for c in (0, Fraction(0), -1, Fraction(-1, 3), 2**1024, -(2**1024), Fraction(2**1100, 3),
              Fraction(1, 2**1074), Fraction(1, 2**1075), Fraction(3, 2**1076),
              Fraction(-(2**1100), 2**1100 + 1), 2**53 + 1, Fraction(2**1024 - 2**970, 1)):
        assert _cast(_nearest_float, c) == _cast(float, c)
    with pytest.raises(OverflowError):
        _nearest_float(Fraction(2**1100, 3))
    assert LegendreArg.weight is _nearest_float


@seed(2002)
@settings(max_examples=300, deadline=None, database=None)
@given(st.integers(min_value=0, max_value=12).flatmap(
           lambda p: st.tuples(st.just(p), st.integers(min_value=-p, max_value=p))),
       st.one_of(st.floats(min_value=math.cosh(0.2), max_value=1e20),
                 st.floats(min_value=math.log(math.cosh(0.2)), max_value=math.log(1e20))
                 .map(math.exp).filter(lambda x: math.cosh(0.2) <= x <= 1e20)))
def test_logpoly_eval_is_horner_with_float(pk, x):
    poly = logpoly_recurrence(*pk)
    assert logpoly_eval(poly, x).hex() == horner(poly.coeffs, x, float).hex()


_ETAS = (0.2, 0.45, 0.7, 1.3, 2.9, 5.0, 40.0)


def _tables():
    """Every series route called directly, so no held table stands in."""
    out = []
    for eta in _ETAS:
        chi = math.cosh(eta)
        for p in range(11):
            out += [log_series_algebraic(p, chi).coeffs, log_series_limit(p, chi).coeffs,
                    power_series(p, chi).coeffs]
            if p:
                out.append(inverse_power_series(p, chi).coeffs)
    return [[c.hex() for c in t] for t in out]


def test_tables_match_the_float_cast_bit_for_bit(monkeypatch):
    now = _tables()
    monkeypatch.setattr(LegendreArg, "weight", staticmethod(float))
    monkeypatch.setattr(legendre, "logpoly_eval", lambda poly, x: horner(poly.coeffs, x, float))
    assert _tables() == now


def test_log_routes_never_call_float_of_a_fraction(monkeypatch):
    def refuse(self):
        raise AssertionError("float(Fraction) on the table-building path")

    monkeypatch.setattr(Fraction, "__float__", refuse)
    chi = math.cosh(0.2)
    assert log_series_algebraic(10, chi).nmax > 10
    assert log_series_limit(10, chi).nmax > 10
    with pytest.raises(AssertionError):
        float(Fraction(1, 3))
