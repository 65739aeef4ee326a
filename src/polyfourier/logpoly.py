"""Logarithmic polynomial family R_p^k.

R_p^k is the polynomial weight attached to the k-shifted log series in the
expansion of (x - cos psi)^p log(x - cos psi).  The family is determined by

    R_0^0 = 1,
    R_p^k = 1/2 R_{p-1}^{k-1} + x R_{p-1}^k + 1/2 R_{p-1}^{k+1},

with R_p^k = 0 for |k| > p.  This module builds the family by that
recurrence, level by level in one loop over the integer numerators
2^p R_p^k, returns it as exact rationals, and evaluates it in double
precision or exactly.
Two independent constructions (a difference scheme in the diagonal variables
and multinomial extraction from the generating function) live in validation
as reference constructions; the tests require exact agreement with them.

All coefficients are exact rationals.  Symmetry R_p^k = R_p^{-k} and degree
p - |k| hold by construction and are asserted in tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

__all__ = [
    "LogPolynomial",
    "horner",
    "logpoly_recurrence",
    "logpoly_eval",
]


def _nearest_float(c) -> float:
    """The int or Fraction c rounded to the nearest float by one integer true
    division, correctly rounded: the operation float(Fraction) performs
    (numbers.Rational.__float__), so the same bits and the same
    OverflowError, without its ABC dispatch and two int() calls."""
    return c.numerator / c.denominator


def horner(coeffs, x, weight):
    """sum_i coeffs[i] x^i by Horner's rule, each coefficient cast by weight
    (Fraction for an exact value, the point's weight for a float one, float
    for coefficients that are floats already, as logpoly_eval's are)."""
    acc = weight(0)
    for c in reversed(coeffs):
        acc = acc * x + weight(c)
    return acc


@dataclass(frozen=True)
class LogPolynomial:
    """R_p^k with exact monomial coefficients, coeffs[i] multiplying x^i."""

    p: int
    k: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        if self.p < 0 or abs(self.k) > self.p:
            raise ValueError("LogPolynomial needs p >= 0 and |k| <= p")
        if len(self.coeffs) != self.degree + 1:
            raise ValueError("coefficient list must have length p - |k| + 1")
        if self.coeffs[-1] == 0:
            raise ValueError("leading coefficient must be nonzero")

    @property
    def degree(self) -> int:
        return self.p - abs(self.k)

    def eval_exact(self, x: Fraction) -> Fraction:
        return horner(self.coeffs, x, Fraction)

    def derivative_coeffs(self) -> tuple[Fraction, ...]:
        return tuple(i * c for i, c in enumerate(self.coeffs) if i > 0)

    @cached_property
    def _float_coeffs(self) -> tuple[float, ...]:
        """coeffs each rounded to the nearest float, once per polynomial."""
        return tuple(map(_nearest_float, self.coeffs))


@lru_cache(maxsize=None)
def _recurrence_row(p: int) -> tuple[tuple[Fraction, ...], ...]:
    """Coefficient tuples for k = 0..p at level p.  The numerators
    N_m^k = 2^m R_m^k keep the recurrence's 1/2, x, 1/2 weights integral,
    N_m^k = N_{m-1}^{k-1} + 2x N_{m-1}^k + N_{m-1}^{k+1} with N^{-1} = N^1,
    so the levels are built in integers in one loop and divided by 2^p once."""
    num = [[1]]
    for m in range(1, p + 1):
        nxt = []
        for k in range(m + 1):
            out = [0] * (m - k + 1)
            for j in (abs(k - 1), k + 1):
                if j < m:
                    for i, c in enumerate(num[j]):
                        out[i] += c
            if k < m:
                for i, c in enumerate(num[k]):
                    out[i + 1] += 2 * c
            nxt.append(out)
        num = nxt
    den = 2**p
    return tuple(tuple(Fraction(c, den) for c in row) for row in num)


@lru_cache(maxsize=None)
def logpoly_recurrence(p: int, k: int) -> LogPolynomial:
    """R_p^k via the three-term recurrence; each (p, k) is built once (the
    polynomial is frozen, so callers share it)."""
    if p < 0 or abs(k) > p:
        raise ValueError("logpoly_recurrence needs p >= 0 and |k| <= p")
    return LogPolynomial(p, k, _recurrence_row(p)[abs(k)])


def logpoly_eval(poly: LogPolynomial, x: float) -> float:
    """Horner evaluation of the exact coefficients in double precision,
    horner(poly.coeffs, x, float) bit for bit, over the coefficients the
    polynomial rounded once rather than on every call."""
    return horner(poly._float_coeffs, x, float)
