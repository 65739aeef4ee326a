"""Logarithmic polynomial family R_p^k.

R_p^k is the polynomial weight attached to the k-shifted log series in the
expansion of (x - cos psi)^p log(x - cos psi).  The family is determined by

    R_0^0 = 1,
    R_p^k = 1/2 R_{p-1}^{k-1} + x R_{p-1}^k + 1/2 R_{p-1}^{k+1},

with R_p^k = 0 for |k| > p.  This module builds the family by that
recurrence, row by row, and evaluates it in double precision or exactly.
Two independent constructions (a difference scheme in the diagonal variables
and multinomial extraction from the generating function) live in validation
as reference constructions; the tests require exact agreement with them.

All coefficients are exact rationals.  Symmetry R_p^k = R_p^{-k} and degree
p - |k| hold by construction and are asserted in tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

__all__ = [
    "LogPolynomial",
    "horner",
    "logpoly_recurrence",
    "logpoly_eval",
]

_HALF = Fraction(1, 2)


def horner(coeffs, x, weight):
    """sum_i coeffs[i] x^i by Horner's rule, each coefficient cast by weight
    (float for a double-precision value, Fraction for an exact one)."""
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


def _shift_add(dst: list[Fraction], src: tuple[Fraction, ...], shift: int, w: Fraction):
    for i, c in enumerate(src):
        dst[i + shift] += w * c


@lru_cache(maxsize=None)
def _recurrence_row(p: int) -> tuple[tuple[Fraction, ...], ...]:
    """Coefficient tuples for k = 0..p at level p, built from level p-1."""
    if p == 0:
        return ((Fraction(1),),)
    prev = _recurrence_row(p - 1)

    def prev_k(k: int) -> tuple[Fraction, ...]:
        k = abs(k)
        return prev[k] if k <= p - 1 else ()

    rows = []
    for k in range(p + 1):
        out = [Fraction(0)] * (p - k + 1)
        _shift_add(out, prev_k(k - 1), 0, _HALF)
        _shift_add(out, prev_k(k), 1, Fraction(1))
        _shift_add(out, prev_k(k + 1), 0, _HALF)
        rows.append(tuple(out))
    return tuple(rows)


@lru_cache(maxsize=None)
def logpoly_recurrence(p: int, k: int) -> LogPolynomial:
    """R_p^k via the three-term recurrence; each (p, k) is built once (the
    polynomial is frozen, so callers share it)."""
    if p < 0 or abs(k) > p:
        raise ValueError("logpoly_recurrence needs p >= 0 and |k| <= p")
    return LogPolynomial(p, k, _recurrence_row(p)[abs(k)])


def logpoly_eval(poly: LogPolynomial, x: float) -> float:
    """Horner evaluation of the exact coefficients in double precision."""
    return horner(poly.coeffs, x, float)
