"""Logarithmic polynomial family R_p^k.

R_p^k is the polynomial weight attached to the k-shifted log series in the
expansion of (x - cos psi)^p log(x - cos psi).  The family is determined by

    R_0^0 = 1,
    R_p^k = 1/2 R_{p-1}^{k-1} + x R_{p-1}^k + 1/2 R_{p-1}^{k+1},

with R_p^k = 0 for |k| > p.  Equivalent constructions implemented here:

* the three-term recurrence above (production path),
* a difference scheme in the diagonal variables a_n(p) = R_p^{p-n},
* multinomial extraction from the generating function (x + (y + 1/y)/2)^p,
  which is the reference path.

All coefficients are exact rationals.  Symmetry R_p^k = R_p^{-k} and degree
p - |k| hold by construction and are asserted in tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

__all__ = [
    "LogPolynomial",
    "logpoly_recurrence",
    "logpoly_difference_algorithm",
    "logpoly_from_genfun",
    "logpoly_eval",
]

_HALF = Fraction(1, 2)


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
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

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


def logpoly_difference_algorithm(p: int) -> dict[int, LogPolynomial]:
    """Full level-p table solved as a difference scheme in a_n = R_p^{p-n}.

    Interior update a_n(m) = 1/2 a_n(m-1) + x a_{n-1}(m-1) + 1/2 a_{n-2}(m-1);
    the diagonal entry folds the k-symmetry, a_m(m) = x a_{m-1}(m-1) + a_{m-2}(m-1).
    """
    if p < 0:
        raise ValueError("logpoly_difference_algorithm needs p >= 0")
    # level[n] holds the coefficient tuple of a_n(m) while sweeping m = 0..p
    level: list[tuple[Fraction, ...]] = [(Fraction(1),)]
    for m in range(1, p + 1):
        nxt: list[tuple[Fraction, ...]] = []
        for n in range(m):
            out = [Fraction(0)] * (n + 1)
            _shift_add(out, level[n], 0, _HALF)
            if n >= 1:
                _shift_add(out, level[n - 1], 1, Fraction(1))
            if n >= 2:
                _shift_add(out, level[n - 2], 0, _HALF)
            nxt.append(tuple(out))
        out = [Fraction(0)] * (m + 1)
        _shift_add(out, level[m - 1], 1, Fraction(1))
        if m >= 2:
            _shift_add(out, level[m - 2], 0, Fraction(1))
        nxt.append(tuple(out))
        level = nxt
    table = {}
    for k in range(-p, p + 1):
        table[k] = LogPolynomial(p, k, level[p - abs(k)])
    return table


def logpoly_from_genfun(p: int, k: int) -> LogPolynomial:
    """R_p^k by multinomial extraction of the y^k coefficient of
    (x + (y + 1/y)/2)^p; the reference construction."""
    if p < 0 or abs(k) > p:
        raise ValueError("logpoly_from_genfun needs p >= 0 and |k| <= p")
    coeffs = [Fraction(0)] * (p - abs(k) + 1)
    fp = math.factorial(p)
    for c in range(p + 1):
        b = c + k
        a = p - b - c
        if b < 0 or a < 0:
            continue
        w = Fraction(fp, math.factorial(a) * math.factorial(b) * math.factorial(c))
        coeffs[a] += w / 2 ** (b + c)
    return LogPolynomial(p, k, tuple(coeffs))


def logpoly_eval(poly: LogPolynomial, x: float) -> float:
    """Horner evaluation of the exact coefficients in double precision."""
    acc = 0.0
    for c in reversed(poly.coeffs):
        acc = acc * x + float(c)
    return acc
