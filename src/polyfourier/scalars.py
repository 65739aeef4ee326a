"""Exact scalar kernels: harmonic numbers, digamma differences, Pochhammer
symbols, the logarithmic-branch constant beta_{p,d}, and the chi <-> eta map."""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

__all__ = [
    "harmonic",
    "digamma_diff",
    "pochhammer",
    "beta_pd",
    "eta_from_chi",
    "neumann",
]


@lru_cache(maxsize=None)
def harmonic(j: int) -> Fraction:
    """j-th harmonic number sum_{i=1}^{j} 1/i as an exact rational; H_0 = 0."""
    if j < 0:
        raise ValueError("harmonic number needs j >= 0")
    if j == 0:
        return Fraction(0)
    return harmonic(j - 1) + Fraction(1, j)


def digamma_diff(a: int, b: int) -> Fraction:
    """psi(a) - psi(b) for positive integers, i.e. H_{a-1} - H_{b-1}."""
    if a < 1 or b < 1:
        raise ValueError("digamma_diff needs positive integer arguments")
    return harmonic(a - 1) - harmonic(b - 1)


def pochhammer(z, n: int):
    """Rising factorial (z)_n = z (z+1) ... (z+n-1); (z)_0 = 1.

    Works for int, float or Fraction z and preserves exactness for exact input.
    """
    if n < 0:
        raise ValueError("pochhammer needs n >= 0")
    out = z * 0 + 1
    for i in range(n):
        out *= z + i
    return out


def beta_pd(p: int, d: int) -> Fraction:
    """Additive constant attached to the logarithm in the even-dimensional
    logarithmic branch: (1/2) [H_p + H_{d/2+p-1} - H_{d/2-1}]."""
    if d < 2 or d % 2:
        raise ValueError("beta_pd is defined for even d >= 2")
    if p < 0:
        raise ValueError("beta_pd needs p >= 0")
    h = d // 2
    return (harmonic(p) + harmonic(h + p - 1) - harmonic(h - 1)) / 2


def eta_from_chi(chi: float) -> float:
    """Inverse of cosh on (1, inf), eta = log(chi + sqrt(chi^2 - 1)).

    Written against chi - 1 so that accuracy is kept near chi = 1, where the
    direct form loses half the digits of the small result.  Every series
    route and Geometry.eta take eta from here, so a chi that is not a finite
    number above 1 (nan, inf) is refused once, before it can turn into nan
    coefficients.
    """
    if not (chi > 1.0 and math.isfinite(chi)):
        raise ValueError("eta_from_chi needs a finite chi > 1")
    u = chi - 1.0
    return math.log1p(u + math.sqrt(u * (chi + 1.0)))


def neumann(n: int) -> int:
    """Cosine-series weight eps_n: 1 for n = 0, else 2."""
    return 1 if n == 0 else 2

