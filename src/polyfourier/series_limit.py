"""Cosine-series coefficients of the three azimuthal kernels, by closed form.

For chi = cosh eta > 1 and psi the azimuth difference:

* (chi - cos psi)^p       -- a finite series, n = 0..p,
* (chi - cos psi)^{-q}    -- an infinite series with e^{-n eta} decay,
* (chi - cos psi)^p log(chi - cos psi) -- obtained from the power series by
  differentiating with respect to the exponent at the integer p, which turns
  the Legendre degree/order derivatives into finite combinations of Legendre
  evaluations at shifted integer parameters plus one explicit tail family.

Every rational weight is accumulated as a Fraction and rounded once by the
evaluation point; Legendre factors are evaluated in the eta-stable forms.  The
band, tail and inverse-power closed forms take that point as an argument, so
the identity suite evaluates this same code at the exact point.  Tail terms n >= p+1 combine
(n-p-1)!/n!, e^{-n eta} and the positive Gauss sum so that nothing overflows
for large n eta.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .legendre import (
    LegendreArg,
    _degree_sum_neg_order,
    _degree_sum_same_order,
    _legendre,
    _neg_order_sum,
    legendre_p,
)
from .scalars import eta_from_chi, harmonic, neumann, pochhammer
from .tables import FourierCoeffTable, default_nmax

__all__ = [
    "power_coefficient",
    "power_series",
    "inverse_power_series",
    "log_series_limit",
    "log_tail_coefficient",
]

_LOG2 = math.log(2.0)


def _coth(eta: float) -> float:
    return 1.0 / math.tanh(eta)


def power_coefficient(p: int, n: int, eta: float) -> float:
    """Coefficient of cos(n psi) in (cosh eta - cos psi)^p, 0 <= n <= p:
    eps_n (-p)_n (p-n)!/(p+n)! sinh^p(eta) P_p^n(coth eta)."""
    if not 0 <= n <= p:
        raise ValueError("power_coefficient needs 0 <= n <= p")
    w = Fraction(neumann(n) * pochhammer(-p, n) * math.factorial(p - n), math.factorial(p + n))
    return float(w) * math.sinh(eta) ** p * legendre_p(p, n, _coth(eta), eta=eta)


def power_series(p: int, chi: float) -> FourierCoeffTable:
    """Full (finite) cosine series of (chi - cos psi)^p."""
    if p < 0:
        raise ValueError("power_series needs p >= 0")
    eta = eta_from_chi(chi)
    coeffs = tuple(power_coefficient(p, n, eta) for n in range(p + 1))
    return FourierCoeffTable("power", p, chi, eta, "closed_form", coeffs)


def _inverse_coefficient(pt, q: int, n: int):
    # eps_n (n+q-1)!/((q-1)! n!) e^{-n eta} S_{q-1,n}(z) / sinh^q(eta)
    w = neumann(n) * math.comb(n + q - 1, q - 1)
    return w * pt.exp(-n) * pt.cached(_neg_order_sum, q - 1, n) / pt.sinh_pow(q)


def inverse_power_series(
    q: int, chi: float, nmax: int | None = None, tail_tol: float = 1e-10
) -> FourierCoeffTable:
    """Cosine series of (chi - cos psi)^{-q} for integer q >= 1."""
    if q < 1:
        raise ValueError("inverse_power_series needs q >= 1")
    eta = eta_from_chi(chi)
    if nmax is None:
        nmax = default_nmax(q, eta, tail_tol)
    if nmax < 0:
        raise ValueError("nmax must be >= 0")
    pt = LegendreArg.from_eta(eta)
    coeffs = tuple(_inverse_coefficient(pt, q, n) for n in range(nmax + 1))
    return FourierCoeffTable("inverse_power", q, chi, eta, "closed_form", coeffs)


def _log_tail_coefficient(pt, p: int, n: int):
    if n < p + 1:
        raise ValueError("log_tail_coefficient needs n >= p+1")
    w = Fraction(2 * (-1) ** (p + 1) * math.factorial(p), math.prod(range(n - p, n + 1)))
    return pt.weight(w) * pt.sinh_pow(p) * pt.exp(-n) * pt.cached(_neg_order_sum, p, n)


def log_tail_coefficient(p: int, n: int, eta: float) -> float:
    """Tail entry (n >= p+1) of the log-kernel series:
    2 (-1)^{p+1} p! (n-p-1)! sinh^p(eta) P_p^{-n}(coth eta); the factorial
    ratio and the e^{-n eta} inside P_p^{-n} are folded analytically."""
    return _log_tail_coefficient(LegendreArg.from_eta(eta), p, n)


def _log_band_coefficient(pt, p: int, n: int):
    """Non-tail entry (0 <= n <= p), without the (eta - log 2) power term."""
    sph = pt.sinh_pow(p)
    fp = math.factorial(p)
    # degree-digamma block: 2 psi(2p+1) - psi(p+1+n) - psi(p+1-n), exact
    dig = 2 * harmonic(2 * p) - harmonic(p + n) - harmonic(p - n)
    w = Fraction((-1) ** n * neumann(n) * fp, math.factorial(p + n)) * dig
    terms = [pt.weight(w) * sph * pt.cached(_legendre, p, n)]
    if n <= p - 1:
        w = Fraction((-1) ** p * neumann(n) * fp, math.factorial(p + n))
        terms.append(pt.weight(w) * sph * _degree_sum_same_order(pt, p, n))
    if n >= 1:
        w = Fraction(2 * (-1) ** (p + n) * fp, math.factorial(p - n))
        terms.append(pt.weight(w) * sph * _degree_sum_neg_order(pt, p, n))
    return pt.total(terms)


def log_series_limit(
    p: int, chi: float, nmax: int | None = None, tail_tol: float = 1e-10
) -> FourierCoeffTable:
    """Cosine series of (chi - cos psi)^p log(chi - cos psi), exponent-derivative route."""
    if p < 0:
        raise ValueError("log_series_limit needs p >= 0")
    eta = eta_from_chi(chi)
    if nmax is None:
        nmax = default_nmax(p, eta, tail_tol)
    if nmax < p + 1:
        raise ValueError("log series needs nmax >= p+1")
    pt = LegendreArg.from_eta(eta)
    coeffs = []
    for n in range(nmax + 1):
        if n <= p:
            c = (eta - _LOG2) * power_coefficient(p, n, eta) + _log_band_coefficient(pt, p, n)
        else:
            c = _log_tail_coefficient(pt, p, n)
        coeffs.append(c)
    return FourierCoeffTable("log", p, chi, eta, "limit", tuple(coeffs))
