"""Cosine-series coefficients of the three azimuthal kernels, by closed form.

For chi = cosh eta > 1 and psi the azimuth difference:

* (chi - cos psi)^p       -- a finite series, n = 0..p,
* (chi - cos psi)^{-q}    -- an infinite series with e^{-n eta} decay,
* (chi - cos psi)^p log(chi - cos psi) -- obtained from the power series by
  differentiating with respect to the exponent at the integer p, which turns
  the Legendre degree/order derivatives into finite combinations of Legendre
  evaluations at shifted integer parameters plus one explicit tail family.

Every Legendre value is taken at coth eta.  Every route's table, here and in
series_algebraic, is built by one pipeline, _table: eta and N, one
evaluation point from eta (see legendre), then coefficient(pt, param, n).
Every closed form here (power, band, tail and inverse-power coefficient)
takes that point, so the identity suite evaluates this same code at the
exact point.  Every rational weight is accumulated as a Fraction and
rounded once by the point.  The power term (eta - log 2) f_n, which both
log routes add for n <= p, is written once here, as is f_n's weight w_n =
eps_n (-p)_n (p-n)!/(p+n)! (_power_weight).  The band coefficient, f_n's
exponent derivative, weights by w_n its digamma term and the two degree
sums it shares with legendre_deg_deriv (legendre._degree_sums).  Tail
terms n >= p+1 combine (n-p-1)!/n!, e^{-n eta} and the positive Gauss sum
so that nothing overflows for large n eta.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .legendre import LegendreArg, _degree_sums, _legendre, _neg_order_sum
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


def _table(kernel, method, param, chi, coefficient, nmax=None, tail_tol=1e-10, nmin=0):
    """Table of coefficient(pt, param, n), n = 0..N, N = nmax or default_nmax
    and at least nmin.  Every route scales by sinh(eta)^param, whose overflow
    is refused first, by name; any other term out of the float range
    mid-table (an OverflowError, or fsum meeting +inf and -inf) is refused
    as an inf entry, which the table names by kernel, param and chi."""
    eta = eta_from_chi(chi)
    if nmax is None:
        nmax = default_nmax(param, eta, tail_tol)
    if nmax < nmin:
        raise ValueError("log series needs nmax >= p+1" if nmin else "nmax must be >= 0")
    pt = LegendreArg.from_eta(eta)
    pt.sinh_pow(param)
    try:
        coeffs = tuple(coefficient(pt, param, n) for n in range(nmax + 1))
    except (OverflowError, ValueError):
        coeffs = (math.inf,)
    return FourierCoeffTable(kernel, param, chi, eta, method, coeffs)


def _power_weight(p: int, n: int) -> Fraction:
    """w_n = eps_n (-p)_n (p-n)!/(p+n)!, the exact weight of f_n, 0 <= n <= p."""
    return Fraction(neumann(n) * pochhammer(-p, n) * math.factorial(p - n), math.factorial(p + n))


def _power_coefficient(pt, p: int, n: int):
    if not 0 <= n <= p:
        raise ValueError("power_coefficient needs 0 <= n <= p")
    return pt.weight(_power_weight(p, n)) * pt.sinh_pow(p) * pt.cached(_legendre, p, n)


def power_coefficient(p: int, n: int, eta: float) -> float:
    """Coefficient of cos(n psi) in (cosh eta - cos psi)^p, 0 <= n <= p:
    eps_n (-p)_n (p-n)!/(p+n)! sinh^p(eta) P_p^n(coth eta)."""
    return _power_coefficient(LegendreArg.from_eta(eta), p, n)


def _log_power_term(pt: LegendreArg, p: int, n: int) -> float:
    """(eta - log 2) f_n, the power-series term both log routes carry for
    0 <= n <= p; log 2 is irrational, so it exists at the float point only."""
    return (pt.eta - _LOG2) * _power_coefficient(pt, p, n)


def power_series(p: int, chi: float) -> FourierCoeffTable:
    """Full (finite) cosine series of (chi - cos psi)^p."""
    if p < 0:
        raise ValueError("power_series needs p >= 0")
    return _table("power", "closed_form", p, chi, _power_coefficient, p)


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
    return _table("inverse_power", "closed_form", q, chi, _inverse_coefficient, nmax, tail_tol)


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
    """Non-tail entry (0 <= n <= p), without the (eta - log 2) power term:
    the exponent derivative of f_n, w_n sinh^p(eta) times the degree-digamma
    block and the two degree sums of legendre_deg_deriv."""
    sph = pt.sinh_pow(p)
    w = _power_weight(p, n)
    # degree-digamma block: 2 psi(2p+1) - psi(p+1+n) - psi(p+1-n), exact
    dig = 2 * harmonic(2 * p) - harmonic(p + n) - harmonic(p - n)
    head = pt.weight(w * dig) * sph * pt.cached(_legendre, p, n)
    return pt.total([head, *_degree_sums(pt, p, n, w, sph)])


def _log_coefficient(pt, p: int, n: int):
    """Band entry plus the (eta - log 2) power term for n <= p, tail entry past it."""
    if n <= p:
        return _log_power_term(pt, p, n) + _log_band_coefficient(pt, p, n)
    return _log_tail_coefficient(pt, p, n)


def log_series_limit(
    p: int, chi: float, nmax: int | None = None, tail_tol: float = 1e-10
) -> FourierCoeffTable:
    """Cosine series of (chi - cos psi)^p log(chi - cos psi), exponent-derivative route."""
    if p < 0:
        raise ValueError("log_series_limit needs p >= 0")
    return _table("log", "limit", p, chi, _log_coefficient, nmax, tail_tol, p + 1)
