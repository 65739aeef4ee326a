"""Cosine-series coefficients of the three azimuthal kernels, by closed form.

For chi = cosh eta > 1 and psi the azimuth difference:

* (chi - cos psi)^p       -- a finite series, n = 0..p,
* (chi - cos psi)^{-q}    -- an infinite series with e^{-n eta} decay,
* (chi - cos psi)^p log(chi - cos psi) -- obtained from the power series by
  differentiating with respect to the exponent at the integer p.

Every Legendre value is taken at coth eta.  Every route's table, here and in
series_algebraic, is built by one pipeline, _table: eta and N, one
evaluation point from eta (see legendre), then coefficient(pt, param, n).
Every closed form here takes that point, so the identity suite proves this
same code at the symbolic point, and every rational weight is rounded once
by the point.  f_n = w_n sinh^p(eta) P_p^n(coth eta), w_n = eps_n (-1)^n
p!/(p+n)! (_power_weight).  Its exponent derivative is w_n sinh^p(eta)
times the degree derivative of P_nu^n at nu = p, plus
(log sinh eta + H_p - H_{p+n}) f_n; as log((z+1)/2) = eta - log 2 -
log sinh eta, that is (eta - log 2) f_n (_log_power_term, which both log
routes add for n <= p) plus legendre._deg_deriv at c = eps_n (-1)^n and
h = p+n, one call for the band (n <= p) and the tail alike.  c holds no
p!/(p+n)!, so no tail entry forms (p+n)!.  The inverse-power coefficient is
legendre._neg_order_term's exact weight times e^{-n eta} and the Gauss sum.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .legendre import LegendreArg, _deg_deriv, _legendre, _neg_order_term
from .scalars import eta_from_chi, neumann
from .tables import FourierCoeffTable, default_nmax

__all__ = [
    "power_coefficient",
    "power_series",
    "inverse_power_series",
    "log_series_limit",
    "log_tail_coefficient",
]

_LOG2 = math.log(2.0)


def _table(kernel, method, param, chi, coefficient, nmax=None, nmin=0):
    """Table of coefficient(pt, param, n), n = 0..N, N = nmax, or
    default_nmax(param, eta) at its 1e-10 when nmax is None, and at least
    nmin; the only place a table's length is chosen.  Every route scales by
    sinh(eta)^param, whose overflow is refused first, by name; any other
    term out of the float range mid-table (an OverflowError, or fsum meeting
    +inf and -inf) is refused as an inf entry, which the table names by
    kernel, param and chi."""
    eta = eta_from_chi(chi)
    if nmax is None:
        nmax = default_nmax(param, eta)
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
    """w_n = eps_n (-p)_n (p-n)!/(p+n)! = eps_n (-1)^n p!/(p+n)!, the exact
    weight of f_n, 0 <= n <= p."""
    return Fraction(neumann(n) * (-1) ** n * math.factorial(p), math.factorial(p + n))


def _power_coefficient(pt, p: int, n: int):
    if not 0 <= n <= p:
        raise ValueError("power_coefficient needs 0 <= n <= p")
    return pt.times(_power_weight(p, n), pt.sinh_pow(p), pt.cached(_legendre, p, n))


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
    return _neg_order_term(pt, q - 1, n, w, 1) / pt.sinh_pow(q)


def inverse_power_series(q: int, chi: float, nmax: int | None = None) -> FourierCoeffTable:
    """Cosine series of (chi - cos psi)^{-q} for integer q >= 1."""
    if q < 1:
        raise ValueError("inverse_power_series needs q >= 1")
    return _table("inverse_power", "closed_form", q, chi, _inverse_coefficient, nmax)


def _log_deriv_coefficient(pt, p: int, n: int):
    """f_n's exponent derivative less (eta - log 2) f_n, any n >= 0: past
    n = p, the whole tail entry (see the module docstring)."""
    return _deg_deriv(pt, p, n, neumann(n) * (-1) ** n, pt.sinh_pow(p), p + n)


def log_tail_coefficient(p: int, n: int, eta: float) -> float:
    """Tail entry (n >= p+1) of the log-kernel series:
    2 (-1)^{p+1} p! (n-p-1)! sinh^p(eta) P_p^{-n}(coth eta); the factorial
    ratio and the e^{-n eta} inside P_p^{-n} are folded analytically."""
    if n < p + 1:
        raise ValueError("log_tail_coefficient needs n >= p+1")
    return _log_deriv_coefficient(LegendreArg.from_eta(eta), p, n)


def _log_coefficient(pt, p: int, n: int):
    """The exponent derivative of f_n, plus the (eta - log 2) power term for n <= p."""
    deriv = _log_deriv_coefficient(pt, p, n)
    return _log_power_term(pt, p, n) + deriv if n <= p else deriv


def log_series_limit(p: int, chi: float, nmax: int | None = None) -> FourierCoeffTable:
    """Cosine series of (chi - cos psi)^p log(chi - cos psi), exponent-derivative route."""
    if p < 0:
        raise ValueError("log_series_limit needs p >= 0")
    return _table("log", "limit", p, chi, _log_coefficient, nmax, p + 1)
