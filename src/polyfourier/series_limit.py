"""Cosine-series coefficients of the three azimuthal kernels.

For chi = cosh eta > 1 and psi the azimuth difference:

* (chi - cos psi)^p       -- a finite series, n = 0..p,
* (chi - cos psi)^{-q}    -- an infinite series with e^{-n eta} decay,
* (chi - cos psi)^p log(chi - cos psi) -- obtained from the power series by
  differentiating with respect to the exponent at the integer p.

Every route's table, here and in series_algebraic, is built by one
pipeline, _table: eta and N, one evaluation point from eta that holds chi
itself as x (see legendre), then row(pt, param, N), the N+1 entries.  A
route written per entry n reaches it through the one-line adapter _each_n.

The power series f_n is one row, _power_row: the order recurrence of
P_p^{-n} (DLMF 14.10.1), run backward from f_p = (-1)^p 2^{1-p}, adds two
terms of one sign per step in x = chi, so no digit cancels.  The closed
form it replaces, f_n = w_n sinh^p(eta) P_p^n(coth eta) with
w_n = eps_n (-1)^n p!/(p+n)! (_power_weight, _power_coefficient), stays as
the reference the tests compare the row against.  Every Legendre value of
the other closed forms is taken at coth eta, and each is written over the
evaluation point, so the identity suite proves this same code at the
symbolic point, and every rational weight is rounded once by the point.
f_n's exponent derivative is w_n sinh^p(eta) times the degree derivative
of P_nu^n at nu = p, plus (log sinh eta + H_p - H_{p+n}) f_n; as
log((z+1)/2) = eta - log 2 - log sinh eta, that is (eta - log 2) f_n
(_log_band, one power row per table, which both log routes add for n <= p
through _log_row) plus legendre._deg_deriv at c = eps_n (-1)^n and
h = p+n, one call for the band (n <= p) and the tail alike.  c holds no
p!/(p+n)!, so no tail entry forms (p+n)!.  The inverse-power coefficient is
legendre._neg_order_term's exact weight times e^{-n eta} and the Gauss sum.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import in_float_range
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


def _table(kernel, method, param, chi, row, nmax=None, nmin=0):
    """Table of the N+1 entries row(pt, param, N), n = 0..N, N = nmax, or
    default_nmax(param, eta) at its 1e-10 when nmax is None, and at least
    nmin; the only place a table's length is chosen.  pt holds chi itself
    as x.  sinh(eta)^param's overflow is refused first, by name: every
    route but the power row scales by it, and where it overflows so does
    the power row's c_0 >= chi^param.  Any other term out of the float
    range mid-table (an OverflowError, or a ValueError such as fsum meeting
    +inf and -inf) is refused as an inf entry, which the table names by
    kernel, param and chi."""
    eta = eta_from_chi(chi)
    if nmax is None:
        nmax = default_nmax(param, eta)
    if nmax < nmin:
        raise ValueError("log series needs nmax >= p+1" if nmin else "nmax must be >= 0")
    pt = LegendreArg.from_eta(eta, chi)
    pt.sinh_pow(param)
    try:
        coeffs = tuple(row(pt, param, nmax))
    except (OverflowError, ValueError):
        coeffs = (math.inf,)
    return FourierCoeffTable(kernel, param, chi, eta, method, coeffs)


def _each_n(coefficient):
    """The row of a route written per entry: coefficient(pt, param, n), n = 0..N."""
    return lambda pt, param, N: [coefficient(pt, param, n) for n in range(N + 1)]


_POWER_PMAX = 1023  # c_p = (-1)^p 2^{1-p} is subnormal past it


def _power_row(pt, p: int, N: int) -> list[float]:
    """f_0 .. f_N of (x - cos psi)^p at x = pt.x, zero past n = p, at the
    float point, by the order recurrence of P_p^{-n} (DLMF 14.10.1; Cohl &
    Dominici, Proc. R. Soc. A 467, 2011) run backward: f_{p+1} = 0,
    f_p = (-1)^p 2^{1-p}, then for m = p..2

        f_{m-1} = 2m x/(m-1-p) f_m - (m+1+p)/(m-1-p) f_{m+1},

    and f_0 = (2+p)/(2p) f_2 - x/p f_1, where eps_0 = 1 halves the n = 0 row.
    f_n has the sign (-1)^n, so each step adds two terms of one sign: no
    digit cancels, and as neither term exceeds the sum, an entry overflows
    only where its value does.  Against 60-digit mpmath every entry is
    within 3.0e-15 relative at p <= 150 for ten chi from 1 + 1e-8 to 1e4,
    wherever it fits a double.  p <= _POWER_PMAX, so that f_p, the row's
    least entry in magnitude, is a normal double."""
    if p > _POWER_PMAX:
        raise ValueError(f"the power row needs p <= {_POWER_PMAX}: "
                         "c_p = (-1)^p 2^(1-p) is subnormal past it")
    x = pt.x
    f = [0.0] * (max(N, p) + 2)
    f[p] = 2.0 * (-0.5) ** p if p else 1.0  # exact: a power of two
    for m in range(p, 1, -1):
        k = m - 1 - p
        f[m - 1] = 2 * m * x / k * f[m] - (m + 1 + p) / k * f[m + 1]
    if p:
        f[0] = (2 + p) / (2 * p) * f[2] - x / p * f[1]
    return f[:N + 1]


def _power_weight(p: int, n: int) -> Fraction:
    """w_n = eps_n (-p)_n (p-n)!/(p+n)! = eps_n (-1)^n p!/(p+n)!, the exact
    weight of f_n, 0 <= n <= p."""
    return Fraction(neumann(n) * (-1) ** n * math.factorial(p), math.factorial(p + n))


def _power_coefficient(pt, p: int, n: int):
    """f_n's closed form w_n sinh^p(eta) P_p^n(coth eta), at any point: the
    reference the tests hold _power_row to; no table reads it."""
    if not 0 <= n <= p:
        raise ValueError("power_coefficient needs 0 <= n <= p")
    return pt.times(_power_weight(p, n), pt.sinh_pow(p), pt.cached(_legendre, p, n))


@in_float_range
def power_coefficient(p: int, n: int, eta: float) -> float:
    """Coefficient of cos(n psi) in (cosh eta - cos psi)^p, 0 <= n <= p:
    entry n of the power row at x = cosh eta, equal to the closed form
    eps_n (-p)_n (p-n)!/(p+n)! sinh^p(eta) P_p^n(coth eta)."""
    if not 0 <= n <= p:
        raise ValueError("power_coefficient needs 0 <= n <= p")
    return _power_row(LegendreArg.from_eta(eta), p, p)[n]


def _log_band(pt: LegendreArg, p: int) -> list[float]:
    """(eta - log 2) f_n, n = 0..p, the power term both log routes carry on
    the band, from one power row; log 2 is irrational, so it exists at the
    float point only."""
    lead = pt.eta - _LOG2
    return [lead * f for f in _power_row(pt, p, p)]


def _log_row(deriv):
    """The log row of a route whose entry deriv(pt, p, n) lacks the power
    term: _log_band's entry plus deriv on the band n <= p, deriv past it."""
    def row(pt, p, N):
        band = _log_band(pt, p)
        return [band[n] + deriv(pt, p, n) if n <= p else deriv(pt, p, n)
                for n in range(N + 1)]
    return row


def power_series(p: int, chi: float) -> FourierCoeffTable:
    """Full (finite) cosine series of (chi - cos psi)^p, by the power row."""
    if p < 0:
        raise ValueError("power_series needs p >= 0")
    return _table("power", "closed_form", p, chi, _power_row, p)


def _inverse_coefficient(pt, q: int, n: int):
    # eps_n (n+q-1)!/((q-1)! n!) e^{-n eta} S_{q-1,n}(z) / sinh^q(eta)
    w = neumann(n) * math.comb(n + q - 1, q - 1)
    return _neg_order_term(pt, q - 1, n, w, 1) / pt.sinh_pow(q)


def inverse_power_series(q: int, chi: float, nmax: int | None = None) -> FourierCoeffTable:
    """Cosine series of (chi - cos psi)^{-q} for integer q >= 1."""
    if q < 1:
        raise ValueError("inverse_power_series needs q >= 1")
    return _table("inverse_power", "closed_form", q, chi, _each_n(_inverse_coefficient), nmax)


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


def log_series_limit(p: int, chi: float, nmax: int | None = None) -> FourierCoeffTable:
    """Cosine series of (chi - cos psi)^p log(chi - cos psi), exponent-derivative route."""
    if p < 0:
        raise ValueError("log_series_limit needs p >= 0")
    return _table("log", "limit", p, chi, _log_row(_log_deriv_coefficient), nmax, p + 1)
