"""Cosine-series coefficients of the log kernel by the algebraic route.

The expansion of (cosh eta - cos psi)^p log(cosh eta - cos psi) is obtained by
multiplying the finite power series against the elementary log series
log(cosh eta - cos psi) = eta - log 2 - 2 sum_{n>=1} e^{-n eta} cos(n psi)/n
and reindexing the resulting double sum.  The per-coefficient building block is

    r_frak(n, p, k1, k2, eta)
        = 2 sum_{k=k1}^{k2} (-1)^{k+1} e^{k eta} R_p^k(cosh eta) / (n - k),

an alternating sum, whose adjacent terms can cancel to many digits at small
eta, summed by math.fsum (correctly rounded) at the float point and exactly
at the symbolic point.  p_frak assembles the branch structure in n (constant
band, middle band, n = p edge, exponential tail) and q_frak adds the power
term carrying the (eta - log 2) weight, from series_limit's power row.
r_frak, re_frak and p_frak are written once over an evaluation point (see
legendre), so the identity suite proves them in t = e^eta;
series_limit._table builds the table, with the power term added by
series_limit._log_row.  q_frak and log_series_algebraic refuse p > 150
(_PMAX): past it the limit route, the only check on this one, is refused
too, and this route's small entries are already wrong from p ~ 100
(ROADMAP item 2).
"""

from __future__ import annotations

import math

from .legendre import LegendreArg
from .series_limit import _log_band, _log_row, _table
from .tables import FourierCoeffTable

__all__ = [
    "r_frak",
    "re_frak",
    "p_frak",
    "q_frak",
    "log_series_algebraic",
]

# past it the Taylor coefficient (2p)!/(2^p p!) of P_p^p overflows, so the
# limit route, the only check on this one, is refused
_PMAX = 150


def _refuse_past_pmax(name: str, p: int) -> None:
    if p > _PMAX:
        raise ValueError(f"{name} needs p <= {_PMAX}: past it the limit route is "
                         "refused and this route's small entries are wrong")


def _r_frak(pt, n: int, p: int, k1: int, k2: int):
    # (-1)^{k+1} 2 as an integer: (-1) ** k is a float for negative k
    return pt.total(
        (2 if k % 2 else -2) * pt.scaled_logpoly(p, k) / (n - k) for k in range(k1, k2 + 1)
    )


def r_frak(n: int, p: int, k1: int, k2: int, eta: float) -> float:
    """Weighted alternating sum of log-polynomial values (see module docstring).

    Requires -p <= k1 <= k2 <= p and n outside [k1, k2] so no term divides by
    zero.  Each term is formed as exp(k eta + log R_p^k(cosh eta)) -- the
    values R_p^k(cosh eta) are positive -- and the signed terms are summed
    by math.fsum, correctly rounded.
    """
    if not (-p <= k1 <= k2 <= p):
        raise ValueError("r_frak needs -p <= k1 <= k2 <= p")
    if k1 <= n <= k2:
        raise ValueError("r_frak needs n outside [k1, k2]")
    return _r_frak(LegendreArg.from_eta(eta), n, p, k1, k2)


def _re_frak(pt, n: int, p: int):
    if n < p + 1:
        raise ValueError("re_frak needs n >= p+1")
    return math.prod(range(n - p, n + p + 1)) * pt.cached(_r_frak, n, p, -p, p)


def re_frak(n: int, p: int, eta: float) -> float:
    """Tail sum rescaled by its growth factor:
    (n+p)!/(n-p-1)! * r_frak(n, p, -p, p, eta), defined for n >= p+1."""
    return _re_frak(LegendreArg.from_eta(eta), n, p)


def _p_frak(pt, n: int, p: int):
    if n < 0 or p < 0:
        raise ValueError("p_frak needs n >= 0 and p >= 0")
    if n == 0:
        return pt.cached(_r_frak, 0, p, -p, -1)
    if n <= p - 1:
        # middle band: reindexed terms with n + k < 0, then those with n - k > 0
        neg = pt.cached(_r_frak, -n, p, -p, -n - 1)
        pos = pt.cached(_r_frak, n, p, -p, n - 1)
        return pt.exp(n) * neg + pt.exp(-n) * pos
    if n == p:
        return pt.exp(-p) * pt.cached(_r_frak, p, p, -p, p - 1)
    return pt.exp(-n) * pt.cached(_r_frak, n, p, -p, p)


def p_frak(n: int, p: int, eta: float) -> float:
    """Log-kernel coefficient without the (eta - log 2) power term.

    Branches: n = 0 uses the strictly-negative k range (empty when p = 0);
    1 <= n <= p-1 splits into the two middle-band pieces; n = p stops the
    k range just short of the diagonal; n >= p+1 is the exponential tail,
    where the growth prefactor n (n^2-1^2) ... (n^2-p^2) = (n+p)!/(n-p-1)!
    cancels the rescaling of re_frak exactly, leaving e^{-n eta} r_frak.
    """
    return _p_frak(LegendreArg.from_eta(eta), n, p)


def q_frak(n: int, p: int, eta: float) -> float:
    """Full coefficient of cos(n psi) in (cosh eta - cos psi)^p log(...):
    p_frak plus the (eta - log 2)-weighted power-series coefficient, which is
    zero for n > p.  Refused for p > 150, as log_series_algebraic."""
    _refuse_past_pmax("q_frak", p)
    pt = LegendreArg.from_eta(eta)
    out = _p_frak(pt, n, p)
    return _log_band(pt, p)[n] + out if n <= p else out


def log_series_algebraic(p: int, chi: float, nmax: int | None = None) -> FourierCoeffTable:
    """Cosine series of (chi - cos psi)^p log(chi - cos psi), algebraic route.

    Tables built at eta < 0.2 carry conditioning_warning: the alternating
    sums then cancel severely and small tail entries are reliable in the
    absolute sense only.  Refused for p > 150, where the limit route that
    checks it is refused too.
    """
    if p < 0:
        raise ValueError("log_series_algebraic needs p >= 0")
    _refuse_past_pmax("log_series_algebraic", p)
    return _table("log", "algebraic", p, chi, _log_row(lambda pt, p, n: _p_frak(pt, n, p)),
                  nmax, p + 1)
