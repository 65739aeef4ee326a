"""Fundamental solutions of the k-th power of the (negative) Laplacian and
their azimuthal cosine expansions about a ring geometry.

Points are split as x = (x1, x2, x3..xd) with ring radius R = |(x1, x2)| and
azimuth phi.  The toroidal-like parameter

    chi = (R^2 + R'^2 + sum_{i>=3} (x_i - x_i')^2) / (2 R R') > 1

satisfies ||x - x'||^2 = 2 R R' (chi - cos(phi - phi')), so every distance
power or log splits into (2RR')-prefactors times one of the three azimuthal
kernels handled by the series modules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .legendre import LegendreArg
from .scalars import beta_pd, eta_from_chi
from .series_algebraic import log_series_algebraic, p_frak
from .series_limit import (
    _log_band_coefficient,
    inverse_power_series,
    log_series_limit,
    power_coefficient,
    power_series,
)
from .tables import FourierCoeffTable, default_nmax

__all__ = [
    "Geometry",
    "SolutionParams",
    "greens_eval",
    "li_direct",
    "li_expansion",
    "hii_expansion",
    "axisym_component",
    "li_truncation",
]


@dataclass(frozen=True)
class Geometry:
    """Ring-coordinate description of a source/target pair."""

    R: float
    Rprime: float
    perp_sq: float
    phi: float = 0.0
    phiprime: float = 0.0

    def __post_init__(self):
        if not (self.R > 0.0 and self.Rprime > 0.0):
            raise ValueError("Geometry needs positive ring radii")
        if self.perp_sq < 0.0:
            raise ValueError("perp_sq must be >= 0")
        if not self.chi > 1.0:
            raise ValueError("degenerate geometry: chi must exceed 1")

    @classmethod
    def from_points(cls, x: Sequence[float], xprime: Sequence[float]) -> "Geometry":
        if len(x) != len(xprime) or len(x) < 2:
            raise ValueError("points need equal dimension >= 2")
        R = math.hypot(x[0], x[1])
        Rp = math.hypot(xprime[0], xprime[1])
        perp = sum((a - b) ** 2 for a, b in zip(x[2:], xprime[2:]))
        return cls(R, Rp, perp, math.atan2(x[1], x[0]), math.atan2(xprime[1], xprime[0]))

    @property
    def chi(self) -> float:
        return (self.R**2 + self.Rprime**2 + self.perp_sq) / (2.0 * self.R * self.Rprime)

    @property
    def eta(self) -> float:
        return eta_from_chi(self.chi)

    @property
    def psi(self) -> float:
        return self.phi - self.phiprime

    def dist_sq(self) -> float:
        return 2.0 * self.R * self.Rprime * (self.chi - math.cos(self.psi))


@dataclass(frozen=True)
class SolutionParams:
    """Dimension d and Laplacian power k of (-lap)^k u = delta."""

    d: int
    k: int

    def __post_init__(self):
        if self.d < 1 or self.k < 1:
            raise ValueError("SolutionParams needs d >= 1 and k >= 1")

    @property
    def is_log_regime(self) -> bool:
        return self.d % 2 == 0 and self.k >= self.d // 2

    @property
    def p(self) -> int:
        """Distance-power exponent half, p = k - d/2 (log regime only)."""
        if not self.is_log_regime:
            raise ValueError("p is defined in the logarithmic regime only")
        return self.k - self.d // 2

    @property
    def q(self) -> int:
        """Inverse-power exponent q = d/2 - k (even-d power regime only)."""
        if self.d % 2 or self.k >= self.d // 2:
            raise ValueError("q is defined for even d with k < d/2 only")
        return self.d // 2 - self.k


def _dist(x: Sequence[float], xprime: Sequence[float]) -> float:
    if len(x) != len(xprime):
        raise ValueError("points need equal dimension")
    r = math.dist(x, xprime)
    if r <= 0.0:
        raise ValueError("points must be distinct")
    return r


def greens_eval(params: SolutionParams, x: Sequence[float], xprime: Sequence[float]) -> float:
    """Fundamental solution value; logarithmic branch for even d with
    k >= d/2, pure power branch otherwise."""
    if len(x) != params.d:
        raise ValueError("point dimension must equal params.d")
    d, k = params.d, params.k
    r = _dist(x, xprime)
    if params.is_log_regime:
        p = params.p
        sign = (-1) ** (k + d // 2 + 1)
        denom = math.factorial(k - 1) * math.factorial(p) * 2 ** (2 * k - 1) * math.pi ** (d / 2)
        return sign * r ** (2 * k - d) * (math.log(r) - float(beta_pd(p, d))) / denom
    num = math.gamma(d / 2 - k)
    denom = math.factorial(k - 1) * 2 ** (2 * k) * math.pi ** (d / 2)
    return num * r ** (2 * k - d) / denom


def li_direct(params: SolutionParams, x: Sequence[float], xprime: Sequence[float]) -> float:
    """Logarithmic radial profile r^{2k-d} (log r - beta_{p,d}); it carries
    the solution's whole r-dependence in the logarithmic regime."""
    p = params.p
    r = _dist(x, xprime)
    return r ** (2 * params.k - params.d) * (math.log(r) - float(beta_pd(p, params.d)))


def li_expansion(
    params: SolutionParams,
    geom: Geometry,
    nmax: int | None = None,
    method: str = "algebraic",
    tail_tol: float = 1e-10,
) -> FourierCoeffTable:
    """Azimuthal cosine expansion of li_direct about the ring geometry:
    a_n = (2RR')^p { [log(2RR')/2 - beta_{p,d}] f_n + g_n / 2 }, where f/g are
    the power/log kernel series at chi."""
    p = params.p
    chi = geom.chi
    if method == "algebraic":
        gtab = log_series_algebraic(p, chi, nmax, tail_tol)
    elif method == "limit":
        gtab = log_series_limit(p, chi, nmax, tail_tol)
    else:
        raise ValueError("method must be 'algebraic' or 'limit'")
    ftab = power_series(p, chi)
    two_rr = 2.0 * geom.R * geom.Rprime
    scale = two_rr**p
    w = 0.5 * math.log(two_rr) - float(beta_pd(p, params.d))
    coeffs = []
    for n, g in enumerate(gtab.coeffs):
        f = ftab.coeffs[n] if n <= p else 0.0
        coeffs.append(scale * (w * f + 0.5 * g))
    return FourierCoeffTable(
        "li", p, chi, gtab.eta, gtab.method, tuple(coeffs), gtab.conditioning_warning
    )


def hii_expansion(
    params: SolutionParams,
    geom: Geometry,
    nmax: int | None = None,
    tail_tol: float = 1e-10,
) -> FourierCoeffTable:
    """Azimuthal cosine expansion of the pure power profile r^{2k-d} =
    (2RR')^{-q} (chi - cos psi)^{-q} with q = d/2 - k >= 1."""
    q = params.q
    htab = inverse_power_series(q, geom.chi, nmax, tail_tol)
    scale = (2.0 * geom.R * geom.Rprime) ** (-q)
    coeffs = tuple(scale * c for c in htab.coeffs)
    return FourierCoeffTable("hii", q, geom.chi, htab.eta, "closed_form", coeffs)


def axisym_component(params: SolutionParams, geom: Geometry, form: str = "legendre") -> float:
    """Axisymmetric (n = 0) coefficient of li_expansion, by either closed form.

    form='legendre' uses the limit route's band coefficient (Legendre
    evaluations with digamma weights); form='logpoly' uses the algebraic
    route's alternating sum of e^{-k eta} R_p^k.  Each is added to the shared
    power term, and both equal li_expansion(...).coeffs[0].
    """
    p = params.p
    eta = geom.eta
    if form == "legendre":
        g = _log_band_coefficient(LegendreArg.from_eta(eta), p, 0)
    elif form == "logpoly":
        g = p_frak(0, p, eta)
    else:
        raise ValueError("form must be 'legendre' or 'logpoly'")
    w = math.log(geom.R * geom.Rprime) + eta - 2.0 * float(beta_pd(p, params.d))
    scale = (2.0 * geom.R * geom.Rprime) ** p
    return scale * 0.5 * (w * power_coefficient(p, 0, eta) + g)


def li_truncation(params: SolutionParams, geom: Geometry, tail_tol: float = 1e-10) -> int:
    """Default truncation order for li_expansion at this geometry."""
    return default_nmax(params.p, geom.eta, tail_tol)
