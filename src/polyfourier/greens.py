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
import threading
from collections import OrderedDict
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from typing import Sequence

from .errors import in_float_range
from .scalars import beta_pd, eta_from_chi
from .series_algebraic import log_series_algebraic
from .series_limit import inverse_power_series, log_series_limit, power_series
from .tables import FourierCoeffTable, default_nmax

__all__ = [
    "Geometry",
    "SolutionParams",
    "kernel_table",
    "greens_eval",
    "li_direct",
    "li_expansion",
    "hii_expansion",
    "axisym_component",
    "li_truncation",
]


class DegenerateGeometryError(ValueError):
    """chi = 1: both points on one ring, where no azimuthal expansion converges."""


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
            raise DegenerateGeometryError("degenerate geometry: chi must exceed 1")

    @classmethod
    def from_points(cls, x: Sequence[float], xprime: Sequence[float]) -> "Geometry":
        if len(x) != len(xprime) or len(x) < 2:
            raise ValueError("points need equal dimension >= 2")
        R = math.hypot(x[0], x[1])
        Rp = math.hypot(xprime[0], xprime[1])
        try:
            perp = sum((a - b) ** 2 for a, b in zip(x[2:], xprime[2:]))
        except OverflowError:
            raise ValueError("transverse offset out of the float range") from None
        return cls(R, Rp, perp, math.atan2(x[1], x[0]), math.atan2(xprime[1], xprime[0]))

    @property
    def chi(self) -> float:
        """Raises ValueError where a square overflows, the ratio is not a
        number, or 2RR' is below 2^-1022, where the squares would round on
        subnormals: a normal 2RR' bounds their rounding at 2^-53 of chi."""
        two_rr = 2.0 * self.R * self.Rprime
        try:
            chi = (self.R**2 + self.Rprime**2 + self.perp_sq) / two_rr
        except (OverflowError, ZeroDivisionError):
            chi = math.nan
        if math.isnan(chi) or two_rr < 2.0**-1022:
            raise ValueError("ring coordinates out of the float range: chi cannot be formed")
        return chi

    @property
    def eta(self) -> float:
        return eta_from_chi(self.chi)

    @property
    def psi(self) -> float:
        return self.phi - self.phiprime


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


def _dist(name: str, params: SolutionParams, x: Sequence[float],
          xprime: Sequence[float]) -> tuple[float, float]:
    """(r, r^{2k-d}), r = |x - x'|, for two distinct finite points of params.d
    coordinates each.  A power below 2^-1022, 0 included, is refused as name's
    underflow: the value it scales would keep too few bits, or none."""
    if not len(x) == len(xprime) == params.d:
        raise ValueError("point dimension must equal params.d")
    r = math.dist(x, xprime)
    if not math.isfinite(r):
        raise ValueError("points need finite coordinates and a finite distance")
    if r <= 0.0:
        raise ValueError("points must be distinct")
    power = r ** (2 * params.k - params.d)
    if power < 2.0**-1022:
        raise ValueError(f"{name} underflows double precision")
    return r, power


@in_float_range
def greens_eval(params: SolutionParams, x: Sequence[float], xprime: Sequence[float]) -> float:
    """Fundamental solution value; logarithmic branch for even d with
    k >= d/2, pure power branch otherwise.  Where the log branch's constant
    (k-1)! p! 2^{2k-1} pi^{d/2} leaves the float range, li_direct is divided
    by it exactly and rounded once; a nonzero value below 2^-1022, 0.0
    included, is refused as an underflow."""
    d, k = params.d, params.k
    if params.is_log_regime:
        li = li_direct(params, x, xprime)
        sign = (-1) ** (k + d // 2 + 1)
        scale = math.factorial(k - 1) * math.factorial(params.p) * 2 ** (2 * k - 1)
        try:
            denom = scale * math.pi ** (d / 2)
        except OverflowError:
            denom = math.inf
        if denom < math.inf:
            value = sign * li / denom
        else:
            value = sign * float(Fraction(li) / scale / Fraction(math.pi) ** (d // 2))
        if li and not value:
            raise ValueError("greens_eval underflows double precision")
        return value
    num = math.gamma(d / 2 - k)
    denom = math.factorial(k - 1) * 2 ** (2 * k) * math.pi ** (d / 2)
    return num * _dist("greens_eval", params, x, xprime)[1] / denom


@in_float_range
def li_direct(params: SolutionParams, x: Sequence[float], xprime: Sequence[float]) -> float:
    """Logarithmic radial profile r^{2k-d} (log r - beta_{p,d}); it carries
    the solution's whole r-dependence in the logarithmic regime."""
    p = params.p
    r, power = _dist("li_direct", params, x, xprime)
    return power * (math.log(r) - float(beta_pd(p, params.d)))


class _TableMemo:
    """Tables by key, least recently used first, holding at most `budget`
    coefficients in all; a table longer than the budget is not held."""

    def __init__(self, budget: int):
        self.budget = budget
        self.held = 0  # coefficients in the held tables
        self._tables: OrderedDict = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key):
        with self._lock:
            table = self._tables.get(key)
            if table is not None:
                self._tables.move_to_end(key)
            return table

    def put(self, key, table: FourierCoeffTable):
        size = len(table.coeffs)
        with self._lock:
            if size > self.budget or key in self._tables:
                return
            self._tables[key] = table
            self.held += size
            while self.held > self.budget:
                _, old = self._tables.popitem(last=False)
                self.held -= len(old.coeffs)


# 2^15 coefficients: about 1 MB of float objects and their tuple slots
_TABLE_BUDGET = 2**15
_TABLES = _TableMemo(_TABLE_BUDGET)


def kernel_table(
    kernel: str,
    param: int,
    chi: float,
    nmax: int | None = None,
    method: str | None = None,
) -> FourierCoeffTable:
    """Cosine series of one azimuthal kernel ("power", "inverse_power" or
    "log") at chi by the named route, n = 0..nmax, or to default_nmax's N
    when nmax is None.  method=None is the kernel's default route:
    closed_form, or algebraic for log.  Any other pairing of kernel and
    method raises ValueError.  The power series is finite (n <= param) and
    ignores nmax.  li_expansion and hii_expansion build through here.

    Recently built tables are held, least recently used first out, up to
    _TABLE_BUDGET (2^15) coefficients in all, and a repeated call returns
    the held table object: tables are immutable, and a held table is the
    one its route built.  The key is the route function, then (param, chi,
    nmax), without nmax for the power series; a table longer than the
    budget is returned but not held, and a call that raises holds nothing.
    Each route is looked up by its module name at call time, so a
    rebinding of that name (a tracer, a test double) misses the held tables
    and sees the call.  Patching a closed form under a route does not evict
    the tables already held."""
    args = (param, chi, nmax)
    if kernel == "log" and method in (None, "algebraic"):
        route = log_series_algebraic
    elif kernel == "log" and method == "limit":
        route = log_series_limit
    elif kernel == "power" and method in (None, "closed_form"):
        route, args = power_series, (param, chi)
    elif kernel == "inverse_power" and method in (None, "closed_form"):
        route = inverse_power_series
    else:
        raise ValueError(f"no {method or 'default'} route for the {kernel} kernel")
    key = (route, *args)
    table = _TABLES.get(key)
    if table is None:
        table = route(*args)
        _TABLES.put(key, table)
    return table


def li_expansion(
    params: SolutionParams,
    geom: Geometry,
    nmax: int | None = None,
    method: str | None = None,
) -> FourierCoeffTable:
    """Azimuthal cosine expansion of li_direct about the ring geometry:
    a_n = (2RR')^p { [log(2RR')/2 - beta_{p,d}] f_n + g_n / 2 }, where f/g are
    the power/log kernel series at chi, the log series by kernel_table's
    route for method."""
    p = params.p
    chi = geom.chi
    gtab = kernel_table("log", p, chi, nmax, method)
    ftab = kernel_table("power", p, chi)
    two_rr = 2.0 * geom.R * geom.Rprime
    try:
        scale = two_rr**p
    except OverflowError:
        raise ValueError("li_expansion: (2RR')^p overflows double precision") from None
    if scale < 2.0**-1022:
        raise ValueError("li_expansion: (2RR')^p underflows double precision")
    w = 0.5 * math.log(two_rr) - float(beta_pd(p, params.d))
    # f_n = 0 past n = p; the log table is always the longer one (n >= p+1)
    coeffs = [scale * (w * f + 0.5 * g)
              for f, g in zip_longest(ftab.coeffs, gtab.coeffs, fillvalue=0.0)]
    return FourierCoeffTable("li", p, chi, gtab.eta, gtab.method, tuple(coeffs))


def hii_expansion(
    params: SolutionParams, geom: Geometry, nmax: int | None = None
) -> FourierCoeffTable:
    """Azimuthal cosine expansion of the pure power profile r^{2k-d} =
    (2RR')^{-q} (chi - cos psi)^{-q} with q = d/2 - k >= 1."""
    q = params.q
    htab = kernel_table("inverse_power", q, geom.chi, nmax)
    try:
        scale = (2.0 * geom.R * geom.Rprime) ** (-q)
    except OverflowError:
        raise ValueError("hii_expansion: (2RR')^-q overflows double precision") from None
    if scale < 2.0**-1022:
        raise ValueError("hii_expansion: (2RR')^-q underflows double precision")
    coeffs = tuple(scale * c for c in htab.coeffs)
    return FourierCoeffTable("hii", q, geom.chi, htab.eta, htab.method, coeffs)


def axisym_component(params: SolutionParams, geom: Geometry) -> float:
    """Axisymmetric (n = 0) coefficient of li_expansion: the n = 0 entry of
    the limit-route table with N = p+1, the shortest log table, so it equals
    li_expansion(params, geom, params.p + 1, "limit").coeffs[0] bit for bit
    and refuses what li_expansion refuses."""
    return li_expansion(params, geom, params.p + 1, "limit").coeffs[0]


def li_truncation(params: SolutionParams, geom: Geometry, tail_tol: float = 1e-10) -> int:
    """Truncation order default_nmax(p, eta, tail_tol); at its default it is
    the N li_expansion uses when nmax is None.  For another tolerance, pass
    li_expansion(params, geom, nmax=li_truncation(params, geom, tol))."""
    return default_nmax(params.p, geom.eta, tail_tol)
