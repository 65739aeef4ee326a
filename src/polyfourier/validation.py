"""Validation machinery: a trapezoid Fourier-coefficient oracle, exact
verification of the reindexing identities behind the algebraic route, and
grid drivers producing tabular reports.

The reindexing identities equate the algebraic route's alternating sums of
e^{k eta} R_p^k(cosh eta) (p_frak, re_frak) with the limit route's Legendre
closed forms (band and tail coefficients, and the inverse-power coefficient
at q = p+1).  Both sides are rational functions of t = e^eta, so the suite
evaluates the production closed forms themselves at the exact point
t = Fraction(e^eta) (ExactLegendreArg): a true identity yields error exactly
0.  Double precision could not do this -- at p = 10, eta = 5, n = 50 the
left side cancels through ~13 digits.

Each check takes its point from ExactLegendreArg.from_eta, which shares one
point per eta from a cache of the two most recent eta (the suite walks eta
in its outer loop).  The point memoizes e^{k eta}, sinh^k(eta),
e^{k eta} R_p^k(cosh eta) and the closed forms that several checks share
(r_frak, the Gauss sum, P_p^m), keyed by function object and arguments, so
every exact value is computed once per eta.  A memoized value is an exact
Fraction of t and its key, equal to a fresh evaluation, so memoizing cannot
change a result; a patched or wrong closed form is a different function
object and is evaluated afresh.  The identity sides compared here
(p_frak, the band and tail coefficients) are not memoized themselves.

The quadrature oracle compares series coefficients against
(eps_n / 2 pi) * integral of f(psi) cos(n psi); node counts double until the
estimate moves by less than tol * max(1, max|f|).  The max|f| scaling is the
spectral-accuracy floor of double precision: for large kernels an absolute
1e-12 target is unreachable by any quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import ConvergenceError
from .greens import Geometry, SolutionParams, axisym_component
from .legendre import ExactLegendreArg
from .scalars import neumann
from .series_algebraic import _p_frak, _re_frak, log_series_algebraic
from .series_limit import (
    _inverse_coefficient,
    _log_band_coefficient,
    _log_tail_coefficient,
    inverse_power_series,
    log_series_limit,
    power_series,
)
from .tables import FourierCoeffTable

__all__ = [
    "ValidationReport",
    "quad_fourier_coeff",
    "verify_identity_n0",
    "verify_identity_mid",
    "verify_identity_np",
    "verify_identity_tail",
    "verify_re_closed_form",
    "verify_axisym_dual",
    "compare_log_routes",
    "oracle_reports",
    "run_validation_suite",
]


@dataclass(frozen=True)
class ValidationReport:
    """One checked equality, with the two-tier pass rule
    (relative <= tol) or (absolute <= floor)."""

    identity: str
    p: int
    n: int
    eta: float
    lhs: float
    rhs: float
    abs_err: float
    rel_err: float
    tol: float
    floor: float
    passed: bool


def _report(identity, p, n, eta, lhs, rhs, tol, floor, extra_ok: bool = True):
    abs_err = abs(lhs - rhs)
    scale = max(abs(lhs), abs(rhs))
    rel_err = abs_err / scale if scale > 0.0 else 0.0
    passed = (rel_err <= tol or abs_err <= floor) and extra_ok
    return ValidationReport(
        identity, p, n, eta, float(lhs), float(rhs), float(abs_err), float(rel_err),
        tol, floor, passed,
    )


# ---------------------------------------------------------------------------
# quadrature oracle


@lru_cache(maxsize=32)
def _kernel_samples(kernel: str, param: int, chi: float, m: int):
    psi = np.arange(m) * (2.0 * math.pi / m)
    base = chi - np.cos(psi)
    if kernel == "power":
        f = base**param
    elif kernel == "inverse_power":
        f = base ** (-param)
    elif kernel == "log":
        f = base**param * np.log(base)
    else:
        raise ValueError(f"unknown kernel {kernel!r}")
    return psi, f


def kernel_scale(kernel: str, param: int, chi: float) -> float:
    """max(1, sup |f|) for the tolerance floors; sampled at 64 nodes."""
    _, f = _kernel_samples(kernel, param, chi, 64)
    return max(1.0, float(np.max(np.abs(f))))


def quad_fourier_coeff(
    kernel: str,
    param: int,
    chi: float,
    n: int,
    nodes: int = 64,
    max_nodes: int = 2**20,
    tol: float = 1e-12,
) -> float:
    """(eps_n / 2 pi) * integral_0^{2 pi} f(psi) cos(n psi) dpsi by the
    periodic trapezoid rule with node doubling.

    Raises ConvergenceError if the node cap is reached before two successive
    levels agree to tol * max(1, max|f|).
    """
    if not (chi > 1.0 and math.isfinite(chi)):
        raise ValueError("quad_fourier_coeff needs a finite chi > 1")
    if n < 0:
        raise ValueError("quad_fourier_coeff needs n >= 0")
    if kernel == "inverse_power" and param < 1:
        raise ValueError("inverse_power needs q >= 1")
    if kernel in ("power", "log") and param < 0:
        raise ValueError("power/log kernels need p >= 0")
    m = max(nodes, 8)
    prev = None
    while m <= max_nodes:
        psi, f = _kernel_samples(kernel, param, chi, m)
        est = neumann(n) * float(f @ np.cos(n * psi)) / m
        scale = max(1.0, float(np.max(np.abs(f))))
        if prev is not None and abs(est - prev) <= tol * scale:
            return est
        prev = est
        m *= 2
    raise ConvergenceError(f"quadrature did not converge below {max_nodes} nodes")


# ---------------------------------------------------------------------------
# exact-rational identity checks (t = e^eta)


def _band_report(identity, p, n, eta, tol, floor) -> ValidationReport:
    pt = ExactLegendreArg.from_eta(eta)
    lhs = _p_frak(pt, n, p)
    rhs = _log_band_coefficient(pt, p, n)
    return _report(identity, p, n, eta, lhs, rhs, tol, floor, extra_ok=lhs == rhs)


def verify_identity_n0(
    p: int, eta: float, tol: float = 1e-9, floor: float = 1e-12
) -> ValidationReport:
    """Constant-mode identity: the algebraic sum p_frak(0) against the limit
    route's band coefficient (Legendre/digamma closed form)."""
    if p < 1:
        raise ValueError("verify_identity_n0 needs p >= 1")
    return _band_report("n0", p, 0, eta, tol, floor)


def verify_identity_mid(
    p: int, n: int, eta: float, tol: float = 1e-9, floor: float = 1e-12
) -> ValidationReport:
    """Middle-band identity (1 <= n <= p-1): p_frak(n) against the band
    coefficient."""
    if not (p >= 2 and 1 <= n <= p - 1):
        raise ValueError("verify_identity_mid needs p >= 2 and 1 <= n <= p-1")
    return _band_report("mid", p, n, eta, tol, floor)


def verify_identity_np(
    p: int, eta: float, tol: float = 1e-9, floor: float = 1e-12
) -> ValidationReport:
    """Edge identity at n = p: p_frak(p) against the band coefficient."""
    if p < 1:
        raise ValueError("verify_identity_np needs p >= 1")
    return _band_report("np", p, p, eta, tol, floor)


def verify_identity_tail(
    p: int, n: int, eta: float, tol: float = 1e-9, floor: float = 1e-12
) -> ValidationReport:
    """Tail identity (n >= p+1): p_frak(n) against log_tail_coefficient.

    Also checks the equivalent inverse-power rewriting: with q = p+1, the
    coefficient of cos(n psi) in (cosh eta - cos psi)^{-q} equals
    eps_n (-1)^q e^{-n eta} re_{n,q-1} / (2 ((q-1)!)^2 sinh^{2q-1} eta),
    where re_{n,p} = (n+p)!/(n-p-1)! e^{n eta} p_frak(n).
    """
    if n < p + 1:
        raise ValueError("verify_identity_tail needs n >= p+1")
    pt = ExactLegendreArg.from_eta(eta)
    lhs = _p_frak(pt, n, p)
    rhs = _log_tail_coefficient(pt, p, n)
    q = p + 1
    grow = math.prod(range(n - p, n + p + 1))
    rewrite = Fraction((-1) ** q * neumann(n) * grow, 2 * math.factorial(q - 1) ** 2) * (
        lhs / pt.sinh_pow(2 * q - 1)
    )
    ok = lhs == rhs and rewrite == _inverse_coefficient(pt, q, n)
    return _report("tail", p, n, eta, lhs, rhs, tol, floor, extra_ok=ok)


def verify_re_closed_form(
    p: int, n: int, eta: float, tol: float = 1e-9, floor: float = 1e-12
) -> ValidationReport:
    """Rescaled tail sum re_frak against (n+p)!/(n-p-1)! e^{n eta} times the
    tail coefficient, i.e. 2 (-1)^{p+1} p! (p+n)! e^{n eta} sinh^p(eta)
    P_p^{-n}(coth eta)."""
    if n < p + 1:
        raise ValueError("verify_re_closed_form needs n >= p+1")
    pt = ExactLegendreArg.from_eta(eta)
    lhs = _re_frak(pt, n, p)
    grow = math.prod(range(n - p, n + p + 1))
    rhs = grow * pt.exp(n) * _log_tail_coefficient(pt, p, n)
    return _report("re_closed_form", p, n, eta, lhs, rhs, tol, floor, extra_ok=lhs == rhs)


# ---------------------------------------------------------------------------
# float-route comparisons


def compare_log_routes(
    p: int, chi: float, nmax: int, tol: float = 1e-9, floor: float = 1e-12
) -> list[ValidationReport]:
    """Coefficient-by-coefficient comparison of the two log-kernel routes."""
    alg = log_series_algebraic(p, chi, nmax)
    lim = log_series_limit(p, chi, nmax)
    return [
        _report("cross_route", p, n, alg.eta, alg.coeffs[n], lim.coeffs[n], tol, floor)
        for n in range(nmax + 1)
    ]


def _series_table(kernel: str, param: int, chi: float, nmax: int, method: str):
    if kernel == "power":
        return power_series(param, chi)
    if kernel == "inverse_power":
        return inverse_power_series(param, chi, nmax)
    if method == "algebraic":
        return log_series_algebraic(param, chi, nmax)
    return log_series_limit(param, chi, nmax)


def oracle_reports(
    kernel: str,
    param: int,
    chi: float,
    nmax: int,
    method: str = "closed_form",
    tol: float = 1e-8,
    floor: float = 1e-12,
) -> list[ValidationReport]:
    """Series coefficients against the quadrature oracle.

    The absolute floor is scaled by max(1, max|f|): below that level the
    oracle itself carries only noise (spectral floor of float64).
    """
    table: FourierCoeffTable = _series_table(kernel, param, chi, nmax, method)
    scaled_floor = floor * kernel_scale(kernel, param, chi)
    name = f"oracle_{kernel}" + (f"_{method}" if kernel == "log" else "")
    out = []
    for n in range(min(nmax, table.nmax) + 1):
        ref = quad_fourier_coeff(kernel, param, chi, n)
        out.append(
            _report(name, param, n, table.eta, table.coeffs[n], ref, tol, scaled_floor)
        )
    return out


def verify_axisym_dual(
    params: SolutionParams, geom: Geometry, tol: float = 1e-10, floor: float = 1e-12
) -> ValidationReport:
    """Agreement of the two closed forms of the axisymmetric coefficient."""
    lhs = axisym_component(params, geom, form="legendre")
    rhs = axisym_component(params, geom, form="logpoly")
    return _report("axisym_dual", params.p, 0, geom.eta, lhs, rhs, tol, floor)


# ---------------------------------------------------------------------------
# grid driver


def run_validation_suite(
    pmax: int = 10,
    etas: tuple[float, ...] = (0.2, 0.5, 1.0, 2.0, 5.0),
    nmax: int = 50,
    tol: float = 1e-9,
    floor: float = 1e-12,
    include_oracle: bool = True,
    oracle_tol: float = 1e-8,
) -> list[ValidationReport]:
    """Identity suite + cross-route + oracle + dual-form reports on a grid."""
    if pmax < 0:
        raise ValueError("run_validation_suite needs pmax >= 0")
    reports: list[ValidationReport] = []
    for eta in etas:
        for p in range(1, pmax + 1):
            reports.append(verify_identity_n0(p, eta, tol, floor))
            reports.append(verify_identity_np(p, eta, tol, floor))
            for n in range(1, p):
                reports.append(verify_identity_mid(p, n, eta, tol, floor))
        for p in range(0, pmax + 1):
            for n in range(p + 1, nmax + 1):
                reports.append(verify_identity_tail(p, n, eta, tol, floor))
                reports.append(verify_re_closed_form(p, n, eta, tol, floor))
    for eta in etas:
        chi = math.cosh(eta)
        for p in range(0, pmax + 1):
            reports.extend(compare_log_routes(p, chi, nmax, tol, floor))
    if include_oracle:
        for eta in etas:
            chi = math.cosh(eta)
            otol = oracle_tol if eta >= 0.5 else 1e-6
            for p in range(0, min(pmax, 5) + 1):
                reports.extend(
                    oracle_reports("power", p, chi, p, "closed_form", otol, floor)
                )
                for method in ("algebraic", "limit"):
                    reports.extend(
                        oracle_reports("log", p, chi, min(nmax, 40), method, otol, floor)
                    )
            for q in range(1, min(pmax, 5) + 1):
                reports.extend(
                    oracle_reports("inverse_power", q, chi, min(nmax, 40), "closed_form", otol, floor)
                )
    for eta in etas:
        if eta < 0.4:
            continue
        for p in range(0, pmax + 1):
            geom = Geometry(
                R=1.3 * math.exp(eta / 2.0), Rprime=1.3 * math.exp(-eta / 2.0), perp_sq=0.0
            )
            params = SolutionParams(d=2, k=p + 1)
            reports.append(verify_axisym_dual(params, geom, 1e-10, floor))
    return reports
