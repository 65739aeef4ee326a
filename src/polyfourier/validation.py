"""Validation machinery, which no production module imports: reference
constructions, a trapezoid Fourier-coefficient oracle, exact verification of
the reindexing identities behind the algebraic route, and grid drivers
producing tabular reports.  The reference constructions are R_p^k by a
difference scheme and from its generating function, and the real-degree
series legendre_p_nu that checks legendre_deg_deriv.

The reindexing identities equate the algebraic route's alternating sums of
e^{k eta} R_p^k(cosh eta) (p_frak, re_frak) with the limit route's Legendre
closed forms (its degree-derivative entry, band and tail alike, and the
inverse-power coefficient at q = p+1).  Both sides are rational functions
of t = e^eta, so the suite proves them in t: it evaluates the production
closed forms themselves at the symbolic point (legendre.SYMBOLIC), where
each side is a canonical RationalT and a true identity is an equality of
the two, for every eta > 0.
Double precision could not do this -- at p = 10, eta = 5, n = 50 the left
side cancels through ~13 digits.  So the exact checks take no tolerance:
their reports carry tol = floor = 0 and pass on equality alone.

A float check passes when its relative error is at most its family's
tolerance or its absolute error at most _FLOOR, the oracle's scaled by
max(1, max|f|).  The rule is part of what the check means, so no caller
sets it: each value is one named constant, where the comparisons start.

run_validation_suite proves each (family, p, n) once per call and builds
every eta's row from it, evaluated at t = Fraction(e^eta), formed once per
eta, by Horner's rule in integers and one int/int division, as float() of
the exact Fraction rounds; each verify_* call proves afresh.  The symbolic
point memoizes the closed forms several proofs share (r_frak, the Gauss
sum, P_p^m, e^{k eta} R_p^k) by function object and arguments, so a patched
closed form runs afresh, and this memo lives in the calling process.  The
suite's float rows (cross-route, oracle, dual form) do not depend on the
proofs: one worker process builds them while the caller proves the
identities, and they follow the exact rows in the report.  Within one call
the worker builds each (eta, p) pair of log tables once, at nmax, for the
cross-route rows, and the oracle's log rows read their prefixes; it runs
the oracle once per (kernel, param, chi) for all n, and the algebraic and
limit rows share the log values.  Nothing outlives the call: the worker
has exited when the suite returns or raises.

The quadrature oracle compares series coefficients against
(eps_n / 2 pi) * integral of f(psi) cos(n psi) by the trapezoid rule, which
is a DFT: one rfft per level of m nodes, doubling from 64 to 2^20, gives
every n at once, each only where m > 2n (coarser grids alias n to n mod m).
An n stops once its estimate moves by at most 1e-12 * max(1, max|f|), the
spectral-accuracy floor of double precision (for large kernels an absolute
1e-12 target is unreachable by any quadrature), so it needs two such grids
up to the cap, and an n >= 2^18 is refused.  The oracle is the only code
here that loads numpy, when it first runs: importing this module, or
proving the identities, never does, so the suite's worker loads numpy
itself unless its caller had loaded it already.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import ConvergenceError
from .greens import Geometry, SolutionParams, axisym_component, kernel_table, li_expansion
from .legendre import SYMBOLIC
from .logpoly import LogPolynomial
from .scalars import neumann
from .series_algebraic import _p_frak, _re_frak, log_series_algebraic
from .series_limit import (
    _inverse_coefficient,
    _log_deriv_coefficient,
    inverse_power_series,
    log_series_limit,
    power_series,
)

__all__ = [
    "ValidationReport",
    "logpoly_difference_algorithm",
    "logpoly_from_genfun",
    "legendre_p_nu",
    "quad_fourier_coeff",
    "quad_fourier_coeffs",
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
    (relative <= tol) or (absolute <= floor).  The exact identity rows carry
    tol = floor = 0, so they pass only when the two sides are equal; equal
    sides report zero errors."""

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


def _report(identity, p, n, eta, lhs, rhs, tol=0.0, floor=0.0, extra_ok: bool = True):
    abs_err = rel_err = 0.0
    if lhs != rhs:
        abs_err = abs(lhs - rhs)
        rel_err = abs_err / max(abs(lhs), abs(rhs))
    passed = (rel_err <= tol or abs_err <= floor) and extra_ok
    return ValidationReport(
        identity, p, n, eta, float(lhs), float(rhs), float(abs_err), float(rel_err),
        tol, floor, passed,
    )


# ---------------------------------------------------------------------------
# reference constructions, independent of the production algorithms


def logpoly_difference_algorithm(p: int) -> dict[int, LogPolynomial]:
    """Full level-p table solved as a difference scheme in a_n = R_p^{p-n}.

    Interior update a_n(m) = 1/2 a_n(m-1) + x a_{n-1}(m-1) + 1/2 a_{n-2}(m-1);
    the diagonal entry folds the k-symmetry, a_m(m) = x a_{m-1}(m-1) + a_{m-2}(m-1).
    The coefficient arithmetic is its own, shared with no production module.
    """
    if p < 0:
        raise ValueError("logpoly_difference_algorithm needs p >= 0")
    # level[n] holds the coefficient tuple of a_n(m) while sweeping m = 0..p
    level: list[tuple[Fraction, ...]] = [(Fraction(1),)]

    def x_pow(shift, n, size):
        # x^shift a_n(m-1) as `size` coefficients; a_n = 0 for n < 0
        c = level[n] if n >= 0 else ()
        return (Fraction(0),) * shift + c + (Fraction(0),) * (size - shift - len(c))

    for m in range(1, p + 1):
        nxt = []
        for n in range(m):
            a, b, c = x_pow(0, n, n + 1), x_pow(1, n - 1, n + 1), x_pow(0, n - 2, n + 1)
            nxt.append(tuple(ai / 2 + bi + ci / 2 for ai, bi, ci in zip(a, b, c)))
        b, c = x_pow(1, m - 1, m + 1), x_pow(0, m - 2, m + 1)
        nxt.append(tuple(bi + ci for bi, ci in zip(b, c)))
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


_NU_MAX_TERMS = 10**6  # legendre_p_nu's term cap


def legendre_p_nu(nu: float, m: int, z: float) -> float:
    """P_nu^m(z) for real degree nu, integer order m <= 0, z in (1, 3).

    Gauss series about z = 1; the term ratio tends to (z-1)/2, so convergence
    requires z < 3.  Slow but independent of the integer-degree code; used as
    the oracle for degree-derivatives.
    """
    if m > 0:
        raise ValueError("legendre_p_nu handles m <= 0 only")
    if not 1.0 < z < 3.0:
        raise ValueError("legendre_p_nu needs z in (1, 3)")
    n = -m
    w = (1.0 - z) / 2.0
    term = 1.0
    total = 1.0
    for j in range(_NU_MAX_TERMS):
        term *= (j - nu) * (nu + 1 + j) * w / ((j + 1) * (1 + n + j))
        total += term
        if abs(term) <= 1e-17 * abs(total) and j > nu:
            break
    else:
        raise ConvergenceError("legendre_p_nu hit the term cap")
    pref = math.exp(0.5 * n * math.log((z - 1.0) / (z + 1.0))) / math.gamma(1 + n)
    return pref * total


# ---------------------------------------------------------------------------
# quadrature oracle


def _kernel_samples(kernel: str, param: int, chi: float, m: int):
    import numpy as np

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
    return f


def kernel_scale(kernel: str, param: int, chi: float) -> float:
    """max(1, sup |f|) for the tolerance floors; sampled at 64 nodes."""
    import numpy as np

    f = _kernel_samples(kernel, param, chi, 64)
    return max(1.0, float(np.max(np.abs(f))))


_MAX_NODES = 2**20  # the trapezoid oracle's node cap


def _trapezoid(kernel, param, chi, ns) -> list[float]:
    """The oracle's value for each n in ns, by the module docstring's rule; an
    n's value does not depend on the other ns.  ConvergenceError past
    _MAX_NODES nodes."""
    import numpy as np

    todo = dict.fromkeys(ns)  # n: its last estimate, None before the first
    done = {}
    m = 64
    while todo:
        if m > _MAX_NODES:
            raise ConvergenceError("quadrature did not converge below 2^20 nodes")
        live = [n for n in todo if 2 * n < m]
        if live:
            f = _kernel_samples(kernel, param, chi, m)
            spec = np.fft.rfft(f)  # spec[k] = sum_j f_j e^{-2 pi i j k / m}
            tol = 1e-12 * max(1.0, float(np.max(np.abs(f))))
            for n in live:
                prev, todo[n] = todo[n], neumann(n) * float(spec[n].real) / m
                if prev is not None and abs(todo[n] - prev) <= tol:
                    done[n] = todo.pop(n)
        m *= 2
    return [done[n] for n in ns]


def quad_fourier_coeffs(kernel: str, param: int, chi: float, ns) -> list[float]:
    """quad_fourier_coeff for each n in ns, from one trapezoid run: each n
    gets the value, and the bits, of its own one-n call.

    Raises ValueError for an n that fewer than two grids can estimate: an n
    is estimated only on grids of more than 2n nodes, the stopping rule
    compares two successive estimates, and the cap is 2^20 nodes, so
    n < 2^18.
    """
    ns = list(ns)
    if not (chi > 1.0 and math.isfinite(chi)):
        raise ValueError("quad_fourier_coeff needs a finite chi > 1")
    if any(n < 0 for n in ns):
        raise ValueError("quad_fourier_coeff needs n >= 0")
    if any(4 * n >= _MAX_NODES for n in ns):
        raise ValueError("quad_fourier_coeff needs n < 2^18: an n is estimated only on "
                         "grids of more than 2n nodes, and its stopping rule compares "
                         "two such grids, up to the cap of 2^20 nodes")
    if kernel == "inverse_power" and param < 1:
        raise ValueError("inverse_power needs q >= 1")
    if kernel in ("power", "log") and param < 0:
        raise ValueError("power/log kernels need p >= 0")
    return _trapezoid(kernel, param, chi, ns)


def quad_fourier_coeff(kernel: str, param: int, chi: float, n: int) -> float:
    """(eps_n / 2 pi) * integral_0^{2 pi} f(psi) cos(n psi) dpsi by the
    periodic trapezoid rule with node doubling (see the module docstring).

    Raises ConvergenceError if the node cap is reached before two successive
    levels agree to 1e-12 * max(1, max|f|), and ValueError for n >= 2^18,
    which fewer than two grids up to the cap can estimate.
    """
    return quad_fourier_coeffs(kernel, param, chi, (n,))[0]


# ---------------------------------------------------------------------------
# exact-rational identity checks (t = e^eta)


def _exact_t(eta: float, need: str) -> Fraction:
    """t = Fraction(e^eta) for an eta that is finite and > 0, with e^eta in
    the float range and cosh(eta) > 1, as the float routes need too."""
    try:
        if 0.0 < eta < math.inf and math.cosh(eta) > 1.0:
            return Fraction(math.exp(eta))
    except OverflowError:
        pass
    raise ValueError(f"{need} finite and > 0, with e^eta in the float range and "
                     f"cosh(eta) > 1; got {eta!r}")


def _prove(identity, p, n):
    """(lhs, rhs, ok) of one identity on the symbolic point; ok is the tail's
    inverse-power rewrite (see verify_identity_tail), and True elsewhere."""
    pt = SYMBOLIC
    grow = math.prod(range(n - p, n + p + 1))
    rhs = _log_deriv_coefficient(pt, p, n)
    if identity == "re_closed_form":
        return _re_frak(pt, n, p), grow * pt.exp(n) * rhs, True
    lhs = _p_frak(pt, n, p)
    if identity != "tail":
        return lhs, rhs, True
    q = p + 1
    rewrite = Fraction((-1) ** q * neumann(n) * grow, 2 * math.factorial(q - 1) ** 2) * (
        lhs / pt.sinh_pow(2 * q - 1)
    )
    return lhs, rhs, rewrite == _inverse_coefficient(pt, q, n)


def _exact_row(identity, p, n, eta, t, proof) -> ValidationReport:
    """The row at eta, t = Fraction(e^eta), of a proof; equal sides are
    evaluated once at t, unequal sides fail."""
    lhs, rhs, ok = proof
    if lhs == rhs:
        num, den = lhs.at(t)
        return _report(identity, p, n, eta, num / den, num / den, extra_ok=ok)
    return _report(identity, p, n, eta, Fraction(*lhs.at(t)), Fraction(*rhs.at(t)), extra_ok=False)


def _exact_report(identity, p, n, eta) -> ValidationReport:
    """The row at eta of a fresh proof."""
    t = _exact_t(eta, "an exact identity row needs eta")
    return _exact_row(identity, p, n, eta, t, _prove(identity, p, n))


def verify_identity_n0(p: int, eta: float) -> ValidationReport:
    """Constant-mode identity: the algebraic sum p_frak(0) against the limit
    route's band coefficient (Legendre/digamma closed form)."""
    if p < 1:
        raise ValueError("verify_identity_n0 needs p >= 1")
    return _exact_report("n0", p, 0, eta)


def verify_identity_mid(p: int, n: int, eta: float) -> ValidationReport:
    """Middle-band identity (1 <= n <= p-1): p_frak(n) against the band
    coefficient."""
    if not (p >= 2 and 1 <= n <= p - 1):
        raise ValueError("verify_identity_mid needs p >= 2 and 1 <= n <= p-1")
    return _exact_report("mid", p, n, eta)


def verify_identity_np(p: int, eta: float) -> ValidationReport:
    """Edge identity at n = p: p_frak(p) against the band coefficient."""
    if p < 1:
        raise ValueError("verify_identity_np needs p >= 1")
    return _exact_report("np", p, p, eta)


def verify_identity_tail(p: int, n: int, eta: float) -> ValidationReport:
    """Tail identity (n >= p+1): p_frak(n) against log_tail_coefficient.

    Also checks the equivalent inverse-power rewriting: with q = p+1, the
    coefficient of cos(n psi) in (cosh eta - cos psi)^{-q} equals
    eps_n (-1)^q e^{-n eta} re_{n,q-1} / (2 ((q-1)!)^2 sinh^{2q-1} eta),
    where re_{n,p} = (n+p)!/(n-p-1)! e^{n eta} p_frak(n).
    """
    if n < p + 1:
        raise ValueError("verify_identity_tail needs n >= p+1")
    return _exact_report("tail", p, n, eta)


def verify_re_closed_form(p: int, n: int, eta: float) -> ValidationReport:
    """Rescaled tail sum re_frak against (n+p)!/(n-p-1)! e^{n eta} times the
    tail coefficient, i.e. 2 (-1)^{p+1} p! (p+n)! e^{n eta} sinh^p(eta)
    P_p^{-n}(coth eta)."""
    if n < p + 1:
        raise ValueError("verify_re_closed_form needs n >= p+1")
    return _exact_report("re_closed_form", p, n, eta)


# ---------------------------------------------------------------------------
# float-route comparisons

_FLOOR = 1e-12
_CROSS_ROUTE_TOL = 1e-9
_ORACLE_TOL = 1e-8
_ORACLE_TOL_SMALL_ETA = 1e-6  # the suite's oracle rows below eta = 0.5
_DUAL_TOL = 1e-10


def _cross_route_rows(alg, lim) -> list[ValidationReport]:
    return [
        _report("cross_route", alg.param, n, alg.eta, a, b, _CROSS_ROUTE_TOL, _FLOOR)
        for n, (a, b) in enumerate(zip(alg.coeffs, lim.coeffs))
    ]


def compare_log_routes(p: int, chi: float, nmax: int) -> list[ValidationReport]:
    """Coefficient-by-coefficient comparison of the two log-kernel routes."""
    alg = log_series_algebraic(p, chi, nmax)
    lim = log_series_limit(p, chi, nmax)
    return _cross_route_rows(alg, lim)


def _oracle_rows(table, ref, tol) -> list[ValidationReport]:
    """table's entries n < len(ref) against the oracle's values ref[n]."""
    kernel, param, chi = table.kernel, table.param, table.chi
    scaled_floor = _FLOOR * kernel_scale(kernel, param, chi)
    name = f"oracle_{kernel}" + (f"_{table.method}" if kernel == "log" else "")
    return [_report(name, param, n, table.eta, table.coeffs[n], r, tol, scaled_floor)
            for n, r in enumerate(ref)]


def oracle_reports(
    kernel: str, param: int, chi: float, nmax: int, method: str = "closed_form"
) -> list[ValidationReport]:
    """Series coefficients against the quadrature oracle, to _ORACLE_TOL.

    The absolute floor is scaled by max(1, max|f|): below that level the
    oracle itself carries only noise (spectral floor of float64).
    """
    table = kernel_table(kernel, param, chi, nmax, method)
    ref = _trapezoid(kernel, param, chi, range(min(nmax, table.nmax) + 1))
    return _oracle_rows(table, ref, _ORACLE_TOL)


def verify_axisym_dual(params: SolutionParams, geom: Geometry) -> ValidationReport:
    """Agreement of the two closed forms of the axisymmetric coefficient:
    axisym_component, the n = 0 entry of the limit-route li_expansion,
    against the same entry of the algebraic-route li_expansion, both with
    N = p+1.  Both read their log and power tables through kernel_table,
    so in a process that already holds those tables they are the held ones,
    not tables built afresh from the closed forms."""
    lhs = axisym_component(params, geom)
    rhs = li_expansion(params, geom, params.p + 1, "algebraic").coeffs[0]
    return _report("axisym_dual", params.p, 0, geom.eta, lhs, rhs, _DUAL_TOL, _FLOOR)


# ---------------------------------------------------------------------------
# grid driver


def _float_rows(pmax, etas, nmax) -> list[ValidationReport]:
    """run_validation_suite's float rows, in its order: cross-route, oracle,
    dual form.  Runs in the suite's worker process."""
    reports = []
    routes = {}  # (eta, p): the two log tables at nmax; the oracle reads their prefixes
    for eta in etas:
        chi = math.cosh(eta)
        for p in range(0, pmax + 1):
            alg, lim = routes[eta, p] = (log_series_algebraic(p, chi, nmax),
                                         log_series_limit(p, chi, nmax))
            reports.extend(_cross_route_rows(alg, lim))
    top = min(nmax, 40)
    for eta in etas:
        chi = math.cosh(eta)
        otol = _ORACLE_TOL if eta >= 0.5 else _ORACLE_TOL_SMALL_ETA
        for p in range(0, min(pmax, 5) + 1):
            power = _trapezoid("power", p, chi, range(p + 1))
            reports.extend(_oracle_rows(power_series(p, chi), power, otol))
            log = _trapezoid("log", p, chi, range(top + 1))
            for table in routes[eta, p]:
                reports.extend(_oracle_rows(table, log, otol))
        for q in range(1, min(pmax, 5) + 1):
            inverse = _trapezoid("inverse_power", q, chi, range(top + 1))
            table = inverse_power_series(q, chi, top)
            reports.extend(_oracle_rows(table, inverse, otol))
    for eta in etas:
        if eta < 0.4:
            continue
        for p in range(0, pmax + 1):
            geom = Geometry(
                R=1.3 * math.exp(eta / 2.0), Rprime=1.3 * math.exp(-eta / 2.0), perp_sq=0.0
            )
            params = SolutionParams(d=2, k=p + 1)
            reports.append(verify_axisym_dual(params, geom))
    return reports


def run_validation_suite(
    pmax: int = 10,
    etas: tuple[float, ...] = (0.2, 0.5, 1.0, 2.0, 5.0),
    nmax: int = 50,
) -> list[ValidationReport]:
    """Identity suite + cross-route + oracle + dual-form reports on a grid:
    the exact identity rows, then the float rows.

    The exact identity rows pass on equality alone, the float rows by their
    family's fixed rule (see the module docstring).  etas needs at least one
    eta, and each eta needs e^eta finite and cosh(eta) > 1.  These defaults
    are `polyfourier validate`'s.

    The two halves run at the same time: one worker process, started at the
    platform's default start method, builds the float rows while the caller
    proves the identities and builds the exact rows.  An error in the worker
    is raised here, and the worker has exited when the call returns or
    raises."""
    if pmax < 0 or nmax < pmax + 1:
        raise ValueError("run_validation_suite needs pmax >= 0 and nmax >= pmax + 1")
    if len(etas) == 0:
        raise ValueError("run_validation_suite needs etas: at least one")
    ts = [_exact_t(eta, "run_validation_suite needs etas") for eta in etas]
    keys = [key for p in range(1, pmax + 1)
            for key in [("n0", p, 0), ("np", p, p), *(("mid", p, n) for n in range(1, p))]]
    keys += [(family, p, n) for p in range(pmax + 1) for n in range(p + 1, nmax + 1)
             for family in ("tail", "re_closed_form")]
    # imported here, not at module top, where it would add 20-30 ms to every
    # `import polyfourier`
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=1) as pool:
        float_rows = pool.submit(_float_rows, pmax, etas, nmax)
        proofs = [_prove(*key) for key in keys]  # each identity once, for every eta
        reports = [_exact_row(*key, eta, t, proof)
                   for eta, t in zip(etas, ts) for key, proof in zip(keys, proofs)]
        reports += float_rows.result()
    return reports
