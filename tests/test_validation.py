"""Cross-validation machinery: quadrature oracle, exact-rational identity
checks, route comparison, and the suite driver."""

import dataclasses
import functools
import inspect
import math
import multiprocessing
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings, strategies as st

import polyfourier
import polyfourier.legendre as legendre
import polyfourier.series_algebraic as series_algebraic
import polyfourier.series_limit as series_limit
import polyfourier.validation as validation

from polyfourier import (
    ConvergenceError,
    Geometry,
    SolutionParams,
    quad_fourier_coeff,
    run_validation_suite,
)
from polyfourier.legendre import SYMBOLIC, LegendreArg, RationalT, _legendre
from polyfourier.logpoly import LogPolynomial, logpoly_recurrence
from polyfourier.series_algebraic import _p_frak, _re_frak
from polyfourier.series_limit import _inverse_coefficient, _log_deriv_coefficient
from polyfourier.validation import (
    compare_log_routes,
    kernel_scale,
    oracle_reports,
    verify_axisym_dual,
    verify_identity_mid,
    verify_identity_n0,
    verify_identity_np,
    verify_identity_tail,
    verify_re_closed_form,
)

ETA = 0.8
CHI = math.cosh(ETA)


def test_quadrature_reproduces_simple_coefficients():
    # mean of (chi - cos psi) is chi
    assert quad_fourier_coeff("power", 1, CHI, 0) == pytest.approx(CHI, abs=1e-12)
    # second log coefficient at p = 0 is -e^{-2 eta}
    assert quad_fourier_coeff("log", 0, CHI, 2) == pytest.approx(
        -math.exp(-2 * ETA), abs=1e-12
    )
    # first inverse coefficient at q = 1 is 2 e^{-eta}/sinh eta
    assert quad_fourier_coeff("inverse_power", 1, CHI, 1) == pytest.approx(
        2.0 * math.exp(-ETA) / math.sinh(ETA), abs=1e-11
    )


def test_quadrature_validates_arguments():
    with pytest.raises(ValueError):
        quad_fourier_coeff("cubic", 1, CHI, 0)
    with pytest.raises(ValueError):
        quad_fourier_coeff("power", 1, 0.9, 0)
    with pytest.raises(ValueError):
        quad_fourier_coeff("power", 1, CHI, -1)
    with pytest.raises(ValueError):
        quad_fourier_coeff("inverse_power", 0, CHI, 0)


def test_quadrature_raises_at_node_cap():
    # chi this close to 1 puts a near-pole on the circle: successive levels
    # still disagree at 2^20 nodes, so no convergence claim can be made
    with pytest.raises(ConvergenceError):
        quad_fourier_coeff("inverse_power", 1, 1 + 1e-13, 0)


def test_quadrature_does_not_alias_high_modes():
    # below m = 2n nodes the rule sees cos(n psi) as cos((n mod m) psi), and
    # two such levels agreed on the wrong coefficient: -2.890 for the first,
    # -12.75 for the second, where both are 0 to double precision
    assert abs(quad_fourier_coeff("log", 2, 1.5, 129)) < 1e-12
    assert abs(quad_fourier_coeff("power", 3, 2.0, 129)) < 1e-12


@pytest.mark.parametrize("kernel, param, eta", [
    ("power", 3, 0.5), ("log", 0, 0.2), ("log", 5, 1.0), ("log", 2, 5.0),
    ("inverse_power", 1, 0.2), ("inverse_power", 4, 2.0),
])
def test_one_trapezoid_call_gives_each_n_its_own_bits(kernel, param, eta):
    # the suite asks for n = 0..40 in one call; each n stops by its own rule
    chi = math.cosh(eta)
    many = validation._trapezoid(kernel, param, chi, range(41))
    assert many == [quad_fourier_coeff(kernel, param, chi, n) for n in range(41)]


def test_oracle_refuses_an_n_no_grid_can_estimate():
    # an n is estimated only on grids of more than 2n nodes, its stopping
    # rule compares two of them, and the cap is 2^20
    for n in (600000, 2**19, 2**19 - 1, 2**18):
        with pytest.raises(ValueError, match=r"n < 2\^18.*2n nodes.*two such grids"):
            quad_fourier_coeff("log", 0, 2.0, n)
    with pytest.raises(ValueError, match=r"n < 2\^18"):
        validation.quad_fourier_coeffs("power", 1, 2.0, [0, 2**18])
    # 2^19 - 1 has one grid, 2^20 nodes, and used to raise ConvergenceError
    # after sampling it; the largest n left has two, 2^19 and 2^20 nodes
    assert abs(quad_fourier_coeff("power", 1, 2.0, 2**18 - 1)) < 1e-12


def test_many_n_oracle_call_checks_its_inputs_and_keeps_the_bits():
    chi = math.cosh(0.5)
    assert validation.quad_fourier_coeffs("log", 3, chi, range(30, -1, -3)) == [
        quad_fourier_coeff("log", 3, chi, n) for n in range(30, -1, -3)]
    assert validation.quad_fourier_coeffs("log", 3, chi, []) == []
    for args in (("cubic", 1, CHI), ("power", 1, 0.9), ("inverse_power", 0, CHI),
                 ("log", -1, CHI), ("power", 1, math.inf)):
        with pytest.raises(ValueError):
            validation.quad_fourier_coeffs(*args, [0, 1])
    with pytest.raises(ValueError, match="n >= 0"):
        validation.quad_fourier_coeffs("power", 1, CHI, [0, -1])
    assert "quad_fourier_coeffs" not in polyfourier.__all__


def test_kernel_scale_tracks_kernel_magnitude():
    # inverse kernels blow up as chi -> 1+, the scale must follow
    assert kernel_scale("power", 1, CHI) >= 1.0
    near = 1.0 + 1e-6
    assert kernel_scale("inverse_power", 2, near) > 1e10


def test_identity_checks_are_exact():
    # every verifier works in rationals in t = e^eta; the residual is not
    # merely small, it is exactly zero
    for eta in (0.3, 1.0, 4.0):
        for p in (1, 2, 5):
            r0 = verify_identity_n0(p, eta)
            rp = verify_identity_np(p, eta)
            assert r0.passed and r0.abs_err == 0.0
            assert rp.passed and rp.abs_err == 0.0
            for n in range(1, p):
                rm = verify_identity_mid(p, n, eta)
                assert rm.passed and rm.abs_err == 0.0
            for n in (p + 1, p + 7):
                rt = verify_identity_tail(p, n, eta)
                rr = verify_re_closed_form(p, n, eta)
                assert rt.passed and rt.abs_err == 0.0
                assert rr.passed and rr.abs_err == 0.0


def test_identity_checks_enforce_index_ranges():
    with pytest.raises(ValueError):
        verify_identity_mid(3, 3, ETA)  # n must stay below p
    with pytest.raises(ValueError):
        verify_identity_mid(1, 0, ETA)  # band empty for p = 1
    with pytest.raises(ValueError):
        verify_identity_tail(3, 3, ETA)  # tail starts at p + 1
    with pytest.raises(ValueError):
        verify_re_closed_form(2, 2, ETA)
    with pytest.raises(ValueError):
        verify_identity_n0(0, ETA)  # n = 0 case needs p >= 1


def test_report_fields_are_populated():
    r = verify_identity_tail(2, 5, ETA)
    assert r.identity == "tail"
    assert (r.p, r.n) == (2, 5)
    assert r.eta == ETA
    assert r.tol == 0 and r.floor == 0  # an exact row passes on equality alone
    assert isinstance(r.passed, bool)


def test_exact_checks_take_no_tolerance():
    for check in (verify_identity_n0, verify_identity_np):
        assert list(inspect.signature(check).parameters) == ["p", "eta"]
    for check in (verify_identity_mid, verify_identity_tail, verify_re_closed_form):
        assert list(inspect.signature(check).parameters) == ["p", "n", "eta"]


def test_route_comparison_on_one_table():
    reports = compare_log_routes(3, CHI, 25)
    assert len(reports) == 26
    assert all(r.passed for r in reports)
    assert all(r.identity == "cross_route" for r in reports)


def test_oracle_reports_cover_all_series_methods():
    combos = [
        ("power", 2, 2, "closed_form"),
        ("log", 2, 12, "algebraic"),
        ("log", 2, 12, "limit"),
        ("inverse_power", 2, 12, "closed_form"),
    ]
    for (kernel, param, nmax, method) in combos:
        reports = oracle_reports(kernel, param, CHI, nmax, method)
        assert len(reports) == nmax + 1
        assert all(r.passed for r in reports), (kernel, method)


def test_axisym_dual_report():
    g = Geometry(1.4, 0.7, 0.5)
    r = verify_axisym_dual(SolutionParams(2, 3), g)
    assert r.passed


def test_suite_driver_small_grid_all_pass():
    reports = run_validation_suite(pmax=2, etas=(0.5, 1.0), nmax=8)
    assert reports and all(r.passed for r in reports)
    names = {r.identity for r in reports}
    assert {
        "n0",
        "np",
        "mid",
        "tail",
        "re_closed_form",
        "cross_route",
        "oracle_power",
        "oracle_log_algebraic",
        "oracle_log_limit",
        "oracle_inverse_power",
        "axisym_dual",
    } <= names
    with pytest.raises(ValueError):
        run_validation_suite(pmax=-1)


def test_suite_refuses_a_short_grid_before_its_worker_starts(monkeypatch):
    # the log series need nmax >= p+1; the worker used to find that out
    import concurrent.futures

    def no_pool(*a, **k):
        raise AssertionError("worker started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    with pytest.raises(ValueError, match=r"run_validation_suite needs .*nmax >= pmax \+ 1"):
        run_validation_suite(pmax=3, nmax=2)


def test_suite_driver_degenerate_grid_keeps_banded_identities_out():
    # pmax = 0 leaves only the checks that exist at p = 0: the tail family,
    # the closed-form rearrangement, route comparison, oracles, and the
    # axisymmetric dual form
    reports = run_validation_suite(pmax=0, etas=(1.0,), nmax=8)
    assert reports and all(r.passed for r in reports)
    names = {r.identity for r in reports}
    assert names.isdisjoint({"n0", "np", "mid"})
    assert {"tail", "re_closed_form", "cross_route", "axisym_dual"} <= names


FLOAT_GRID = dict(pmax=2, etas=(0.5, 1.0), nmax=8)


def test_suite_builds_each_table_and_quadrature_once(monkeypatch):
    # the oracle's log rows read the cross-route tables, and its algebraic
    # and limit rows share one trapezoid call per (kernel, param, chi); the
    # suite builds its float rows in a worker process, so count them here
    builds, quads = Counter(), Counter()
    for name in ("log_series_algebraic", "log_series_limit"):
        def counting(p, chi, *rest, name=name, real=getattr(validation, name)):
            builds[name, p, chi] += 1
            return real(p, chi, *rest)

        monkeypatch.setattr(validation, name, counting)
    real_trapezoid = validation._trapezoid

    def counting_trapezoid(kernel, param, chi, ns):
        quads[kernel, param, chi, tuple(ns)] += 1
        return real_trapezoid(kernel, param, chi, ns)

    monkeypatch.setattr(validation, "_trapezoid", counting_trapezoid)
    assert all(r.passed for r in validation._float_rows(**FLOAT_GRID))
    chis = [math.cosh(eta) for eta in FLOAT_GRID["etas"]]
    tables = [(name, p, chi) for name in ("log_series_algebraic", "log_series_limit")
              for p in range(3) for chi in chis]
    assert builds == Counter(tables)
    assert quads == Counter(
        [("power", p, chi, tuple(range(p + 1))) for chi in chis for p in range(3)]
        + [(kernel, param, chi, tuple(range(9))) for chi in chis
           for kernel, params in (("log", (0, 1, 2)), ("inverse_power", (1, 2)))
           for param in params]
    )
    # no memo outlives a call: a second one builds every table again, and
    # an oracle off by 1e-6 fails every oracle row and nothing else
    monkeypatch.setattr(validation, "_trapezoid",
                        lambda *a: [v + 1e-6 for v in real_trapezoid(*a)])
    reports = validation._float_rows(**FLOAT_GRID)
    assert builds == Counter(tables * 2)
    oracle = [r.identity.startswith("oracle_") for r in reports]
    assert any(oracle) and [r.passed for r in reports] == [not o for o in oracle]


def test_float_rows_check_fresh_oracle_tables(monkeypatch):
    # kernel_table's held table used to stand in for the patched closed
    # form, and 0 of these 9 rows failed
    chi = math.cosh(0.5)
    polyfourier.greens.kernel_table("inverse_power", 1, chi, 8)
    real = series_limit._inverse_coefficient
    monkeypatch.setattr(series_limit, "_inverse_coefficient",
                        lambda pt, q, n: real(pt, q, n) + 1e-6)
    rows = [r for r in validation._float_rows(1, (0.5,), 8)
            if r.identity == "oracle_inverse_power"]
    assert len(rows) == 9 and not any(r.passed for r in rows)


EXACT_CHECKS = {
    "n0": lambda p, n, eta: verify_identity_n0(p, eta),
    "np": lambda p, n, eta: verify_identity_np(p, eta),
    "mid": verify_identity_mid,
    "tail": verify_identity_tail,
    "re_closed_form": verify_re_closed_form,
}


def test_suite_worker_changes_no_row():
    # the suite's rows are the exact rows, in the suite's order and each
    # re-proved in this process by its verify_* check, then the float rows
    # built in this process
    grid = dict(pmax=3, etas=(0.5, 1.0), nmax=8)
    reports = run_validation_suite(**grid)
    assert multiprocessing.active_children() == []
    keys = [key for p in range(1, 4)
            for key in [("n0", p, 0), ("np", p, p)] + [("mid", p, n) for n in range(1, p)]]
    keys += [(family, p, n) for p in range(4) for n in range(p + 1, 9)
             for family in ("tail", "re_closed_form")]
    exact = [EXACT_CHECKS[family](p, n, eta) for eta in grid["etas"] for family, p, n in keys]
    want = exact + validation._float_rows(**grid)
    assert [dataclasses.astuple(r) for r in reports] == [dataclasses.astuple(r) for r in want]


def test_a_worker_error_reaches_the_caller_and_leaves_no_process(monkeypatch):
    # the worker is forked from this process, so it runs the patched oracle
    def blown_cap(*a, **k):
        raise ConvergenceError("node cap reached")

    monkeypatch.setattr(validation, "_trapezoid", blown_cap)
    with pytest.raises(ConvergenceError, match="node cap"):
        run_validation_suite(pmax=1, etas=(1.0,), nmax=3)
    assert multiprocessing.active_children() == []


# -- the symbolic point and its memo --------------------------------------------


@pytest.fixture
def cold_points():
    """Empty the symbolic point's memo before and after the test."""
    SYMBOLIC._memo.clear()
    yield
    SYMBOLIC._memo.clear()


def _count_eval_exact(monkeypatch):
    calls = []
    real = LogPolynomial.eval_exact

    def counting(self, x):
        calls.append((self.p, self.k, x))
        return real(self, x)

    monkeypatch.setattr(LogPolynomial, "eval_exact", counting)
    return calls


SMALL_SUITE = dict(pmax=3, etas=(0.5, 1.0), nmax=8)


def test_suite_evaluates_each_logpoly_value_once(cold_points, monkeypatch):
    # one eval_exact per R_p^k, at the symbolic x, whatever the number of eta
    calls = _count_eval_exact(monkeypatch)
    run_validation_suite(**SMALL_SUITE)
    want = {(p, k, SYMBOLIC.x) for p in range(SMALL_SUITE["pmax"] + 1) for k in range(-p, p + 1)}
    assert len(calls) == len(want) == len(set(calls))
    assert set(calls) == want
    run_validation_suite(**dict(SMALL_SUITE, etas=(0.3, 0.7, 2.0, 3.0)))
    assert len(calls) == len(want)


def test_suite_reports_match_on_cold_and_warm_points(cold_points, monkeypatch):
    cold = run_validation_suite(**SMALL_SUITE)
    calls = _count_eval_exact(monkeypatch)
    warm = run_validation_suite(**SMALL_SUITE)
    assert not calls  # the second run was served from the symbolic point's memo
    assert [dataclasses.astuple(r) for r in warm] == [dataclasses.astuple(r) for r in cold]
    assert all(r.passed for r in cold)


def _off_by_tiny(fn):
    # same name and qualname as the real closed form: only the function
    # object tells them apart
    @functools.wraps(fn)
    def wrong(*a):
        return fn(*a) + Fraction(1, 10**30)

    return wrong


@pytest.mark.parametrize(
    "module, name, check",
    [
        # the limit route's right side itself is not memoized
        (validation, "_log_deriv_coefficient", lambda eta: verify_identity_mid(3, 1, eta)),
        # these are memoized on the point, keyed by the function object
        (series_algebraic, "_r_frak", lambda eta: verify_identity_tail(3, 6, eta)),
        (legendre, "_neg_order_sum", lambda eta: verify_identity_tail(3, 6, eta)),
        (legendre, "_legendre", lambda eta: verify_identity_mid(3, 1, eta)),
        # eps_n of the band's weight w_n, read by the right side on every proof
        (series_limit, "neumann", lambda eta: verify_identity_mid(3, 1, eta)),
    ],
    ids=["band_coefficient", "r_frak", "neg_order_sum", "legendre", "power_weight"],
)
def test_memo_cannot_hide_a_wrong_closed_form(cold_points, monkeypatch, module, name, check):
    eta = 0.5
    assert check(eta).passed  # the real closed forms are now memoized
    monkeypatch.setattr(module, name, _off_by_tiny(getattr(module, name)))
    report = check(eta)
    assert not report.passed


FLOAT_RULES = ("_FLOOR", "_CROSS_ROUTE_TOL", "_ORACLE_TOL", "_ORACLE_TOL_SMALL_ETA", "_DUAL_TOL")


def test_suite_tolerances_never_reach_exact_rows(cold_points, monkeypatch):
    # a right side off by 1e-30 is far inside tolerances and floor of 1, yet
    # every exact row fails: the float families' rules govern only the float
    # rows (the worker is forked, so it reads the patched constants)
    for name in FLOAT_RULES:
        monkeypatch.setattr(validation, name, 1.0)
    monkeypatch.setattr(
        validation, "_log_deriv_coefficient", _off_by_tiny(validation._log_deriv_coefficient)
    )
    reports = run_validation_suite(pmax=3, etas=(0.5,), nmax=6)
    assert set(EXACT_FAMILIES) <= {r.identity for r in reports}
    for r in reports:
        assert r.passed == (r.identity not in EXACT_FAMILIES), r
        assert r.tol == (0.0 if r.identity in EXACT_FAMILIES else 1.0), r


def _rule(r):
    """(tol, floor) of a float row, an oracle row's floor over its kernel scale."""
    if not r.identity.startswith("oracle_"):
        return r.tol, r.floor
    kernel = r.identity.removeprefix("oracle_").removesuffix("_algebraic").removesuffix("_limit")
    return r.tol, r.floor / kernel_scale(kernel, r.p, math.cosh(r.eta))


def test_each_float_family_keeps_its_rule():
    # the suite's oracle rows allow 1e-6 below eta = 0.5, oracle_reports
    # 1e-8 at every eta
    tols = {"cross_route": 1e-9, "axisym_dual": 1e-10}
    suite = validation._float_rows(1, (0.2, 1.0), 4)
    assert {r.identity for r in suite} == {
        "cross_route", "axisym_dual", "oracle_power", "oracle_inverse_power",
        "oracle_log_algebraic", "oracle_log_limit"}
    for r in suite:
        want = tols.get(r.identity, 1e-6 if r.eta < 0.5 else 1e-8)
        assert _rule(r) == pytest.approx((want, 1e-12), rel=1e-9), r
    public = compare_log_routes(1, CHI, 4) + oracle_reports("log", 1, math.cosh(0.2), 4, "limit")
    public.append(verify_axisym_dual(SolutionParams(2, 2), Geometry(1.7, 0.6, 0.4)))
    for r in public:
        assert _rule(r) == pytest.approx((tols.get(r.identity, 1e-8), 1e-12), rel=1e-9), r


def test_suite_refuses_an_empty_eta_grid(monkeypatch):
    # "0 checks, 0 failures" would pass a check of nothing
    monkeypatch.setattr(validation, "_prove", None)  # no work starts
    with pytest.raises(ValueError, match="run_validation_suite needs etas"):
        run_validation_suite(etas=())


EXACT_FAMILIES = ("n0", "mid", "np", "tail", "re_closed_form")


def test_exact_rows_pass_off_the_sampled_grid():
    # the identities are proved in t, so they hold at any eta > 0, not only
    # at the five the CLI samples by default
    etas = (0.013, 0.37, 41.0)
    reports = run_validation_suite(pmax=4, etas=etas, nmax=10)
    exact = [r for r in reports if r.identity in EXACT_FAMILIES]
    assert len(exact) == 3 * (4 + 4 + 6 + 2 * sum(10 - p for p in range(5)))
    assert {r.eta for r in exact} == set(etas)
    assert all(r.passed and r.abs_err == 0.0 and math.isfinite(r.lhs) for r in exact)


@seed(20)
@settings(max_examples=150, deadline=None, database=None)
@given(st.floats(min_value=0.05, max_value=10.0), st.integers(0, 10), st.integers(0, 50))
def test_symbolic_values_match_the_float_closed_forms(eta, p, n):
    # relative error of the float point's values against the symbolic point's
    # at t = Fraction(e^eta), wherever the float value is a normal double
    fpt, t = LegendreArg.from_eta(eta), Fraction(math.exp(eta))
    for fn, args in ((_log_deriv_coefficient, (p, n)), (_inverse_coefficient, (p + 1, n)),
                     (_legendre, (p, min(n, p))), (_legendre, (p, -n))):
        got = fn(fpt, *args)
        if abs(got) < sys.float_info.min:
            continue
        want = Fraction(*RationalT.of(fn(SYMBOLIC, *args)).at(t))
        assert abs(Fraction(got) - want) <= Fraction(1e-11) * abs(want), (fn.__name__, args)


class _FractionPoint:
    """The exact point at one t = Fraction(e^eta) in plain Fractions, with no
    memo: the arithmetic the symbolic point replaces."""

    total = staticmethod(sum)
    times = staticmethod(lambda w, *factors: math.prod(factors, start=w))

    def __init__(self, eta):
        t = self.t = Fraction(math.exp(eta))
        self.u = 2 / (t * t - 1)
        self.x = (t * t + 1) / (2 * t)
        self.sinh = (t * t - 1) / (2 * t)

    @staticmethod
    def weight(c):
        return c

    def cached(self, fn, *args):
        return fn(self, *args)

    def exp(self, k):
        return self.t**k

    def sinh_pow(self, k):
        return self.sinh**k

    def scaled_logpoly(self, p, k):
        return self.t**k * logpoly_recurrence(p, k).eval_exact(self.x)


def test_row_sides_equal_a_plain_fraction_evaluation():
    reports = run_validation_suite(pmax=4, etas=(0.3, 2.0), nmax=9)
    sampled = [r for r in reports if r.identity in EXACT_FAMILIES][::3]
    assert {r.identity for r in sampled} == set(EXACT_FAMILIES)
    for r in sampled:
        pt = _FractionPoint(r.eta)
        if r.identity == "re_closed_form":
            lhs = _re_frak(pt, r.n, r.p)
            rhs = math.prod(range(r.n - r.p, r.n + r.p + 1)) * pt.exp(r.n) * (
                _log_deriv_coefficient(pt, r.p, r.n))
        else:
            lhs = _p_frak(pt, r.n, r.p)
            rhs = _log_deriv_coefficient(pt, r.p, r.n)
        assert (r.lhs, r.rhs) == (float(lhs), float(rhs)), r


def test_equal_symbolic_values_hash_equal():
    pt = SYMBOLIC
    pairs = [
        (pt.sinh_pow(2), pt.x * pt.x + -1),  # sinh^2 = cosh^2 - 1
        (pt.exp(1) + pt.exp(-1), 2 * pt.x),
        (pt.u + 1, pt.x / pt.sinh_pow(1)),  # z = coth eta
        ((pt.x + -1) * (pt.x + 1) / 3, Fraction(1, 3) * pt.sinh_pow(2)),
        (pt.sinh_pow(3) / pt.sinh_pow(3), 1),
        (pt.sinh_pow(-2) * 6 * pt.sinh_pow(2), Fraction(6)),
        (pt.exp(2) + -pt.exp(2), 0),
    ]
    for a, b in pairs:
        assert a == b and b == a
        assert hash(a) == hash(b)
    assert pt.sinh_pow(1) != pt.x and len({pt.x, pt.sinh_pow(1), pt.exp(1) + -pt.sinh_pow(1)}) == 2
    with pytest.raises(ValueError, match="monomial"):
        pt.sinh_pow(1) / pt.x


def _fields(x):
    return x.lo, x.c, x.e, x.d


def _general_sum(terms):
    """The sum as one general RationalT(lo, c, e, d): every term's Fraction
    coefficients over the least lo and e, then over one denominator."""
    xs = [RationalT.of(x) for x in terms]
    lo, e = min(x.lo for x in xs), min(x.e for x in xs)
    out = [Fraction(0)] * (max(x.lo + len(x.c) + 2 * x.e for x in xs) - lo - 2 * e)
    for x in xs:
        poly = [Fraction(c, x.d) for c in x.c]
        for _ in range(x.e - e):  # times t^2 - 1
            poly = [(poly[i - 2] if i >= 2 else 0) - (poly[i] if i < len(poly) else 0)
                    for i in range(len(poly) + 2)]
        for i, c in enumerate(poly, x.lo - lo):
            out[i] += c
    d = math.lcm(1, *(c.denominator for c in out))
    return RationalT(lo, [int(c * d) for c in out], e, d)


_RATIONALS = st.builds(RationalT, st.integers(-4, 4), st.lists(st.integers(-30, 30), max_size=5),
                       st.integers(-3, 3), st.integers(1, 40))
_MONOMIALS = st.builds(RationalT, st.integers(-4, 4), st.tuples(st.integers(-30, 30)),
                       st.integers(-3, 3), st.integers(1, 40))
_SCALARS = st.integers(-20, 20) | st.fractions(-20, 20, max_denominator=30)


@seed(14)
@settings(max_examples=200, deadline=None, database=None)
@given(_RATIONALS, _MONOMIALS, _SCALARS, st.lists(_RATIONALS | _SCALARS, max_size=5))
def test_rational_fast_paths_match_the_general_construction(a, m, s, terms):
    # * and / by a monomial divide out the content gcd only, and total
    # canonicalizes once; each must give the fields the general constructor
    # gives for the same value
    n, d = Fraction(s).numerator, Fraction(s).denominator
    want = RationalT(a.lo, [x * n for x in a.c], a.e, a.d * d)
    assert _fields(a * s) == _fields(s * a) == _fields(want)
    want = RationalT(a.lo + m.lo, [x * sum(m.c) for x in a.c], a.e + m.e, a.d * m.d)
    assert _fields(a * m) == _fields(m * a) == _fields(want)
    if s:
        want = RationalT(a.lo, [x * d * (1 if s > 0 else -1) for x in a.c], a.e, a.d * abs(n))
        assert _fields(a / s) == _fields(want)
    if m.c:
        (c,) = m.c
        want = RationalT(a.lo - m.lo, [x * m.d * (1 if c > 0 else -1) for x in a.c], a.e - m.e,
                         a.d * abs(c))
        assert _fields(a / m) == _fields(want)
    assert _fields(-a) == _fields(RationalT(a.lo, [-x for x in a.c], a.e, a.d))
    want = _fields(_general_sum([0, *terms]))
    assert _fields(SYMBOLIC.total(terms)) == want == _fields(sum(terms, RationalT(0, ())))


def test_rational_fast_paths_on_the_edge_cases():
    t2 = RationalT(2, (1,))
    # a sum that gains a t^2 - 1 factor, and one that cancels to zero
    assert _fields(SYMBOLIC.total([t2, -1])) == (0, (1,), 1, 1) == _fields(_general_sum([t2, -1]))
    assert _fields(SYMBOLIC.total([t2, Fraction(-1, 3), -t2, Fraction(1, 3)])) == (0, (), 0, 1)
    # multiplication by 0, by a negative Fraction, and division by one
    poly = RationalT(-1, (3, 0, -6), 2, 5)
    assert _fields(poly * 0) == _fields(0 * poly) == (0, (), 0, 1)
    assert _fields(poly * Fraction(-5, 3)) == (-1, (-1, 0, 2), 2, 1)
    assert _fields(poly / Fraction(-3, 7)) == (-1, (-7, 0, 14), 2, 5)
    assert _fields(poly * SYMBOLIC.u) == (-1, (6, 0, -12), 1, 5)
