"""Cross-validation machinery: quadrature oracle, exact-rational identity
checks, route comparison, and the suite driver."""

import dataclasses
import functools
import math
from fractions import Fraction

import pytest

import polyfourier.series_algebraic as series_algebraic
import polyfourier.series_limit as series_limit
import polyfourier.validation as validation

from polyfourier import (
    ConvergenceError,
    Geometry,
    SolutionParams,
    compare_log_routes,
    oracle_reports,
    quad_fourier_coeff,
    run_validation_suite,
    verify_axisym_dual,
    verify_identity_mid,
    verify_identity_n0,
    verify_identity_np,
    verify_identity_tail,
    verify_re_closed_form,
)
from polyfourier.legendre import ExactLegendreArg
from polyfourier.logpoly import LogPolynomial
from polyfourier.validation import kernel_scale

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
    # a single level leaves nothing to compare against, so no convergence
    # claim can be made
    with pytest.raises(ConvergenceError):
        quad_fourier_coeff("log", 1, CHI, 0, nodes=64, max_nodes=64)


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
    assert r.tol > 0 and r.floor > 0
    assert isinstance(r.passed, bool)


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
    reports = run_validation_suite(
        pmax=2, etas=(0.5, 1.0), nmax=8, include_oracle=True
    )
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


def test_suite_driver_degenerate_grid_keeps_banded_identities_out():
    # pmax = 0 leaves only the checks that exist at p = 0: the tail family,
    # the closed-form rearrangement, route comparison, oracles, and the
    # axisymmetric dual form
    reports = run_validation_suite(pmax=0, etas=(1.0,), nmax=8)
    assert reports and all(r.passed for r in reports)
    names = {r.identity for r in reports}
    assert names.isdisjoint({"n0", "np", "mid"})
    assert {"tail", "re_closed_form", "cross_route", "axisym_dual"} <= names


# -- the exact point's memo ---------------------------------------------------


@pytest.fixture
def cold_points():
    """Empty the shared exact-point cache before and after the test."""
    ExactLegendreArg.from_eta.cache_clear()
    yield
    ExactLegendreArg.from_eta.cache_clear()


def _count_eval_exact(monkeypatch):
    calls = []
    real = LogPolynomial.eval_exact

    def counting(self, x):
        calls.append((self.p, self.k, x))
        return real(self, x)

    monkeypatch.setattr(LogPolynomial, "eval_exact", counting)
    return calls


SMALL_SUITE = dict(pmax=3, etas=(0.5, 1.0), nmax=8, include_oracle=False)


def test_suite_evaluates_each_logpoly_value_once(cold_points, monkeypatch):
    calls = _count_eval_exact(monkeypatch)
    run_validation_suite(**SMALL_SUITE)
    want = {
        (p, k, ExactLegendreArg.from_eta(eta).x)
        for eta in SMALL_SUITE["etas"]
        for p in range(SMALL_SUITE["pmax"] + 1)
        for k in range(-p, p + 1)
    }
    assert len(calls) == len(want) == len(set(calls))
    assert set(calls) == want


def test_suite_reports_match_on_cold_and_warm_points(cold_points, monkeypatch):
    cold = run_validation_suite(**SMALL_SUITE)
    calls = _count_eval_exact(monkeypatch)
    warm = run_validation_suite(**SMALL_SUITE)
    assert not calls  # the second run was served from the shared points
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
        # the band coefficient itself is not memoized
        (validation, "_log_band_coefficient", lambda eta: verify_identity_mid(3, 1, eta)),
        # these are memoized on the point, keyed by the function object
        (series_algebraic, "_r_frak", lambda eta: verify_identity_tail(3, 6, eta)),
        (series_limit, "_neg_order_sum", lambda eta: verify_identity_tail(3, 6, eta)),
        (series_limit, "_legendre", lambda eta: verify_identity_mid(3, 1, eta)),
    ],
    ids=["band_coefficient", "r_frak", "neg_order_sum", "legendre"],
)
def test_memo_cannot_hide_a_wrong_closed_form(cold_points, monkeypatch, module, name, check):
    eta = 0.5
    assert check(eta).passed  # the real closed forms are now memoized at eta
    monkeypatch.setattr(module, name, _off_by_tiny(getattr(module, name)))
    report = check(eta)
    assert not report.passed
