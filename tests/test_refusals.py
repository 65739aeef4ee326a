"""Input refusals, one case per guarded entry point: each bad call raises its
typed error with a message that names what was wrong, and each bad command
line exits with the CLI's documented code."""

import math

import pytest

from polyfourier import (
    FourierCoeffTable,
    SolutionParams,
    default_nmax,
    greens_eval,
    inverse_power_series,
    legendre_deg_deriv,
    li_direct,
    log_series_algebraic,
    log_series_limit,
    logpoly_difference_algorithm,
    power_series,
    quad_fourier_coeff,
    verify_identity_np,
)
from polyfourier.cli import main
from polyfourier.legendre import LegendreArg, RationalT, neg_order_sum, taylor_coeffs_at1
from polyfourier.series_algebraic import p_frak, re_frak
from polyfourier.series_limit import (
    _log_deriv_coefficient,
    log_tail_coefficient,
    power_coefficient,
)

REFUSALS = [
    (lambda: power_series(-1, 2.0), ValueError, "power_series needs p >= 0"),
    (lambda: inverse_power_series(0, 2.0), ValueError, "inverse_power_series needs q >= 1"),
    (lambda: log_series_limit(-1, 2.0), ValueError, "log_series_limit needs p >= 0"),
    (lambda: log_series_algebraic(-1, 2.0), ValueError, "log_series_algebraic needs p >= 0"),
    (lambda: power_coefficient(2, 3, 1.0), ValueError, "power_coefficient needs 0 <= n <= p"),
    (lambda: log_tail_coefficient(2, 2, 1.0), ValueError, "log_tail_coefficient needs n >= p+1"),
    (lambda: re_frak(2, 2, 1.0), ValueError, "re_frak needs n >= p+1"),
    (lambda: p_frak(-1, 2, 1.0), ValueError, "p_frak needs n >= 0 and p >= 0"),
    (lambda: neg_order_sum(-1, 0, 2.0), ValueError, "neg_order_sum needs p >= 0"),
    (lambda: legendre_deg_deriv(-1, 0, 2.0), ValueError, "legendre_deg_deriv needs p >= 0"),
    (lambda: legendre_deg_deriv(2, -1, 2.0), ValueError, "legendre_deg_deriv handles m >= 0 only"),
    (lambda: taylor_coeffs_at1(2, 3), ValueError, "taylor_coeffs_at1 needs 0 <= m <= p"),
    (lambda: RationalT.of(1.5), TypeError, "RationalT does not mix with float"),
    (lambda: FourierCoeffTable("log", 0, 2.0, math.acosh(2.0), "limit", ()), ValueError,
     "empty coefficient table"),
    (lambda: log_series_limit(0, 2.0, 4).coeff(-1), ValueError, "coefficient index must be >= 0"),
    (lambda: default_nmax(1, 1.0, 0.0), ValueError, "tail_tol must be in (0, 1)"),
    (lambda: logpoly_difference_algorithm(-1), ValueError,
     "logpoly_difference_algorithm needs p >= 0"),
    (lambda: verify_identity_np(0, 1.0), ValueError, "verify_identity_np needs p >= 1"),
    (lambda: li_direct(SolutionParams(2, 1), (1.0, 0.0), (0.0, 1.0, 0.0)), ValueError,
     "point dimension must equal params.d"),
]


@pytest.mark.parametrize("call,error,fragment", REFUSALS,
                         ids=[fragment for _, _, fragment in REFUSALS])
def test_bad_input_is_refused_by_name(call, error, fragment):
    with pytest.raises(error) as info:
        call()
    assert fragment in str(info.value)


def test_both_pointwise_functions_refuse_points_of_another_dimension():
    # 2-D points in a 4-D problem: of equal length, but not params.d long
    params, x, xp = SolutionParams(4, 2), (1.0, 0.0), (0.0, 1.0)
    for fn in (greens_eval, li_direct):
        with pytest.raises(ValueError, match="point dimension must equal params.d"):
            fn(params, x, xp)


# (d, k, x): r^{2k-d} at r = x is subnormal (1e-20 at k = 9, 1e160 at d = 4)
# or 0.0, which would make the value 0.0 whatever the true one
UNDERFLOWS = [(2, 9, 1e-20), (2, 9, 1e-21), (2, 9, 1e-200), (4, 1, 1e160), (4, 1, 1e200),
              (3, 5, 1e-60)]


@pytest.mark.parametrize("d,k,x", UNDERFLOWS, ids=[f"d{d}-k{k}-r{x:g}" for d, k, x in UNDERFLOWS])
def test_a_distance_power_below_the_normal_range_is_refused(d, k, x):
    # in the log regime greens_eval is li_direct times a constant, and the
    # refusal names li_direct, as its overflow does
    params = SolutionParams(d, k)
    point, origin = (x,) + (0.0,) * (d - 1), (0.0,) * d
    name = "li_direct" if params.is_log_regime else "greens_eval"
    for fn in (greens_eval, li_direct) if params.is_log_regime else (greens_eval,):
        with pytest.raises(ValueError, match=f"{name} underflows double precision"):
            fn(params, point, origin)


# (d, k, x): r^{2k-d} (log r - beta) is a normal double, but the log branch's
# constant (k-1)! p! 2^{2k-1} pi^{d/2} is past the float range and the value
# under it (-6.2e-466 at k = 120, r = 1, by mpmath)
TINY_LOG_VALUES = [(2, 120, 1.0), (2, 1201, 1.0), (2, 300, 1.5), (4, 150, 3.0)]


@pytest.mark.parametrize("d,k,x", TINY_LOG_VALUES,
                         ids=[f"d{d}-k{k}-r{x:g}" for d, k, x in TINY_LOG_VALUES])
def test_a_log_value_under_its_overflowing_constant_is_refused_as_an_underflow(d, k, x):
    params = SolutionParams(d, k)
    point, origin = (x,) + (0.0,) * (d - 1), (0.0,) * d
    assert abs(li_direct(params, point, origin)) >= 2.0**-1022
    with pytest.raises(ValueError, match="greens_eval underflows double precision"):
        greens_eval(params, point, origin)


def test_log_tail_coefficient_is_the_tail_closed_form():
    p, n, eta = 2, 5, 0.7
    value = log_tail_coefficient(p, n, eta)
    assert value == _log_deriv_coefficient(LegendreArg.from_eta(eta), p, n)
    assert value == pytest.approx(quad_fourier_coeff("log", p, math.cosh(eta), n), rel=1e-8)


@pytest.mark.parametrize("argv,code,stderr", [
    (["coeffs", "--kernel", "log", "--chi", "2.0"], 2, "error: log kernel needs --p >= 0"),
    (["coeffs", "--kernel", "log", "--p", "1", "--chi", "2.0", "--nmax", "-1"], 2,
     "error: --nmax must be >= 0"),
    # both points on the unit ring: chi = 1, so the value is printed without a table
    (["greens", "--d", "2", "--k", "1", "--x", "1,0", "--xp", "0,1"], 0,
     "note: no azimuthal expansion (degenerate geometry: chi must exceed 1)"),
    # r^16 = 1e-336 is 0.0 in double precision: refused as 1e-320 at r = 1e-20 is
    (["greens", "--d", "2", "--k", "9", "--x", "1e-21,0", "--xp", "0,0"], 2,
     "error: li_direct underflows double precision"),
], ids=["coeffs-log-without-p", "coeffs-negative-nmax", "greens-degenerate",
        "greens-power-underflows-to-zero"])
def test_cli_refusals_and_notes(capsys, argv, code, stderr):
    assert main(argv) == code
    out, err = capsys.readouterr()
    assert err.splitlines() == [stderr]
    assert ("value," in out) == (code == 0)
