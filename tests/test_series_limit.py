"""Limit-route cosine expansions of (chi - cos psi)^p, (chi - cos psi)^{-q},
and (chi - cos psi)^p log(chi - cos psi).

Expected values below are closed forms checked independently against the
periodic-trapezoid quadrature oracle before being frozen here."""

import math
from fractions import Fraction

import numpy as np
import pytest

from polyfourier import (
    default_nmax,
    inverse_power_series,
    log_series_algebraic,
    log_series_limit,
    power_coefficient,
    power_series,
    quad_fourier_coeff,
)
from polyfourier.legendre import ExactLegendreArg, LegendreArg
from polyfourier.series_limit import _log_band_coefficient, _log_tail_coefficient

ETA = 0.7
CHI = math.cosh(ETA)
CH = math.cosh(ETA)
SH = math.sinh(ETA)
L = ETA - math.log(2.0)


def e(x):
    return math.exp(x)


def test_power_series_linear_case():
    # c_0 passes through the chi -> eta -> cosh round trip, so allow one ulp
    t = power_series(1, CHI)
    assert t.coeffs[0] == pytest.approx(CHI, rel=1e-15)
    assert t.coeffs[1] == pytest.approx(-1.0, rel=1e-15)
    assert t.kernel == "power" and t.param == 1


def test_power_series_quadratic_case():
    # (chi - cos)^2 = chi^2 + 1/2 - 2 chi cos + (1/2) cos 2psi
    t = power_series(2, CHI)
    assert t.coeffs[0] == pytest.approx(CHI * CHI + 0.5, rel=1e-15)
    assert t.coeffs[1] == pytest.approx(-2.0 * CHI, rel=1e-15)
    assert t.coeffs[2] == pytest.approx(0.5, rel=1e-15)


def test_power_series_is_finite_and_zero_extended():
    t = power_series(3, CHI)
    assert t.nmax == 3
    assert t.coeff(11) == 0.0


def test_power_coefficient_matches_series_entry():
    for p in range(6):
        t = power_series(p, CHI)
        for n in range(p + 1):
            assert power_coefficient(p, n, ETA) == pytest.approx(
                t.coeffs[n], rel=1e-13, abs=1e-300
            )


def test_power_series_reconstructs_kernel():
    for p in (0, 1, 4):
        t = power_series(p, CHI)
        for psi in (0.0, 0.4, 2.0, math.pi):
            assert t.reconstruct(psi) == pytest.approx(
                (CHI - math.cos(psi)) ** p, rel=1e-13
            )


def test_inverse_power_first_three_orders():
    # closed forms: the coefficient of cos(n psi) with weight eps_n is
    #  q=1: e^{-n eta} / sinh
    #  q=2: e^{-n eta} (n sinh + cosh) / sinh^3
    #  q=3: e^{-n eta} ((n^2-1) sinh^2 + 3 n sinh cosh + 3 cosh^2) / (2 sinh^5)
    t1 = inverse_power_series(1, CHI, 8)
    t2 = inverse_power_series(2, CHI, 8)
    t3 = inverse_power_series(3, CHI, 8)
    for n in range(9):
        eps = 1 if n == 0 else 2
        assert t1.coeffs[n] == pytest.approx(eps * e(-n * ETA) / SH, rel=1e-13)
        assert t2.coeffs[n] == pytest.approx(
            eps * e(-n * ETA) * (n * SH + CH) / SH**3, rel=1e-13
        )
        assert t3.coeffs[n] == pytest.approx(
            eps
            * e(-n * ETA)
            * ((n * n - 1) * SH * SH + 3 * n * SH * CH + 3 * CH * CH)
            / (2 * SH**5),
            rel=1e-12,
        )


def test_inverse_power_reconstructs_kernel():
    t = inverse_power_series(2, CHI)
    for psi in (0.1, 1.0, 3.0):
        assert t.reconstruct(psi) == pytest.approx(
            (CHI - math.cos(psi)) ** -2, rel=1e-9
        )


def test_inverse_power_auto_truncation_tail_is_small():
    t = inverse_power_series(1, CHI, tail_tol=1e-12)
    assert abs(t.coeffs[-1]) < 1e-11


def test_log_series_constant_power():
    t = log_series_limit(0, CHI, 12)
    assert t.coeffs[0] == pytest.approx(ETA - math.log(2.0), rel=1e-15)
    for n in range(1, 13):
        assert t.coeffs[n] == pytest.approx(-2.0 * e(-n * ETA) / n, rel=1e-14)


def test_log_series_linear_power():
    t = log_series_limit(1, CHI, 12)
    assert t.coeffs[0] == pytest.approx((1.0 + L) * CH - SH, rel=1e-14)
    assert t.coeffs[1] == pytest.approx(
        math.log(2.0) - 1.0 - ETA - 0.5 * e(-2 * ETA), rel=1e-14
    )
    for n in range(2, 13):
        assert t.coeffs[n] == pytest.approx(
            2.0 * e(-n * ETA) * (CH + n * SH) / (n * (n * n - 1)), rel=1e-13
        )


def test_log_series_quadratic_power():
    t = log_series_limit(2, CHI, 12)
    assert t.coeffs[0] == pytest.approx(
        L * (CH * CH + 0.5) + 2 * CH * e(-ETA) - 0.25 * e(-2 * ETA), rel=1e-13
    )
    assert t.coeffs[1] == pytest.approx(
        -2 * L * CH
        - (2 * CH * CH + 1.5) * e(-ETA)
        + CH * e(-2 * ETA)
        - e(-3 * ETA) / 6.0,
        rel=1e-13,
    )
    assert t.coeffs[2] == pytest.approx(
        0.5 * L
        + 2 * CH * e(-ETA)
        - 0.5 * (2 * CH * CH + 1) * e(-2 * ETA)
        + (2.0 / 3.0) * CH * e(-3 * ETA)
        - 0.125 * e(-4 * ETA),
        rel=1e-13,
    )
    for n in range(3, 13):
        bracket = (n * n - 1) * SH * SH + 3 * n * SH * CH + 3 * CH * CH
        assert t.coeffs[n] == pytest.approx(
            -4.0 * e(-n * ETA) * bracket / (n * (n * n - 1) * (n * n - 4)),
            rel=1e-12,
        )


def test_log_series_reconstructs_kernel():
    for p in (0, 1, 3):
        nmax = default_nmax(p, ETA, 1e-12)
        t = log_series_limit(p, CHI, nmax)
        psi = np.linspace(0.0, math.pi, 7)
        want = (CHI - np.cos(psi)) ** p * np.log(CHI - np.cos(psi))
        got = t.reconstruct(psi)
        assert np.allclose(got, want, rtol=1e-10, atol=1e-10)


def test_log_series_needs_room_for_the_band():
    with pytest.raises(ValueError):
        log_series_limit(4, CHI, 3)


def test_log_tail_ratio_approaches_geometric_decay():
    # |c_{n+1}/c_n| -> e^{-eta} with a (2p+1)/n correction; checked on
    # well-conditioned tables only (eta >= 0.5).
    for eta in (0.5, 1.0, 2.0):
        for p in (0, 1, 3):
            t = log_series_limit(p, math.cosh(eta), 40)
            for n in range(max(p + 2, 10), 39):
                ratio = abs(t.coeffs[n + 1] / t.coeffs[n])
                assert abs(ratio - e(-eta)) <= 1.5 * e(-eta) * (2 * p + 1) / n


def test_band_and_tail_match_their_exact_evaluation():
    # relative error of the float entries against the same closed forms
    # evaluated exactly at t = e^eta, with no absolute floor to hide behind
    for eta in (0.2, 0.5, 1.0, 2.0, 5.0):
        fpt, xpt = LegendreArg.from_eta(eta), ExactLegendreArg.from_eta(eta)
        for p in range(11):
            for n in range(51):
                coeff = _log_band_coefficient if n <= p else _log_tail_coefficient
                want = coeff(xpt, p, n)
                err = abs(Fraction(coeff(fpt, p, n)) - want)
                assert err <= Fraction(1e-11) * abs(want), (p, n, eta, float(err / want))


def test_default_nmax_tail_bound_and_increment():
    for eta in (0.5, 1.0, 2.0):
        for p in (0, 2, 5):
            n1 = default_nmax(p, eta, 1e-10)
            assert n1 >= p + 1
            assert e(-n1 * eta) * n1 ** (2 * p) < 1e-10
            # halving the tolerance moves the cut by about log(2)/eta
            n2 = default_nmax(p, eta, 0.5e-10)
            assert 0 <= n2 - n1 <= math.ceil(math.log(2.0) / eta)


def _real_degree_coefficient(nu: float, n: int, z: float) -> float:
    """n-th cosine coefficient of (chi - cos psi)^nu with z = coth(eta).

    Independent oracle: eps_n (chi^2-1)^{nu/2} prod_{j<n}(j - nu) P_nu^{-n}(z).
    At integer nu the product annihilates n > nu, recovering the finite table;
    the nu-derivative at nu = p therefore gives the log-kernel coefficients.
    """
    from polyfourier import legendre_p_nu

    eps = 1.0 if n == 0 else 2.0
    sinh_eta = 1.0 / math.sqrt(z * z - 1.0)
    prod = 1.0
    for j in range(n):
        prod *= j - nu
    return eps * sinh_eta**nu * prod * legendre_p_nu(nu, -n, z)


def test_log_series_is_the_degree_derivative_of_the_power_family():
    # centered difference in the exponent nu reproduces the log table
    z = 2.0
    eta = math.atanh(1.0 / z)
    chi = math.cosh(eta)
    h = 1e-5
    for p in range(4):
        table = log_series_limit(p, chi, 8)
        for n in range(9):
            fd = (
                _real_degree_coefficient(p + h, n, z)
                - _real_degree_coefficient(p - h, n, z)
            ) / (2.0 * h)
            assert table.coeffs[n] == pytest.approx(fd, rel=1e-6, abs=1e-12)


@pytest.mark.parametrize(
    "route",
    [
        lambda chi: power_series(2, chi),
        lambda chi: inverse_power_series(1, chi),
        lambda chi: log_series_limit(3, chi),
        lambda chi: log_series_algebraic(3, chi),
        lambda chi: quad_fourier_coeff("log", 3, chi, 0),
    ],
    ids=["power", "inverse_power", "log_limit", "log_algebraic", "quadrature"],
)
@pytest.mark.parametrize("chi", [math.inf, math.nan])
def test_every_route_rejects_non_finite_chi(route, chi):
    # before, chi = inf gave (inf, nan, nan) for the power kernel and a bare
    # fsum error for the log kernel
    with pytest.raises(ValueError):
        route(chi)
