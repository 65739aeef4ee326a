"""Limit-route cosine expansions of (chi - cos psi)^p, (chi - cos psi)^{-q},
and (chi - cos psi)^p log(chi - cos psi).

Expected values below are closed forms checked independently against the
periodic-trapezoid quadrature oracle before being frozen here."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from polyfourier import (
    default_nmax,
    eta_from_chi,
    harmonic,
    inverse_power_series,
    legendre_deg_deriv,
    legendre_p,
    log_series_algebraic,
    log_series_limit,
    power_series,
    quad_fourier_coeff,
)
from polyfourier.legendre import SYMBOLIC, LegendreArg
from polyfourier.scalars import neumann, pochhammer
from polyfourier.series_limit import (
    _log_deriv_coefficient,
    _power_coefficient,
    _power_weight,
    power_coefficient,
)

ETA = 0.7
CHI = math.cosh(ETA)
CH = math.cosh(ETA)
SH = math.sinh(ETA)
L = ETA - math.log(2.0)


def e(x):
    return math.exp(x)


def test_power_series_linear_case():
    # the power row runs in chi itself: c_0 = chi and c_1 = -1 exactly
    t = power_series(1, CHI)
    assert t.coeffs == (CHI, -1.0)
    assert t.kernel == "power" and t.param == 1


def test_power_series_quadratic_case():
    # (chi - cos)^2 = chi^2 + 1/2 - 2 chi cos + (1/2) cos 2psi
    # the power row forms c_0 as 0.5 + chi^2, each step rounded as here
    t = power_series(2, CHI)
    assert t.coeffs == (CHI * CHI + 0.5, -2.0 * CHI, 0.5)


def test_power_series_is_finite_and_zero_extended():
    t = power_series(3, CHI)
    assert t.nmax == 3
    assert t.coeff(11) == 0.0


def test_power_coefficient_matches_series_entry():
    # both read the power row, at x = cosh(ETA) = CHI
    for p in range(6):
        t = power_series(p, CHI)
        assert [power_coefficient(p, n, ETA) for n in range(p + 1)] == list(t.coeffs)


def test_power_weight_is_the_reduced_pochhammer_form():
    # (-p)_n (p-n)! = (-1)^n p!, so w_n = eps_n (-p)_n (p-n)!/(p+n)! needs no
    # Pochhammer symbol
    for p in range(31):
        for n in range(p + 1):
            assert _power_weight(p, n) == Fraction(
                neumann(n) * pochhammer(-p, n) * math.factorial(p - n), math.factorial(p + n))


def test_power_coefficients_sum_exactly_to_the_kernel_at_0_and_pi():
    # sum_n f_n cos(n psi) = (x - cos psi)^p at psi = 0 and pi, x = cosh eta:
    # the power closed form at the symbolic point, an identity in t = e^eta
    pt = SYMBOLIC
    for p in range(13):
        f = [_power_coefficient(pt, p, n) for n in range(p + 1)]
        assert sum(f) == math.prod([pt.x + -1] * p)
        assert sum((-1) ** n * c for n, c in enumerate(f)) == math.prod([pt.x + 1] * p)


def test_power_series_reconstructs_kernel():
    # reconstruct's error is a few u sum|c_n| (tables.FourierCoeffTable), so
    # relative to f it is a few u sum|c_n|/|f|, which at p = 4 reaches 6,100
    # at psi = 0: against 40 digits, measured at most 1.21 u sum|c_n|/|f|
    u = 2.0**-53
    for p in (0, 1, 4):
        t = power_series(p, CHI)
        bound = 4 * u * sum(map(abs, t.coeffs))
        for psi in (0.0, 0.4, 2.0, math.pi):
            with mpmath.workdps(40):
                want = float((mpmath.mpf(CHI) - mpmath.cos(psi)) ** p)
            assert t.reconstruct(psi) == pytest.approx(want, rel=bound / want, abs=0.0), (p, psi)


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
    t = inverse_power_series(1, CHI, nmax=default_nmax(1, eta_from_chi(CHI), 1e-12))
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
    # relative error of the float entries against the same closed forms at
    # the symbolic point, evaluated exactly at t = e^eta, with no absolute
    # floor to hide behind
    etas = (0.2, 0.5, 1.0, 2.0, 5.0)
    fpts = [LegendreArg.from_eta(eta) for eta in etas]
    ts = [Fraction(math.exp(eta)) for eta in etas]
    for p in range(11):
        for n in range(51):
            exact = _log_deriv_coefficient(SYMBOLIC, p, n)
            for eta, fpt, t in zip(etas, fpts, ts):
                want = Fraction(*exact.at(t))
                err = abs(Fraction(_log_deriv_coefficient(fpt, p, n)) - want)
                assert err <= Fraction(1e-11) * abs(want), (p, n, eta, float(err / want))


def test_band_coefficient_is_the_degree_derivative_of_the_power_coefficient():
    # d f_n / d p with f_n = w_n sinh^p(eta) P_p^n(z), z = coth eta, taken
    # through the public legendre_deg_deriv, whose finite-difference check is
    # criterion 5: w_n sinh^p [dP/dnu + (H_p - H_{p+n} - log((z+1)/2)) P]
    for eta in (0.05, 0.2, 0.5, 1.0, 2.0, 5.0):
        pt, z = LegendreArg.from_eta(eta), 1.0 / math.tanh(eta)
        for p in range(11):
            for n in range(p + 1):
                eps = 1 if n == 0 else 2
                w = eps * (-1) ** n * Fraction(math.factorial(p), math.factorial(p + n))
                scale = float(w) * math.sinh(eta) ** p
                f = scale * legendre_p(p, n, z)
                shift = float(harmonic(p) - harmonic(p + n)) - math.log((z + 1.0) / 2.0)
                want = scale * legendre_deg_deriv(p, n, z) + shift * f
                got = _log_deriv_coefficient(pt, p, n)
                assert abs(got - want) <= 1e-10 * max(abs(got), abs(f)), (p, n, eta)


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
    from polyfourier.validation import legendre_p_nu

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


# -- large p: the power row, and exact weights whose cast is not a normal double --
# f_n's weight eps_n (-1)^n p!/(p+n)! is subnormal from p = 135 (n = p) and 0.0
# from p = 140; the point's times casts it scaled by a power of two instead.
# The power row needs no weight: its entries keep their digits at every chi.

def _power_reference(pmax: int, chi: float) -> dict[int, list]:
    """{p: [c_0 .. c_p]} of (chi - cos psi)^p in mpmath, by multiplying by
    chi - cos psi p times, cos psi cos n psi = (cos (n-1) psi + cos (n+1) psi)/2.
    c_n has the sign (-1)^n, so each step adds terms of one sign and no digit
    cancels."""
    x, out = mpmath.mpf(chi), {0: [mpmath.mpf(1)]}
    for p in range(1, pmax + 1):
        a, b = out[p - 1], [mpmath.mpf(0)] * (p + 1)
        for n, an in enumerate(a):
            b[n] += x * an
            for k in {abs(n - 1), n + 1}:
                b[k] -= an / 2 if n else an
        out[p] = b
    return out


def _log_reference(p: int, chi: float, nmax: int) -> list:
    """c_0 .. c_nmax of (chi - cos psi)^p log(chi - cos psi) in mpmath: the
    power series times log(chi - cos psi) = eta - log 2 - 2 sum_m e^{-m eta}
    cos(m psi)/m, cos A cos B = (cos (A+B) + cos (A-B))/2.  Past m = p + nmax
    no log term reaches n <= nmax, so the sum is finite; it cancels, so the
    caller sets the precision."""
    a, eta = _power_reference(p, chi)[p], mpmath.acosh(chi)
    b = [eta - mpmath.log(2)] + [-2 * mpmath.exp(-m * eta) / m for m in range(1, p + nmax + 1)]
    out = [mpmath.mpf(0)] * (nmax + 1)
    for j, aj in enumerate(a):
        for m, bm in enumerate(b):
            for k in (j + m, abs(j - m)):
                if k <= nmax:
                    out[k] += aj * bm / 2
    return out


def _worst_relative_error(got, want) -> float:
    return max(float(abs(g / w - 1)) for g, w in zip(got, want, strict=True))


@pytest.mark.parametrize("chi", [1.5, 3.0])
def test_power_series_past_the_subnormal_weight_against_mpmath(chi):
    # the closed form's guarded weight cast, which the tables no longer read:
    # with the cast unguarded, the error at chi = 1.5 was 1.4e-11 at p = 136
    # and 1.2e-6 at p = 138, and from p = 140 entries of 1e-42 .. 1e-24 came
    # back 0.0
    with mpmath.workdps(40):
        want = _power_reference(150, chi)
    pt = LegendreArg.from_eta(eta_from_chi(chi))
    for p in range(136, 151):
        closed = [_power_coefficient(pt, p, n) for n in range(p + 1)]
        assert _worst_relative_error(closed, want[p]) < 1e-13, p


def test_leading_power_coefficient_is_exact_up_to_the_last_degree():
    # c_p = 2 (-1)^p 2^-p at every chi, the power row's exact start; the
    # closed form has it as the weight (-1)^p 2 p!/(2p)! times
    # sinh^p(eta) P_p^p(coth eta) = (2p-1)!!, to within 1e-14 up to p = 150
    # at chi = 1.5, where at p = 135 it is exactly -2^-134
    eta = eta_from_chi(1.5)
    pt = LegendreArg.from_eta(eta)
    for p in range(1, 151):
        want = 2.0 * (-0.5) ** p
        assert power_coefficient(p, p, eta) == want, p
        assert _power_coefficient(pt, p, p) == pytest.approx(want, rel=1e-14, abs=0.0), p
    assert _power_coefficient(pt, 135, 135) == -(2.0**-134)
    for p in (110, 130):
        assert power_series(p, 1.5).coeffs[p] == 2.0 * (-0.5) ** p, p


@pytest.mark.parametrize("p, chi", [(130, 1.2), (110, 1.01)])
def test_leading_power_coefficient_nearer_chi_1(p, chi):
    # the closed form had c_130 at chi = 1.2 off by 3.2e-5, and c_110 at
    # chi = 1.01 came back 0.0 for 2^-109; the power row starts from it
    assert abs(power_series(p, chi).coeffs[p] / (2.0 * (-0.5) ** p) - 1) < 1e-14


# chi from 1 + 1e-8 to 1e4; at 1e4 the entries fit a double up to p = 77
POWER_ROW_CHIS = (1 + 1e-8, 1 + 1e-6, 1 + 1e-4, 1.01, 1.2, 1.5, 3.0, 10.0, 100.0, 1e4)


@pytest.mark.parametrize("chi", POWER_ROW_CHIS)
def test_power_row_against_mpmath(chi):
    # every entry of every power table p <= 150 within 4e-15 relative of
    # 60 digits (measured: at most 3.0e-15, at chi = 100), wherever the
    # entries fit a double; where c_0 does not, the table is refused.  The
    # closed form was off by up to 1.0 at chi <= 1.2, or refused the table
    # (94 of 151 degrees at chi = 1 + 1e-8).  Where sinh(eta)^p overflows
    # too, the table names that first
    with mpmath.workdps(60):
        want = _power_reference(150, chi)
    for p in range(151):
        if abs(want[p][0]) < mpmath.mpf(2) ** 1024:
            assert _worst_relative_error(power_series(p, chi).coeffs, want[p]) < 4e-15, p
        else:
            with pytest.raises(ValueError, match="out of the float range|sinh.* overflows"):
                power_series(p, chi)


def test_power_row_matches_the_closed_form_where_that_holds():
    # at chi = 1.5 and 3 the closed form holds its digits up to p = 150
    for chi in (1.5, 3.0):
        pt = LegendreArg.from_eta(eta_from_chi(chi))
        for p in range(0, 151, 5):
            row = power_series(p, chi).coeffs
            closed = [_power_coefficient(pt, p, n) for n in range(p + 1)]
            assert _worst_relative_error(row, closed) < 3e-14, (chi, p)


@pytest.mark.parametrize("p", [136, 140])
def test_log_series_limit_past_the_subnormal_weight_against_mpmath(p):
    # with the weight casts unguarded, the worst error at p = 140 was 5.5e-2
    with mpmath.workdps(150):  # the reference sum cancels about 100 digits
        want = _log_reference(p, 1.5, p + 1)
    assert _worst_relative_error(log_series_limit(p, 1.5, p + 1).coeffs, want) < 1e-13


@pytest.mark.parametrize("chi", [1.5, 3.0])
def test_log_series_limit_from_degree_151_is_refused(chi):
    # the Taylor coefficient (2p)!/(2^p p!) of the band's P_p^p leaves the
    # float range; the algebraic route refuses p > 150 with it
    # (only p = 151: a cold p = 200 table takes 10 s to reach its refusal)
    with pytest.raises(ValueError, match="coefficient out of the float range"):
        log_series_limit(151, chi, 152)


def test_power_series_past_degree_150():
    # the power row needs no P_p^p: it builds to p = 1023 where c_0 fits a
    # double, and refuses from p = 1024, where c_p = 2^(1-p) is subnormal
    with mpmath.workdps(60):
        want = _power_reference(200, 1.5)
    for p in (151, 200):
        assert _worst_relative_error(power_series(p, 1.5).coeffs, want[p]) < 4e-15, p
    assert power_series(1023, 1 + 1e-8).coeffs[1023] == -(2.0**-1022)
    with pytest.raises(ValueError, match="coefficient out of the float range"):
        power_series(1024, 1 + 1e-8)
    with pytest.raises(ValueError, match="c_p = \\(-1\\)\\^p 2\\^\\(1-p\\) is subnormal"):
        power_coefficient(1024, 0, 1e-4)
    with pytest.raises(ValueError, match="power_coefficient overflows double precision"):
        power_coefficient(3, 2, 800.0)
    assert power_coefficient(3, 3, 800.0) == -0.25


def test_zero_weight_is_the_plain_product():
    # at p = n = 0 the digamma head's weight is 0: times must not rescale it
    pt = LegendreArg.from_eta(ETA)
    assert pt.times(Fraction(0), 2.0, 3.0) == 0.0
    assert pt.times(Fraction(1, 3), 3.0) == (1 / 3) * 3.0
    assert pt.times(Fraction(1, 2**1100), 2.0**100, 2.0**99) == 2.0**-901
    assert pt.times(-(2**1100), 2.0**-1000) == -(2.0**100)
    assert SYMBOLIC.times(Fraction(0), pt.eta) == 0
    with mpmath.workdps(40):
        want = mpmath.acosh(CHI) - mpmath.log(2)
    assert log_series_limit(0, CHI, 1).coeffs[0] == pytest.approx(float(want), rel=4e-16)
