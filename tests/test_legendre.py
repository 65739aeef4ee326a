"""Associated Legendre functions of the first kind on (1, inf): integer and
real degree, positive and negative integer order, exact-rational evaluation,
and the degree derivative at integer points.

Independent oracles used here:
  * the three-term recurrence in the degree,
  * the Laplace integral representation, integrated with scipy.quad,
  * centered finite differences through the real-degree series.
"""

import math
import threading
import warnings
from fractions import Fraction

import mpmath
import pytest
from scipy.integrate import quad

from polyfourier import ConvergenceError, eta_from_chi, legendre_deg_deriv, legendre_p
from polyfourier.legendre import (
    SYMBOLIC,
    LegendreArg,
    _legendre,
    _neg_order_sum,
    legendre_p_exact,
    neg_order_sum,
    taylor_coeffs_at1,
)
from polyfourier.scalars import neumann
from polyfourier.series_limit import _inverse_coefficient, _log_deriv_coefficient
from polyfourier import validation
from polyfourier.validation import legendre_p_nu

Z_GRID = (1.01, 1.5, 2.0, 5.0, 50.0)


def test_order_zero_degree_zero_is_one():
    for z in Z_GRID:
        assert legendre_p(0, 0, z) == 1.0


def test_positive_order_above_degree_vanishes():
    assert legendre_p(2, 3, 1.7) == 0.0
    assert legendre_p(0, 1, 4.0) == 0.0


def test_first_negative_order_closed_form():
    for z in Z_GRID:
        assert legendre_p(1, -1, z) == pytest.approx(
            math.sqrt(z * z - 1.0) / 2.0, rel=1e-14
        )


def test_low_degree_closed_forms():
    for z in Z_GRID:
        assert legendre_p(1, 0, z) == pytest.approx(z, rel=1e-15)
        assert legendre_p(2, 0, z) == pytest.approx(1.5 * z * z - 0.5, rel=1e-14)
        assert legendre_p(1, 1, z) == pytest.approx(math.sqrt(z * z - 1.0), rel=1e-14)


def test_order_reflection_relation():
    # P_p^{-m} = (p-m)!/(p+m)! P_p^m for 0 <= m <= p.
    for z in Z_GRID:
        for p in range(7):
            for m in range(p + 1):
                ratio = Fraction(
                    math.factorial(p - m), math.factorial(p + m)
                )
                assert legendre_p(p, -m, z) == pytest.approx(
                    float(ratio) * legendre_p(p, m, z), rel=1e-12
                )


def test_three_term_recurrence_in_degree():
    # (p-m+1) P_{p+1}^m = (2p+1) z P_p^m - (p+m) P_{p-1}^m, any integer order.
    for z in Z_GRID:
        for m in range(-12, 13):
            for p in range(max(1, abs(m)), 13):
                up = (p - m + 1) * legendre_p(p + 1, m, z)
                mid = (2 * p + 1) * z * legendre_p(p, m, z)
                down = (p + m) * legendre_p(p - 1, m, z)
                scale = max(abs(up), abs(mid), abs(down), 1.0)
                assert abs(up - (mid - down)) <= 1e-12 * scale


def _taylor_coeffs_by_differentiation(p: int, m: int) -> tuple[Fraction, ...]:
    """Reference: the monomial coefficients of P_p, differentiated m times
    and shifted to z = 1 by the binomial theorem."""
    mono = [Fraction(0)] * (p + 1)
    for j in range(p // 2 + 1):
        mono[p - 2 * j] = Fraction((-1) ** j * math.comb(p, j) * math.comb(2 * p - 2 * j, p), 2**p)
    for _ in range(m):
        mono = [i * c for i, c in enumerate(mono)][1:]
    return tuple(
        sum(math.comb(i, j) * mono[i] for i in range(j, len(mono))) for j in range(len(mono))
    )


def test_taylor_coefficients_match_differentiated_polynomial():
    # the closed form (p+m+j)! / (2^{m+j} (m+j)! (p-m-j)! j!) against the
    # m-th derivative of the monomial form of P_p, re-expanded about z = 1
    for p in range(16):
        for m in range(p + 1):
            assert taylor_coeffs_at1(p, m) == _taylor_coeffs_by_differentiation(p, m)


def test_negative_order_sum_is_positive_and_terminates():
    # every term of the terminating hypergeometric sum has the same sign, so
    # the sum is safe from cancellation; check positivity and a hand value.
    assert neg_order_sum(0, 3, 2.0) == 1.0
    for p in range(1, 6):
        for n in range(p + 1, p + 6):
            assert neg_order_sum(p, n, 1.3) > 0.0


def test_exact_evaluator_matches_float_path():
    for eta in (0.3, 1.0, 3.0):
        t = Fraction(math.exp(eta))
        pt = LegendreArg.from_eta(eta)
        for p in range(9):
            for m in range(-8, p + 1):
                exact = float(legendre_p_exact(p, m, t))
                approx = _legendre(pt, p, m)
                assert approx == pytest.approx(exact, rel=1e-12, abs=1e-300)


def test_eta_keyword_agrees_with_plain_argument():
    # the z-argument value at z = coth(eta) against the point built from eta
    for eta in (0.5, 2.0):
        z = math.cosh(eta) / math.sinh(eta)
        for (p, m) in [(3, 2), (4, -3), (5, 0), (2, -5)]:
            assert legendre_p(p, m, z) == pytest.approx(
                _legendre(LegendreArg.from_eta(eta), p, m), rel=1e-11
            )


def test_argument_wrapper_round_trips():
    arg = LegendreArg.from_eta(0.8)
    z = math.cosh(0.8) / math.sinh(0.8)
    assert arg.u == pytest.approx(z - 1.0, rel=1e-15)
    back = LegendreArg.from_z(1.0 + arg.u)
    assert back.eta == pytest.approx(0.8, rel=1e-15)
    # from_z keeps u = z - 1 exactly
    assert LegendreArg.from_z(1.25).u == 0.25
    with pytest.raises(ValueError):
        LegendreArg.from_z(0.5)


def _mpmath_legendre(p: int, m: int, z: float):
    # mpmath's type-3 P_p^m; a positive order goes through the reflection
    # P_p^m = (p+m)!/(p-m)! P_p^{-m}, because mpmath reaches it by a slow
    # limit over the poles of Gamma(1-m)
    if m <= 0:
        return mpmath.legenp(p, m, mpmath.mpf(z), type=3)
    ratio = mpmath.mpf(math.factorial(p + m)) / math.factorial(p - m)
    return ratio * mpmath.legenp(p, -m, mpmath.mpf(z), type=3)


def test_z_argument_relative_accuracy_against_mpmath():
    # z from 1 + 1e-7 to 1e8, p <= 12, -14 <= m <= p (2,730 points).  The
    # hardest points are z = 1e8 with m near 10, where sinh^{-m}(eta) is
    # large, and z = 1.0001 with m = -13, where e^{-13 eta} magnifies the
    # relative rounding of eta by 13 eta, about 64.
    zs = (1 + 1e-7, 1 + 1e-5, 1.0001, 1.01, 1.3, 2.0, 5.0, 50.0, 1e4, 1e8)
    worst = (0.0, ())
    with mpmath.workdps(30):
        for z in zs:
            for p in range(13):
                for m in range(-14, p + 1):
                    want = _mpmath_legendre(p, m, z)
                    err = float(abs(legendre_p(p, m, z) / want - 1))
                    worst = max(worst, (err, (p, m, z)))
    assert worst[0] <= 2e-14, worst


def test_negative_order_past_the_factorial_underflow_against_mpmath():
    # 1/171! is subnormal and 1/180! casts to 0, while P_10^{-n}(1e30) is
    # 1.8e-23 and 6.8e-44: the weight is cast scaled by a power of two
    with mpmath.workdps(50):
        for m in (-171, -180):
            err = float(abs(legendre_p(10, m, 1e30) / _mpmath_legendre(10, m, 1e30) - 1))
            assert err <= 1e-14, (m, err)


@pytest.mark.parametrize(
    "fn, args",
    [
        (legendre_p, (3, -2, 1e200)),  # the Gauss sum overflows: was inf
        (legendre_p, (10, -5, 1e40)),  # was inf
        (legendre_p, (3, -400, 1e200)),  # was nan (0 * inf); mpmath gives 3.6e-276
        (legendre_deg_deriv, (3, 10, 1e200)),  # was inf
        (neg_order_sum, (3, 400, 1e200)),  # was inf
        (legendre_deg_deriv, (10, 300, 1.5)),  # -2.3e507; was OverflowError
    ],
)
def test_z_argument_functions_refuse_values_outside_the_float_range(fn, args):
    with pytest.raises(ValueError, match=fn.__name__):
        fn(*args)


def test_subnormal_values_are_refused_and_zero_is_returned():
    # 1e-323 would carry 2 significant bits of mpmath's 1.2935e-323
    with pytest.raises(ValueError, match="legendre_p underflows double precision"):
        legendre_p(4, -166, 3.0)
    assert legendre_p(2, 3, 1.5) == 0.0  # order above degree: exactly zero
    assert legendre_p(10, -180, 1e30) == pytest.approx(6.763504657480193e-44, rel=1e-14)


def test_exact_legendre_needs_t_above_1():
    for t in (Fraction(1), Fraction(1, 2)):
        with pytest.raises(ValueError, match="legendre_p_exact needs t > 1"):
            legendre_p_exact(2, 1, t)


def _inline_neg_order_products(pt, p, n):
    """The four negative-order products as each caller spelled them before
    _neg_order_term: P_p^{-n}, the degree derivative past m = p (at m = n),
    the log tail and the inverse power (at q = p + 1)."""
    f = math.factorial
    s = _neg_order_sum(pt, p, n)
    w_deriv = Fraction((-1) ** (p + n + 1) * f(p + n) * f(n - p - 1), f(n))
    w_tail = Fraction(2 * (-1) ** (p + 1) * f(p), math.prod(range(n - p, n + 1)))
    w_inv = neumann(n) * math.comb(n + p, p)
    return (pt.exp(-n) * pt.weight(Fraction(1, f(n))) * s,
            pt.weight(w_deriv) * pt.exp(-n) * s,
            pt.weight(w_tail) * pt.sinh_pow(p) * pt.exp(-n) * s,
            w_inv * pt.exp(-n) * s / pt.sinh_pow(p + 1))


def test_one_negative_order_closed_form_keeps_every_bit():
    # == at three float points and at the symbolic point, where it holds for
    # every eta; the degree derivative has no entry that takes a point, so
    # it is compared at the float points alone
    zs = [math.cosh(eta) / math.sinh(eta) for eta in (0.2, 1.3, 6.0)]
    for z, pt in [(z, LegendreArg.from_z(z)) for z in zs] + [(None, SYMBOLIC)]:
        for p in (0, 3, 10):
            for n in (p + 1, p + 7, 60):
                leg, deriv, tail, inv = _inline_neg_order_products(pt, p, n)
                assert _legendre(pt, p, -n) == leg
                assert _log_deriv_coefficient(pt, p, n) == tail
                assert _inverse_coefficient(pt, p + 1, n) == inv
                if z is not None:
                    assert legendre_deg_deriv(p, n, z) == deriv


def _laplace_oracle(nu: float, m: int, z: float) -> float:
    # P_nu^{-m}(z) = Gamma(nu-m+1)/Gamma(nu+1) (1/pi)
    #                int_0^pi (z + sqrt(z^2-1) cos t)^nu cos(m t) dt
    s = math.sqrt(z * z - 1.0)
    with warnings.catch_warnings():
        # quad reports roundoff noise at the 1e-13 target; harmless here
        warnings.simplefilter("ignore")
        val, _ = quad(
            lambda t: (z + s * math.cos(t)) ** nu * math.cos(m * t),
            0.0,
            math.pi,
            limit=200,
            epsabs=1e-13,
            epsrel=1e-13,
        )
    return math.gamma(nu - m + 1.0) / math.gamma(nu + 1.0) * val / math.pi


def test_real_degree_series_at_integer_degree():
    for (p, m, z) in [(3, -2, 2.0), (5, 0, 1.5), (4, -4, 2.5), (2, -1, 1.05)]:
        assert legendre_p_nu(float(p), m, z) == pytest.approx(
            legendre_p(p, m, z), rel=1e-12
        )


def test_real_degree_series_against_laplace_integral():
    for (nu, m, z) in [(0.5, 0, 2.0), (0.5, 2, 2.0), (1.5, 1, 1.5), (2.5, 3, 2.5)]:
        assert legendre_p_nu(nu, -m, z) == pytest.approx(
            _laplace_oracle(nu, m, z), rel=1e-11
        )


def test_real_degree_series_frozen_value():
    # Laplace integral at nu = 1/2, z = 2 gives this to full precision.
    assert legendre_p_nu(0.5, 0, 2.0) == pytest.approx(1.3291381621853577, rel=1e-13)
    assert legendre_p_nu(0.0, 0, 2.0) == 1.0


def test_integer_route_input_guards():
    with pytest.raises(ValueError):
        legendre_p(2, 1, 0.5)
    with pytest.raises(ValueError):
        legendre_p(-1, 0, 2.0)
    with pytest.raises(ValueError):
        LegendreArg.from_eta(-1.0)


def test_real_degree_series_raises_when_capped(monkeypatch):
    # term ratio tends to (z-1)/2, so z near 3 converges far too slowly for a
    # four-term budget
    monkeypatch.setattr(validation, "_NU_MAX_TERMS", 4)
    with pytest.raises(ConvergenceError):
        legendre_p_nu(0.5, 0, 2.9)
    with pytest.raises(ValueError):
        legendre_p_nu(0.5, 0, 3.5)
    with pytest.raises(ValueError):
        legendre_p_nu(0.5, 1, 2.0)


def test_degree_derivative_base_case():
    # p = m = 0 reduces to log((z+1)/2); at z = 3 that is log 2.
    assert legendre_deg_deriv(0, 0, 3.0) == pytest.approx(math.log(2.0), rel=1e-15)
    for z in (1.2, 2.0, 8.0):
        assert legendre_deg_deriv(0, 0, z) == pytest.approx(
            math.log((z + 1.0) / 2.0), rel=1e-14
        )
    # near z = 1 the log is log1p((z-1)/2) of the exact z - 1; log of the
    # rounded (z+1)/2 would keep only 2.2e-9 (z = 1.0000001) and 2.2e-12 (1.0001)
    with mpmath.workdps(30):
        for z in (1.0000001, 1.0001):
            want = float(mpmath.log((mpmath.mpf(z) + 1) / 2))
            assert legendre_deg_deriv(0, 0, z) == pytest.approx(want, rel=1e-15)


def test_degree_derivative_above_degree_closed_form():
    # for m >= p+1 the derivative collapses to (-1)^{p+m+1} (p+m)! (m-p-1)!
    # P_p^{-m}.  From m ~ 100 the factorials alone overflow a float while the
    # value does not (-1.13e121 at (2, 100, 1.5)), so the weight must be
    # folded with the 1/m! of P_p^{-m} before it is cast.
    # From m = 172 at p = 10 the folded weight overflows as well, and the
    # closed form casts it scaled by a power of two.
    points = [(1, 2, 2.0), (2, 4, 1.5), (0, 3, 2.5),
              (2, 90, 1.5), (2, 100, 1.5), (2, 150, 1.5), (3, 165, 3.0), (0, 120, 10.0),
              (10, 190, 1.5), (10, 200, 1.5)]
    with mpmath.workdps(50):
        for (p, m, z) in points:
            want = ((-1) ** (p + m + 1) * math.factorial(p + m) * math.factorial(m - p - 1)
                    * mpmath.legenp(p, -m, mpmath.mpf(z), type=3))
            err = float(abs(legendre_deg_deriv(p, m, z) / want - 1))
            assert err <= 1e-14, (p, m, z, err)


def test_degree_derivative_at_or_below_degree_against_mpmath():
    # the reference differentiates (nu-m+1)_{2m} P_nu^{-m}(z) = P_nu^m(z) in nu
    # at 30 digits: _mpmath_legendre's reflection at real degree, ~100x
    # faster than legenp at order +m.  Near z = 1 the m = 0 degree sums
    # cancel as dP_nu/dnu -> 0, so each z near 1 has its own measured bound
    # over p <= 10: 6.0e-13 at (4, 0, 1.0001), 4.4e-11 at (3, 0, 1 + 1e-6),
    # and 1.7e-15 from z = 1.05 on.
    cases = [(p, m, z) for z in (1.05, 1.5, 3.0, 30.0, 1e4)
             for (p, m) in ((0, 0), (2, 0), (4, 2), (7, 7), (10, 3))]
    cases += [(p, m, 1.0001) for (p, m) in ((0, 0), (4, 0), (7, 3), (10, 10))]
    cases += [(p, 0, 1 + 1e-6) for p in range(2, 11)] + [(7, 3, 1 + 1e-6)]
    bounds = {1.0001: 1e-12, 1 + 1e-6: 5e-11}
    with mpmath.workdps(30):
        for (p, m, z) in cases:
            want = mpmath.diff(lambda nu: mpmath.rf(nu - m + 1, 2 * m)
                               * mpmath.legenp(nu, -m, mpmath.mpf(z), type=3), p)
            err = float(abs(legendre_deg_deriv(p, m, z) / want - 1))
            assert err <= bounds.get(z, 2e-15), (p, m, z, err)


def _fd_oracle(p: int, m: int, z: float, h: float = 1e-5) -> float:
    # derivative in the degree of Gamma(nu+m+1)/Gamma(nu-m+1) P_nu^{-m}(z),
    # centered difference through the real-degree series.
    def f(nu: float) -> float:
        return (
            math.gamma(nu + m + 1.0)
            / math.gamma(nu - m + 1.0)
            * legendre_p_nu(nu, -m, z)
        )

    return (f(p + h) - f(p - h)) / (2.0 * h)


def test_degree_derivative_against_finite_differences():
    z = 2.0
    for p in range(4):
        for m in range(p + 1):
            got = legendre_deg_deriv(p, m, z)
            want = _fd_oracle(p, m, z)
            assert got == pytest.approx(want, rel=1e-6)


def test_legendre_threadsafe_smoke():
    # cached coefficient tables are shared; concurrent evaluation must agree
    # with the serial result.
    grid = [(p, m, z) for p in range(6) for m in range(-5, 6) for z in (1.5, 3.0)]
    serial = [legendre_p(p, m, z) for (p, m, z) in grid]
    results = [None] * 8

    def work(slot):
        results[slot] = [legendre_p(p, m, z) for (p, m, z) in grid]

    threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(r == serial for r in results)
