"""Algebraic-route building blocks r, re, p, q and the assembled log-kernel
table.

The assembled table is checked against a cosine-series product oracle: the
kernel (chi - cos psi)^p log(chi - cos psi) is the pointwise product of the
finite power-p series and the p = 0 log series, so its coefficients follow
from the product formula
    cos(j psi) cos(m psi) = (cos((j+m) psi) + cos(|j-m| psi)) / 2
with no reindexing tricks at all.  Agreement pins down the partial-fraction
rearrangement used by the fast path."""

import math

import pytest

from polyfourier import (
    Geometry,
    SolutionParams,
    li_expansion,
    log_series_algebraic,
    log_series_limit,
    power_series,
)
from polyfourier.cli import main
from polyfourier.series_algebraic import p_frak, q_frak, r_frak, re_frak

ETA = 0.7
CHI = math.cosh(ETA)


def test_r_single_term_value():
    # single k = -1 term of the p = 1 family at n = 0: 2 * e^{-eta} * (1/2)
    assert r_frak(0, 1, -1, -1, ETA) == pytest.approx(math.exp(-ETA), rel=1e-15)


def test_r_is_additive_over_the_order_band():
    # splitting the summation band at any interior point changes nothing
    cases = [
        (5, 3, (-3, 3), (-3, 0), (1, 3)),
        (0, 3, (-3, -1), (-3, -2), (-1, -1)),
        (2, 4, (-4, 1), (-4, -2), (-1, 1)),
    ]
    for (n, p, whole, left, right) in cases:
        total = r_frak(n, p, *whole, ETA)
        split = r_frak(n, p, *left, ETA) + r_frak(n, p, *right, ETA)
        assert total == pytest.approx(split, rel=1e-12)


def test_r_argument_validation():
    with pytest.raises(ValueError):
        r_frak(0, 2, 1, -1, ETA)  # empty band ordering
    with pytest.raises(ValueError):
        r_frak(0, 2, -3, 0, ETA)  # k below -p
    with pytest.raises(ValueError):
        r_frak(1, 2, -2, 2, ETA)  # pole n inside [k1, k2]
    with pytest.raises(ValueError):
        r_frak(5, 2, -2, 2, 0.0)  # eta must be positive


def test_re_closed_forms_low_orders():
    ch, sh = math.cosh(ETA), math.sinh(ETA)
    for n in range(1, 9):
        assert re_frak(n, 0, ETA) == pytest.approx(-2.0, rel=1e-12)
    for n in range(2, 9):
        assert re_frak(n, 1, ETA) == pytest.approx(2.0 * (ch + n * sh), rel=1e-11)
    for n in range(3, 9):
        bracket = (n * n - 1) * sh * sh + 3 * n * sh * ch + 3 * ch * ch
        assert re_frak(n, 2, ETA) == pytest.approx(-4.0 * bracket, rel=1e-10)


def test_q_equals_p_beyond_the_band():
    # the logarithm-free correction carries a factor that vanishes for n > p
    for p in range(4):
        for n in range(p + 1, p + 5):
            assert q_frak(n, p, ETA) == p_frak(n, p, ETA)


def test_q_adds_log_weighted_power_coefficient_inside_band():
    from polyfourier.series_limit import power_coefficient

    for p in range(4):
        for n in range(p + 1):
            shift = (ETA - math.log(2.0)) * power_coefficient(p, n, ETA)
            assert q_frak(n, p, ETA) == pytest.approx(
                p_frak(n, p, ETA) + shift, rel=1e-14, abs=1e-16
            )


def _product_oracle(p: int, chi: float, nmax: int, cutoff: int = 400):
    """Coefficients of (chi-cos)^p log(chi-cos) by multiplying the finite
    power series with the p = 0 log series, truncated at `cutoff`."""
    eta = math.acosh(chi)
    a = power_series(p, chi).coeffs  # indices 0..p
    b = [eta - math.log(2.0)] + [
        -2.0 * math.exp(-m * eta) / m for m in range(1, cutoff + 1)
    ]
    out = []
    for n in range(nmax + 1):
        total = 0.0
        for j in range(p + 1):
            for m in range(cutoff + 1):
                if j + m == n:
                    total += 0.5 * a[j] * b[m]
                if abs(j - m) == n:
                    total += 0.5 * a[j] * b[m]
        out.append(total)
    return out


def test_assembled_log_table_matches_product_oracle():
    for eta in (0.5, 1.0):
        chi = math.cosh(eta)
        for p in range(5):
            want = _product_oracle(p, chi, 12)
            got = log_series_algebraic(p, chi, 12).coeffs
            for n in range(13):
                tol = 1e-10 * max(1.0, abs(want[n]))
                assert abs(got[n] - want[n]) <= tol


def test_both_routes_share_metadata_and_values():
    a = log_series_algebraic(2, CHI, 10)
    b = log_series_limit(2, CHI, 10)
    assert a.kernel == b.kernel == "log"
    assert a.method == "algebraic" and b.method == "limit"
    for n in range(11):
        assert a.coeffs[n] == pytest.approx(b.coeffs[n], rel=1e-12, abs=1e-15)


def test_conditioning_flag_for_small_eta(capsys):
    assert log_series_algebraic(1, math.cosh(0.1), 8).conditioning_warning
    assert not log_series_algebraic(1, math.cosh(0.5), 8).conditioning_warning
    # the li table carries its log route's flag; the limit route has none
    geom = Geometry(1.0, 1.0, 2.0 * (math.cosh(0.1) - 1.0))
    assert li_expansion(SolutionParams(2, 3), geom, method="algebraic").conditioning_warning
    assert not li_expansion(SolutionParams(2, 3), geom, method="limit").conditioning_warning
    assert not log_series_limit(1, math.cosh(0.1), 8).conditioning_warning
    # the CLI warns on stderr and prints the same rows on stdout
    assert main(["coeffs", "--kernel", "log", "--p", "1", "--chi", "1.005", "--nmax", "8"]) == 0
    out, err = capsys.readouterr()
    rows = log_series_algebraic(1, 1.005, 8).coeffs
    assert out == "n,coefficient\n" + "".join(f"{n},{c:.17g}\n" for n, c in enumerate(rows))
    assert err == "warning: eta < 0.2, tail entries are absolute-accurate only\n"


@pytest.mark.parametrize("p,eta", [(3, 236.74), (3, 236.89), (8, 88.87), (10, 71.07)])
def test_term_overflow_below_the_sinh_bound_names_the_table(p, eta):
    # e^{k eta} R_p^k terms of opposite sign overflow to +inf and -inf, and
    # the table build raised fsum's "-inf + inf in fsum"
    chi = math.cosh(eta)
    with pytest.raises(ValueError, match=rf"^log table at p={p}, chi=.*: coefficient out"):
        log_series_algebraic(p, chi, p + 3)


@pytest.mark.parametrize("chi", [1.5, 3.0])
def test_degree_151_is_refused(chi):
    # past p = 150 the limit route, the only check on this one, is refused;
    # built there, this route's entries were off by 2.3e39 relative at
    # (151, 1.5) with conditioning_warning False
    refused = "needs p <= 150: past it the limit route is refused"
    with pytest.raises(ValueError, match=f"^log_series_algebraic {refused}"):
        log_series_algebraic(151, chi, 152)
    for n in (0, 151, 152):
        with pytest.raises(ValueError, match=f"^q_frak {refused}"):
            q_frak(n, 151, math.acosh(chi))
    geom = Geometry(1.0, 1.0, 2 * chi - 2)
    assert geom.chi == chi
    with pytest.raises(ValueError, match=f"^log_series_algebraic {refused}"):
        li_expansion(SolutionParams(2, 152), geom)
    assert log_series_algebraic(150, chi, 151).nmax == 151


@pytest.mark.parametrize("p,eta", [(8, 118.67), (10, 89.12), (10, 101.6)])
def test_past_the_sinh_bound_every_route_names_sinh(p, eta):
    # sinh(eta)^p overflows here; the algebraic route reported fsum's
    # message at these eta, from terms formed before the power term
    chi = math.cosh(eta)
    for route in (log_series_algebraic, log_series_limit):
        with pytest.raises(ValueError, match=rf"^sinh\(eta\)\^{p} overflows double precision$"):
            route(p, chi, p + 3)
