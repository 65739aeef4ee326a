"""Fundamental-solution values, ring geometry, and the assembled azimuthal
expansions (logarithmic and pure-power regimes).

Expected constants below are written out from the two closed branches
directly, sign included, so any sign or normalization slip in the library is
caught against an independently expanded formula."""

import math
import random
import sys
from concurrent.futures import ThreadPoolExecutor

import mpmath
import pytest

from polyfourier import (
    Geometry,
    SolutionParams,
    axisym_component,
    default_nmax,
    greens_eval,
    hii_expansion,
    li_direct,
    li_expansion,
    li_truncation,
    log_series_algebraic,
)
import polyfourier.greens as greens
from polyfourier.greens import DegenerateGeometryError, kernel_table
from polyfourier.validation import verify_axisym_dual

PI = math.pi


# -- geometry ---------------------------------------------------------------


def test_from_points_basic_ring_split():
    g = Geometry.from_points((1.0, 0.0), (0.5, 0.0))
    assert g.R == 1.0 and g.Rprime == 0.5 and g.perp_sq == 0.0
    assert g.chi == pytest.approx(1.25, rel=1e-15)
    assert g.psi == 0.0


def test_distance_factorization():
    # ||x - x'||^2 = 2 R R' (chi - cos psi), the identity behind every split
    x = (1.2, 0.7, 0.4, -0.1)
    xp = (-0.3, 0.9, 0.0, 0.6)
    g = Geometry.from_points(x, xp)
    direct = sum((a - b) ** 2 for a, b in zip(x, xp))
    assert 2.0 * g.R * g.Rprime * (g.chi - math.cos(g.psi)) == pytest.approx(direct, rel=1e-12)


def test_rotation_invariance_of_ring_parameters():
    x = (1.3, 0.2, 0.5)
    xp = (0.4, -0.8, 0.1)
    g0 = Geometry.from_points(x, xp)
    th = 1.1
    c, s = math.cos(th), math.sin(th)

    def rot(v):
        return (c * v[0] - s * v[1], s * v[0] + c * v[1], v[2])

    g1 = Geometry.from_points(rot(x), rot(xp))
    assert g1.chi == pytest.approx(g0.chi, rel=1e-14)
    assert math.cos(g1.psi) == pytest.approx(math.cos(g0.psi), rel=1e-12)
    assert 2.0 * g1.R * g1.Rprime * (g1.chi - math.cos(g1.psi)) == pytest.approx(
        2.0 * g0.R * g0.Rprime * (g0.chi - math.cos(g0.psi)), rel=1e-12
    )


def test_geometry_validation():
    with pytest.raises(ValueError):
        Geometry(0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        Geometry(1.0, 1.0, -0.5)
    with pytest.raises(ValueError):
        Geometry(1.0, 1.0, 0.0)  # coincident rings, chi = 1
    with pytest.raises(ValueError):
        Geometry.from_points((1.0,), (2.0,))


def test_params_regime_partition():
    assert SolutionParams(2, 1).is_log_regime
    assert SolutionParams(2, 1).p == 0
    assert SolutionParams(4, 3).p == 1
    assert not SolutionParams(4, 1).is_log_regime
    assert SolutionParams(4, 1).q == 1
    assert SolutionParams(8, 2).q == 2
    assert not SolutionParams(3, 1).is_log_regime
    with pytest.raises(ValueError):
        SolutionParams(4, 1).p
    with pytest.raises(ValueError):
        SolutionParams(2, 1).q
    with pytest.raises(ValueError):
        SolutionParams(3, 1).q
    with pytest.raises(ValueError):
        SolutionParams(0, 1)


# -- pointwise fundamental solution ------------------------------------------


def test_greens_log_branch_reference_values():
    # d=2, k=1: -log r / (2 pi); zero on the unit circle
    assert greens_eval(SolutionParams(2, 1), (1.0, 0.0), (0.0, 0.0)) == 0.0
    assert greens_eval(SolutionParams(2, 1), (2.0, 0.0), (0.0, 0.0)) == pytest.approx(
        -math.log(2.0) / (2 * PI), rel=1e-15
    )
    # d=2, k=2: r^2 (log r - 1) / (8 pi)
    assert greens_eval(SolutionParams(2, 2), (3.0, 0.0), (0.0, 0.0)) == pytest.approx(
        9.0 * (math.log(3.0) - 1.0) / (8 * PI), rel=1e-15
    )
    # d=4, k=2: -log r / (8 pi^2)
    x4 = (1.5, 0.0, 0.0, 0.0)
    o4 = (0.0, 0.0, 0.0, 0.0)
    assert greens_eval(SolutionParams(4, 2), x4, o4) == pytest.approx(
        -math.log(1.5) / (8 * PI**2), rel=1e-15
    )
    # d=4, k=3: r^2 (log r - 3/4) / (64 pi^2)
    x4b = (2.0, 0.0, 0.0, 0.0)
    assert greens_eval(SolutionParams(4, 3), x4b, o4) == pytest.approx(
        4.0 * (math.log(2.0) - 0.75) / (64 * PI**2), rel=1e-15
    )
    # d=6, k=3: -log r / (64 pi^3)
    x6 = (2.0,) + (0.0,) * 5
    o6 = (0.0,) * 6
    assert greens_eval(SolutionParams(6, 3), x6, o6) == pytest.approx(
        -math.log(2.0) / (64 * PI**3), rel=1e-15
    )


def test_greens_power_branch_reference_values():
    o4 = (0.0,) * 4
    # d=4, k=1: 1 / (4 pi^2 r^2)
    assert greens_eval(SolutionParams(4, 1), (2.0, 0.0, 0.0, 0.0), o4) == pytest.approx(
        1.0 / (16 * PI**2), rel=1e-15
    )
    # d=6, k=1: 1 / (4 pi^3 r^4)
    x6 = (1.5,) + (0.0,) * 5
    assert greens_eval(SolutionParams(6, 1), x6, (0.0,) * 6) == pytest.approx(
        1.5**-4 / (4 * PI**3), rel=1e-15
    )
    # odd dimension sanity: d=3, k=1 gives the Newtonian 1/(4 pi r)
    assert greens_eval(SolutionParams(3, 1), (2.0, 0.0, 0.0), (0.0,) * 3) == pytest.approx(
        1.0 / (8 * PI), rel=1e-14
    )


def test_greens_is_signed_multiple_of_radial_profile():
    # in the log regime the solution is li_direct times an explicit signed
    # constant; the sign alternates with k + d/2
    cases = [(2, 1), (2, 2), (4, 2), (4, 3), (6, 3), (6, 4)]
    for (d, k) in cases:
        params = SolutionParams(d, k)
        p = params.p
        const = (
            (-1) ** (k + d // 2 + 1)
            / (math.factorial(k - 1) * math.factorial(p) * 2 ** (2 * k - 1) * PI ** (d / 2))
        )
        for r in (0.5, 1.7, 4.0):
            x = (r,) + (0.0,) * (d - 1)
            o = (0.0,) * d
            got = greens_eval(params, x, o)
            want = const * li_direct(params, x, o)
            assert got == pytest.approx(want, rel=1e-14, abs=1e-300)


@pytest.mark.parametrize("d,k", [(2, 86), (2, 120), (8, 87)])
def test_log_value_under_an_overflowing_constant_against_mpmath(d, k):
    # the constant (k-1)! p! 2^{2k-1} pi^{d/2} is past the float range: at
    # d = 2 from k = 86 on, which was refused as an overflow, and at (8, 87)
    # only once times pi^4, which returned -0.0; at r = 5 the value is still
    # a normal double (-9.8e-300 at k = 120)
    params, r = SolutionParams(d, k), 5.0
    with mpmath.workdps(30):
        h, p = d // 2, k - d // 2
        beta = (mpmath.harmonic(p) + mpmath.harmonic(h + p - 1) - mpmath.harmonic(h - 1)) / 2
        want = ((-1) ** (k + h + 1) * mpmath.mpf(r) ** (2 * p) * (mpmath.log(r) - beta)
                / (mpmath.factorial(k - 1) * mpmath.factorial(p) * mpmath.mpf(2) ** (2 * k - 1)
                   * mpmath.pi ** h))
    got = greens_eval(params, (r,) + (0.0,) * (d - 1), (0.0,) * d)
    assert abs(got) >= 2.0**-1022
    assert got == pytest.approx(float(want), rel=1e-14)


def test_greens_rejects_dimension_mismatch():
    with pytest.raises(ValueError):
        greens_eval(SolutionParams(2, 1), (1.0, 0.0, 0.0), (0.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        greens_eval(SolutionParams(2, 1), (1.0, 0.0), (1.0, 0.0))


# -- logarithmic-regime expansion ---------------------------------------------


def test_li_expansion_classical_membrane_coefficients():
    # d=2, k=1: a_0 = (log(R R') + eta)/2 and a_n = -e^{-n eta}/n
    g = Geometry(1.5, 0.8, 0.3)
    t = li_expansion(SolutionParams(2, 1), g, nmax=10)
    eta = g.eta
    assert t.coeffs[0] == pytest.approx(
        0.5 * math.log(g.R * g.Rprime) + 0.5 * eta, rel=1e-14
    )
    for n in range(1, 11):
        assert t.coeffs[n] == pytest.approx(-math.exp(-n * eta) / n, rel=1e-13)


def test_li_direct_zeros_pin_the_offset_constants():
    # unit separation with p = 0 kills the log term outright; at p = 1 in the
    # plane the offset is exactly 1, so separation e zeroes the profile
    o = (0.0, 0.0)
    assert li_direct(SolutionParams(2, 1), (1.0, 0.0), o) == 0.0
    assert li_direct(SolutionParams(2, 2), (math.e, 0.0), o) == pytest.approx(
        0.0, abs=1e-14
    )
    with pytest.raises(ValueError):
        li_direct(SolutionParams(4, 1), (1.0, 0.0, 0.0, 0.0), (0.0,) * 4)


def test_li_expansion_reconstructs_radial_profile():
    for (d, k) in [(2, 1), (2, 2), (2, 3), (4, 2), (4, 3)]:
        params = SolutionParams(d, k)
        phi, phip = 0.9, -0.4
        R, Rp = 1.4, 0.7
        perp = 0.5 if d > 2 else 0.0
        x = (R * math.cos(phi), R * math.sin(phi)) + (math.sqrt(perp),) * (d - 2)
        xp = (Rp * math.cos(phip), Rp * math.sin(phip)) + (0.0,) * (d - 2)
        g = Geometry.from_points(x, xp)
        t = li_expansion(params, g, nmax=li_truncation(params, g, 1e-12))
        assert t.reconstruct(g.psi) == pytest.approx(
            li_direct(params, x, xp), rel=1e-9
        )


def test_li_expansion_routes_agree():
    g = Geometry(1.2, 0.9, 0.8)
    a = li_expansion(SolutionParams(2, 3), g, nmax=20, method="algebraic")
    b = li_expansion(SolutionParams(2, 3), g, nmax=20, method="limit")
    for ca, cb in zip(a.coeffs, b.coeffs):
        assert ca == pytest.approx(cb, rel=1e-11, abs=1e-14)
    with pytest.raises(ValueError):
        li_expansion(SolutionParams(2, 1), g, nmax=5, method="series")


def test_kernel_table_refuses_unknown_pairs():
    assert kernel_table("log", 2, 1.5, 8).method == "algebraic"
    assert kernel_table("power", 2, 1.5).method == "closed_form"
    for kernel, method in (("log", "closed_form"), ("power", "limit"), ("quartic", None)):
        with pytest.raises(ValueError):
            kernel_table(kernel, 2, 1.5, 8, method)


def test_li_expansion_table_metadata():
    g = Geometry(1.0, 0.5, 1.0)
    t = li_expansion(SolutionParams(4, 3), g, nmax=8)
    assert t.kernel == "li" and t.param == 1
    assert t.chi == pytest.approx(g.chi, rel=1e-15)


# -- power-regime expansion ----------------------------------------------------


def test_hii_expansion_first_order_closed_form():
    # d=4, k=1 (q=1): b_n = eps_n e^{-n eta} / (2 R R' sinh eta)
    g = Geometry(1.1, 0.6, 0.9)
    t = hii_expansion(SolutionParams(4, 1), g, nmax=9)
    eta = g.eta
    scale = 1.0 / (2.0 * g.R * g.Rprime)
    for n in range(10):
        eps = 1 if n == 0 else 2
        want = scale * eps * math.exp(-n * eta) / math.sinh(eta)
        assert t.coeffs[n] == pytest.approx(want, rel=1e-12)


def test_hii_expansion_second_order_closed_form():
    # d=8, k=2 (q=2): b_n = eps_n e^{-n eta}(n sinh + cosh) / ((2RR')^2 sinh^3)
    g = Geometry(1.3, 0.5, 2.0)
    t = hii_expansion(SolutionParams(8, 2), g, nmax=9)
    eta, sh, ch = g.eta, math.sinh(g.eta), math.cosh(g.eta)
    scale = (2.0 * g.R * g.Rprime) ** -2
    for n in range(10):
        eps = 1 if n == 0 else 2
        want = scale * eps * math.exp(-n * eta) * (n * sh + ch) / sh**3
        assert t.coeffs[n] == pytest.approx(want, rel=1e-12)


def test_hii_expansion_reconstructs_distance_power():
    params = SolutionParams(6, 2)  # q = 1
    x = (1.0, 0.8, 0.5, 0.0, 0.3, -0.2)
    xp = (-0.4, 0.5, 0.1, 0.2, 0.0, 0.6)
    g = Geometry.from_points(x, xp)
    t = hii_expansion(params, g, default_nmax(params.q, g.eta, 1e-13))
    r2 = sum((a - b) ** 2 for a, b in zip(x, xp))
    assert t.reconstruct(g.psi) == pytest.approx(r2**-1, rel=1e-9)
    assert t.kernel == "hii" and t.method == "closed_form"


# -- held tables ---------------------------------------------------------------


def _counting(monkeypatch, name):
    """Rebind greens' route `name` to a double that counts its calls."""
    calls = []
    real = getattr(greens, name)

    def route(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(greens, name, route)
    return calls


def test_a_repeated_table_is_built_once(monkeypatch):
    calls = _counting(monkeypatch, "log_series_algebraic")
    params, g = SolutionParams(2, 3), Geometry(1.3, 0.7, 0.2)
    first = li_expansion(params, g, nmax=14)
    assert li_expansion(params, g, nmax=14) == first
    assert len(calls) == 1
    held = kernel_table("log", 2, g.chi, 14)
    assert kernel_table("log", 2, g.chi, 14) is held
    assert len(calls) == 1
    assert held == log_series_algebraic(2, g.chi, 14)


def test_a_rebound_route_sees_its_next_call(monkeypatch):
    # the held table was built by the real route; a double misses it
    held = kernel_table("log", 3, 1.625, 11, "limit")
    calls = _counting(monkeypatch, "log_series_limit")
    again = kernel_table("log", 3, 1.625, 11, "limit")
    assert calls == [(3, 1.625, 11)]
    assert again == held and again is not held


def test_held_coefficients_stay_within_the_budget(monkeypatch):
    calls = _counting(monkeypatch, "inverse_power_series")
    chis = [1.4375 + i / 64 for i in range(9)]
    for chi in chis:  # 9 x 4001 coefficients, past the 2^15 budget
        kernel_table("inverse_power", 1, chi, 4000)
        assert greens._TABLES.held <= greens._TABLE_BUDGET == 2**15
    kernel_table("inverse_power", 1, chis[-1], 4000)  # the newest is held
    assert len(calls) == 9
    kernel_table("inverse_power", 1, chis[0], 4000)  # the oldest was let go
    assert len(calls) == 10


def test_a_table_longer_than_the_budget_is_not_held(monkeypatch):
    calls = _counting(monkeypatch, "inverse_power_series")
    held = greens._TABLES.held
    table = kernel_table("inverse_power", 1, 1.5, 2**15)
    assert table.nmax == 2**15
    assert kernel_table("inverse_power", 1, 1.5, 2**15) == table
    assert len(calls) == 2 and greens._TABLES.held == held


def test_a_refused_table_is_refused_again(monkeypatch):
    calls = _counting(monkeypatch, "log_series_algebraic")
    for _ in range(2):
        with pytest.raises(ValueError, match="overflows"):
            kernel_table("log", 2, 1e300)
    assert len(calls) == 2


def test_threads_on_the_same_keys_get_equal_tables():
    # more threads than cores, switching often, on keys whose tables pass the
    # budget together, so holds and evictions interleave
    keys = [(kernel, param, 1.0 + 2.0**-k, 9, method)
            for k in range(3, 6) for param in (1, 3)
            for kernel, method in (("log", "algebraic"), ("log", "limit"),
                                   ("power", "closed_form"), ("inverse_power", "closed_form"))]
    keys += [("inverse_power", 1, 2.0 + i / 8, 4000, None) for i in range(9)]
    fresh = {"algebraic": log_series_algebraic, "limit": greens.log_series_limit}

    def build(seed):
        order = random.Random(seed).sample(keys, len(keys))
        return {key: kernel_table(*key) for key in order * 2}

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(build, range(4), timeout=120))
    finally:
        sys.setswitchinterval(interval)
    memo = greens._TABLES
    assert memo.held == sum(len(t.coeffs) for t in memo._tables.values()) <= 2**15
    for kernel, param, chi, nmax, method in keys:
        if kernel == "power":
            want = greens.power_series(param, chi)
        elif kernel == "inverse_power":
            want = greens.inverse_power_series(param, chi, nmax)
        else:
            want = fresh[method](param, chi, nmax)
        for tables in results:
            assert tables[kernel, param, chi, nmax, method] == want


# -- axisymmetric component -----------------------------------------------------


def test_axisym_forms_agree_and_match_table_entry():
    for p in range(4):
        params = SolutionParams(2, p + 1)
        g = Geometry(1.7, 0.6, 0.4)
        a = axisym_component(params, g)
        c = li_expansion(params, g, nmax=max(10, p + 1)).coeffs[0]
        report = verify_axisym_dual(params, g)
        assert report.rel_err <= 1e-12 or report.abs_err <= 1e-12
        assert a == pytest.approx(c, rel=1e-10)
    # by construction: the n = 0 entry of the shortest limit-route table
    for p in range(11):
        params = SolutionParams(2, p + 1)
        g = Geometry(1.7, 0.6, 0.4)
        assert axisym_component(params, g) == li_expansion(params, g, p + 1, "limit").coeffs[0]


def test_truncation_rule_scales_with_band_and_decay():
    params = SolutionParams(2, 4)
    near = Geometry(1.0, 0.99, 0.0)  # chi barely above 1, slow decay
    far = Geometry(5.0, 0.2, 9.0)
    assert li_truncation(params, near) > li_truncation(params, far)
    assert li_truncation(params, far) >= params.p + 1


def test_out_of_float_range_is_a_value_error():
    # R**2 overflows, 2 R R' underflows to 0, or chi is inf/inf: none of these
    # is the degenerate geometry the CLI reports as a note
    for bad in ((1e200, 1.0, 0.0), (1e-200, 1e-200, 0.0), (1e154, 1e154, 0.0)):
        with pytest.raises(ValueError) as info:
            Geometry(*bad)
        assert not isinstance(info.value, DegenerateGeometryError)
    with pytest.raises(DegenerateGeometryError):
        Geometry(1.0, 1.0, 0.0)
    params = SolutionParams(2, 2)
    for fn in (greens_eval, li_direct):
        with pytest.raises(ValueError):
            fn(params, (1e160, 0.0), (1.0, 0.0))
        with pytest.raises(ValueError):
            fn(params, (math.nan, 0.0), (1.0, 0.0))
    with pytest.raises(ValueError):
        greens_eval(SolutionParams(2, 300), (1.5, 0.0), (0.0, 0.0))


def test_subnormal_value_is_a_value_error():
    # r^{2k-d} = 1e-320 is subnormal: refused by name, not returned as 2.5e-322
    with pytest.raises(ValueError, match="greens_eval underflows double precision"):
        greens_eval(SolutionParams(4, 1), (1e160, 0, 0, 0), (0, 0, 0, 0))


def test_li_expansion_scale_overflow_is_a_value_error():
    # chi = 1.5 gives a finite log table, but (2RR')^10 ~ 1.1e309 does not fit
    g = Geometry.from_points((1.24e15, 0.0), (3.24e15, 0.0))
    for method in ("algebraic", "limit"):
        with pytest.raises(ValueError):
            li_expansion(SolutionParams(2, 11), g, method=method)
    # the n = 0 entry alone raised the raw OverflowError of (2RR')**p
    with pytest.raises(ValueError):
        axisym_component(SolutionParams(2, 11), g)


def test_hii_expansion_scale_overflow_is_a_value_error():
    # q = 2: (2RR')^-2 ~ 2e399 does not fit; (2RR')**(-q) raised OverflowError
    g = Geometry(1e-100, 1.1e-100, 0.0)
    with pytest.raises(ValueError, match=r"\(2RR'\)\^-q overflows"):
        hii_expansion(SolutionParams(6, 1), g)


def test_algebraic_term_overflow_is_a_value_error_naming_the_table():
    # e^{k eta} R_3^k(cosh eta) overflows at eta ~ 236.9, below the sinh(eta)^3
    # bound; each call raised the raw OverflowError "math range error"
    chi = 5.4e102
    named = r"^log table at p=3, chi=5\.4e\+102: coefficient out of the float range"
    with pytest.raises(ValueError, match=named):
        log_series_algebraic(3, chi)
    with pytest.raises(ValueError, match=named):
        kernel_table("log", 3, chi)
    with pytest.raises(ValueError, match=named):
        li_expansion(SolutionParams(2, 4), Geometry(1.0, 1.0, 2.0 * (chi - 1.0)))


def test_infinite_chi_geometry_is_refused():
    # an infinite transverse offset passes chi > 1; eta and both expansions
    # must refuse it rather than return nan coefficients
    g = Geometry(1.0, 2.0, math.inf)
    with pytest.raises(ValueError):
        g.eta
    with pytest.raises(ValueError):
        li_expansion(SolutionParams(2, 2), g)
    with pytest.raises(ValueError):
        hii_expansion(SolutionParams(6, 1), g)
