"""Fundamental-solution values, ring geometry, and the assembled azimuthal
expansions (logarithmic and pure-power regimes).

Expected constants below are written out from the two closed branches
directly, sign included, so any sign or normalization slip in the library is
caught against an independently expanded formula."""

import math

import pytest

from polyfourier import (
    Geometry,
    SolutionParams,
    axisym_component,
    greens_eval,
    hii_expansion,
    li_direct,
    li_expansion,
    li_truncation,
)

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
    assert g.dist_sq() == pytest.approx(direct, rel=1e-12)
    assert g.dist_sq() == pytest.approx(
        2.0 * g.R * g.Rprime * (g.chi - math.cos(g.psi)), rel=1e-15
    )


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
    assert g1.dist_sq() == pytest.approx(g0.dist_sq(), rel=1e-12)


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
    t = hii_expansion(params, g, tail_tol=1e-13)
    r2 = sum((a - b) ** 2 for a, b in zip(x, xp))
    assert t.reconstruct(g.psi) == pytest.approx(r2**-1, rel=1e-9)
    assert t.kernel == "hii" and t.method == "closed_form"


# -- axisymmetric component -----------------------------------------------------


def test_axisym_forms_agree_and_match_table_entry():
    for p in range(4):
        params = SolutionParams(2, p + 1)
        g = Geometry(1.7, 0.6, 0.4)
        a = axisym_component(params, g, form="legendre")
        b = axisym_component(params, g, form="logpoly")
        c = li_expansion(params, g, nmax=max(10, p + 1)).coeffs[0]
        assert a == pytest.approx(b, rel=1e-12)
        assert a == pytest.approx(c, rel=1e-10)
    with pytest.raises(ValueError):
        axisym_component(SolutionParams(2, 1), g, form="mean")


def test_truncation_rule_scales_with_band_and_decay():
    params = SolutionParams(2, 4)
    near = Geometry(1.0, 0.99, 0.0)  # chi barely above 1, slow decay
    far = Geometry(5.0, 0.2, 9.0)
    assert li_truncation(params, near) > li_truncation(params, far)
    assert li_truncation(params, far) >= params.p + 1


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
