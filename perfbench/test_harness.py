"""Tests of the benchmark's own logic: self-time arithmetic, seeded inputs,
the failure rules and the tracer.  Run with `python3 -m pytest perfbench`."""

from __future__ import annotations

import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import polyfourier as pf  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import layers  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402


def test_self_time_of_synthetic_span_tree():
    # 0 [0, 10] root
    # +-- 1 [1, 4]
    # |   +-- 2 [2, 3]
    # +-- 3 [5, 9]
    # 4 [11, 12] second root
    parent = np.array([-1, 0, 1, 0, -1])
    start = np.array([0.0, 1.0, 2.0, 5.0, 11.0])
    end = np.array([10.0, 4.0, 3.0, 9.0, 12.0])
    np.testing.assert_allclose(layers.self_times(parent, start, end), [3.0, 2.0, 1.0, 4.0, 1.0])


def test_tracer_attributes_self_time_and_counts():
    tracer = layers.Tracer()
    tracer.install()
    try:
        table = pf.li_expansion(pf.SolutionParams(2, 3), pf.Geometry(1.0, 2.0, 0.0), nmax=12)
        table.reconstruct(np.linspace(0.0, 1.0, 7))
    finally:
        tracer.uninstall()
    assert not hasattr(pf.greens.li_expansion, "__wrapped__")
    m = tracer.metrics()
    assert m["greens.li_expansion.calls"] == 1
    assert m["series_algebraic.tables"] == 1
    assert m["tables.reconstruct.calls"] == 1
    assert m["tables.reconstruct.points"] == 7
    assert m["tables.reconstruct.cos_evals"] == 7 * 13
    assert m["tables.terms_per_table"] == 13
    # p = 2 at one chi: r_frak evaluates R_2^k for k = -2..2 over and over
    assert m["logpoly.eval.calls"] > 5
    assert m["logpoly.eval.distinct"] == 5
    name, parent, start, end = tracer.span_arrays()
    total_self = layers.self_times(parent, start, end).sum()
    roots = parent < 0
    np.testing.assert_allclose(total_self, (end - start)[roots].sum(), rtol=1e-9)


def test_inputs_repeat_for_a_seed_and_differ_across_seeds():
    assert inputs.ring_cases(7, 50) == inputs.ring_cases(7, 50)
    assert inputs.ring_cases(7, 50) != inputs.ring_cases(8, 50)
    assert inputs.lattice_sweep(7, 0) == inputs.lattice_sweep(7, 0)
    assert inputs.lattice_sweep(7, 0) != inputs.lattice_sweep(7, 1)
    np.testing.assert_array_equal(inputs.azimuth_grid(3), inputs.azimuth_grid(3))


def test_ring_cases_cover_the_declared_box():
    cases = inputs.ring_cases(1, 2000)
    desc = inputs.describe_ring_cases(cases)
    assert all(c > 0 for c in desc["p_hist"]) and all(c > 0 for c in desc["q_hist"])
    for case in cases:
        geom = pf.Geometry.from_points(case.x, case.xp)
        assert geom.eta == pytest.approx(case.eta, rel=1e-6)
        assert 0.2 * (1 - 1e-9) <= geom.eta <= 5.0 * (1 + 1e-9)


def test_every_deck_holds_the_same_mix():
    size = len(inputs.KERNELS) * inputs.ETA_STRATA
    width = (np.log(inputs.ETA_MAX) - np.log(inputs.ETA_MIN)) / inputs.ETA_STRATA
    for seed in (1, 2):
        deck = inputs.ring_cases(seed, size)
        strata = sorted(
            (c.d, c.k, int((np.log(c.eta) - np.log(inputs.ETA_MIN)) // width)) for c in deck
        )
        assert strata == sorted(
            (d, k, s) for d, k in inputs.KERNELS for s in range(inputs.ETA_STRATA)
        )


def test_lattice_pairs_keep_eta_above_the_box_edge():
    desc = inputs.describe_lattice()
    assert desc["pairs"] == 300 and desc["eta_min"] >= 0.2
    assert desc["distinct_chi"] < desc["pairs"]


def test_failure_rule_rejects_a_corrupted_table():
    case = inputs.ring_cases(3, 1)[0]
    table, got = workloads.ring_op(pf, case)
    want = workloads.ring_want(pf, case)
    assert not checks.op_fails(got, want, table.coeffs)
    coeffs = list(table.coeffs)
    coeffs[1] += 1e-6 * max(1.0, abs(want))
    bad = pf.FourierCoeffTable(table.kernel, table.param, table.chi, table.eta, table.method,
                               tuple(coeffs))
    psi = pf.Geometry.from_points(case.x, case.xp).psi
    assert checks.op_fails(bad.reconstruct(psi), want, bad.coeffs)
    coeffs[2] = float("nan")
    assert checks.op_fails(got, want, coeffs)
    assert checks.op_fails(float("inf"), want, table.coeffs)


def test_lattice_direct_matches_li_direct():
    case = inputs.LatticeCase(3, 1.25, 1.5625, 0.5)
    psi = np.array([0.3])
    beta = float(pf.beta_pd(1, 4))
    x = (1.25 * np.cos(0.3), 1.25 * np.sin(0.3), 0.0, 0.0)
    xp = (1.5625, 0.0, 0.5, 0.0)
    want = pf.li_direct(pf.SolutionParams(4, 3), x, xp)
    assert checks.lattice_direct(case, psi, beta)[0] == pytest.approx(want, rel=1e-13)


def test_validate_rule_flags_failures_and_row_changes():
    rows = ["identity,p,n,eta,abs_err,rel_err,pass", "n0,1,0,0.2,0,0,true"]
    assert checks.validate_fails(1, "\n".join(rows)) == "exit code 1"
    assert "pass=false" in checks.validate_fails(0, "\n".join(rows[:1] + ["n0,1,0,0.2,0,0,false"]))
    assert checks.validate_fails(0, "\n".join(rows)) == "row set differs from the seed's"
    assert checks.validate_fails(0, "no header") is not None


def test_relerr_decade_counts_whole_digits_above_the_floor():
    assert checks.relerr_decade(7e-15) == checks.RELERR_FLOOR
    assert checks.relerr_decade(3e-9) == pytest.approx(1e-8)
    assert checks.relerr_decade(143.75) == pytest.approx(1e3)
    assert checks.relerr_decade(1e-3) == pytest.approx(1e-3)


def test_trapezoid_reference_matches_a_closed_form():
    # 1 / (chi - cos psi) = (1 + 2 sum_n e^{-n eta} cos(n psi)) / sinh(eta)
    chi = 1.5
    ns = [0, 7, 40]
    ref = reference.trapezoid_coeffs(lambda: reference.power_kernel(1, 1.0, chi), ns)
    with mpmath.workdps(40):
        eta = mpmath.acosh(mpmath.mpf(chi))
        for n, got in zip(ns, ref):
            exact = (1 if n == 0 else 2) * mpmath.exp(-n * eta) / mpmath.sinh(eta)
            assert abs(got - exact) <= mpmath.mpf(10) ** -22 * abs(exact)
