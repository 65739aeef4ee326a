"""Coefficient-table container semantics."""

import math
import time

import numpy as np
import pytest

from polyfourier import ConvergenceError, FourierCoeffTable, default_nmax


def make(kernel="log", method="limit", coeffs=(1.0, -0.5, 0.25)):
    return FourierCoeffTable(kernel, 1, 2.0, math.acosh(2.0), method, tuple(coeffs))


def test_metadata_validation():
    with pytest.raises(ValueError):
        make(kernel="quartic")
    with pytest.raises(ValueError):
        make(method="guess")
    with pytest.raises(ValueError):
        FourierCoeffTable("log", 1, 0.5, 0.1, "limit", (1.0,))  # chi <= 1


def test_nmax_counts_from_zero():
    assert make().nmax == 2


def test_coeff_extension_rules():
    # the power kernel is an exact finite band, reading past it gives zero;
    # truncated infinite series refuse to invent a tail
    power = FourierCoeffTable("power", 2, 2.0, math.acosh(2.0), "closed_form",
                              (4.5, -4.0, 0.5))
    assert power.coeff(2) == 0.5
    assert power.coeff(9) == 0.0
    log = make()
    assert log.coeff(1) == -0.5
    with pytest.raises(IndexError):
        log.coeff(3)


def test_reconstruct_sums_cosines():
    t = make(coeffs=(1.0, 2.0, 3.0))
    psi = 0.7
    want = 1.0 + 2.0 * math.cos(psi) + 3.0 * math.cos(2 * psi)
    assert t.reconstruct(psi) == pytest.approx(want, rel=1e-15)
    arr = t.reconstruct(np.array([0.0, psi]))
    assert arr.shape == (2,)
    assert arr[0] == pytest.approx(6.0, rel=1e-15)


def test_default_nmax_honors_band_minimum():
    # even with a loose tolerance the cut never intrudes into the band
    assert default_nmax(7, 3.0, 1e-1) >= 8
    with pytest.raises(ValueError):
        default_nmax(-1, 1.0)
    with pytest.raises(ValueError):
        default_nmax(1, 0.0)


_NMAX_CAP = 10**6
# math.log(n) for n = 0..cap, the very values the truncation rule computes
_LOG_N = np.fromiter(map(math.log, range(1, _NMAX_CAP + 1)), float, _NMAX_CAP)
_LOG_N = np.concatenate(([-math.inf], _LOG_N))


def step_loop_nmax(p, eta, tail_tol):
    """The truncation rule as a step loop: from N = max(p+1, 4), step N up
    while -N eta + 2p log N >= log(tail_tol); None once N passes 10^6.

    The steps are taken in blocks, each N's test formed by the same
    IEEE-754 operations in the same order as the scalar expression, so the
    first N that fails it is the N the scalar loop stops at.
    """
    log_tol = math.log(tail_tol)
    n, width = max(p + 1, 4), 256
    while n <= _NMAX_CAP:
        ns = np.arange(n, min(n + width, _NMAX_CAP + 1))
        above = -ns.astype(float) * eta + 2 * p * _LOG_N[ns] >= log_tol
        if not above.all():
            return int(ns[np.argmin(above)])
        n, width = n + width, 2 * width
    return None


def test_step_loop_reference_is_the_scalar_loop():
    # pin the block scan to the plain loop where the plain loop is cheap
    for p, eta, tol in ((0, 0.3, 1e-6), (5, 0.05, 1e-10), (12, 0.02, 1e-14)):
        n = max(p + 1, 4)
        while -n * eta + 2 * p * math.log(n) >= math.log(tol):
            n += 1
        assert step_loop_nmax(p, eta, tol) == n


def test_default_nmax_matches_the_step_loop():
    etas = [1e-3 * (2e4) ** (i / 16) for i in range(17)]  # log grid of [1e-3, 20]
    for p in range(13):
        for eta in etas:
            for tol in (1e-6, 1e-10, 1e-14):
                want = step_loop_nmax(p, eta, tol)
                if want is None:
                    with pytest.raises(ConvergenceError):
                        default_nmax(p, eta, tol)
                else:
                    assert default_nmax(p, eta, tol) == want, (p, eta, tol)


def test_default_nmax_cap_raises_at_once():
    # the step loop spun ~1 s through 10^6 terms before raising
    t0 = time.perf_counter()
    with pytest.raises(ConvergenceError):
        default_nmax(3, 1e-12)
    assert time.perf_counter() - t0 < 0.1
    assert step_loop_nmax(3, 1e-12, 1e-10) is None
