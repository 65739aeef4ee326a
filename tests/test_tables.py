"""Coefficient-table container semantics."""

import math
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import mpmath
import numpy as np
import pytest

from polyfourier import ConvergenceError, FourierCoeffTable, default_nmax, log_series_limit
from polyfourier import tables


def make(kernel="log", method="limit", coeffs=(1.0, -0.5, 0.25)):
    return FourierCoeffTable(kernel, 1, 2.0, math.acosh(2.0), method, tuple(coeffs))


def test_metadata_validation():
    with pytest.raises(ValueError):
        make(kernel="quartic")
    with pytest.raises(ValueError):
        make(method="guess")
    with pytest.raises(ValueError):
        make(method="oracle")  # the CLI's oracle rows are a list, never a table
    with pytest.raises(ValueError):
        FourierCoeffTable("log", 1, 0.5, 0.1, "limit", (1.0,))  # chi <= 1


def test_non_finite_coefficients_are_refused():
    # the refusal names the table: kernel, p (q for an inverse power) and chi
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match=r"^log table at p=1, chi=2\.0: coefficient out"):
            make(coeffs=(1.0, bad, 0.25))
    with pytest.raises(ValueError, match=r"^inverse_power table at q=1, chi=2\.0: "):
        make(kernel="inverse_power", method="closed_form", coeffs=(math.nan,))


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



_UNIT_ROUNDOFF = 2.0**-53
# psi near 0, pi and 2 pi, down to offsets of 1e-10, where plain Clenshaw
# loses accuracy; random psi are added per table
_EDGE_PSI = (
    0.0, 1e-10, 1e-6, 1e-3,
    math.pi - 1e-3, math.pi - 1e-8, math.pi, math.pi + 1e-10,
    2 * math.pi - 1e-7, 2 * math.pi - 1e-10, 2 * math.pi,
)


def mp_cosine_sum(coeffs, psi):
    """sum c_n cos(n psi) of the stored coefficients at 40 digits, the
    cosines from their three-term recurrence."""
    with mpmath.workdps(40):
        cos1 = mpmath.cos(mpmath.mpf(psi))
        prev, cur = mpmath.mpf(1), cos1
        total = mpmath.mpf(coeffs[0])
        for c in coeffs[1:]:
            total += c * cur
            prev, cur = cur, 2 * cos1 * cur - prev
        return total


@pytest.mark.parametrize("p, eta", [
    (0, 0.05), (3, 0.05), (1, 0.2), (10, 0.2), (0, 1.0), (5, 1.0), (10, 1.0),
])
def test_reconstruct_within_the_summation_bound(p, eta):
    # against a 40-digit sum of the same coefficients the error stays within
    # 8 u sum |c_n| at every psi (1.7 u sum |c_n| at worst when measured),
    # well inside the summation bound n_terms u sum |c_n| of
    # perfbench/checks.py; lam = 2 cos psi - 2s formed without the half
    # angle reaches 48 u sum |c_n| at p = 0, eta = 0.05, psi = 1e-6
    t = log_series_limit(p, math.cosh(eta), default_nmax(p, eta))
    bound = 8 * _UNIT_ROUNDOFF * math.fsum(map(abs, t.coeffs))
    rng = np.random.default_rng(p + 100 * int(20 * eta))
    psi = np.concatenate((_EDGE_PSI, rng.uniform(0.0, 2 * math.pi, 2)))
    got = t.reconstruct(psi)
    for x, g in zip(psi, got):
        want = mp_cosine_sum(t.coeffs, x)
        assert abs(g - want) <= bound, (x, float(abs(g - want)) / bound)
        assert abs(t.reconstruct(float(x)) - want) <= bound, x


def test_reconstruct_result_types_and_shapes():
    t = log_series_limit(2, math.cosh(0.5), 40)
    assert type(t.reconstruct(0.3)) is float
    assert type(t.reconstruct(1)) is float
    assert type(t.reconstruct(np.float64(0.3))) is float
    assert type(t.reconstruct(np.array(0.3))) is float
    grid = np.linspace(0.0, 2 * math.pi, 12).reshape(3, 4)
    assert t.reconstruct(grid).shape == (3, 4)
    assert t.reconstruct([0.1, 0.2]).shape == (2,)
    one = FourierCoeffTable("log", 1, 2.0, math.acosh(2.0), "limit", (0.5,))
    assert np.array_equal(one.reconstruct(grid), np.full((3, 4), 0.5))


def test_reconstruct_scalar_and_array_agree():
    # numpy's vector sin/cos may round differently from the math module, so
    # the two paths agree to a few ulps of sum |c_n|, not bit for bit
    rng = np.random.default_rng(7)
    for p, eta in [(0, 0.05), (3, 0.2), (10, 1.0), (6, 0.5)]:
        t = log_series_limit(p, math.cosh(eta), default_nmax(p, eta))
        psi = rng.uniform(-7.0, 7.0, 200)
        scalar = np.array([t.reconstruct(float(x)) for x in psi])
        tol = 4 * _UNIT_ROUNDOFF * math.fsum(map(abs, t.coeffs))
        assert np.max(np.abs(t.reconstruct(psi) - scalar)) <= tol


def reinsch_reference(coeffs, psi):
    """The Reinsch recurrence in s = +-1 on whole arrays (math on a 0-d psi)."""
    x = np.asarray(psi, dtype=float)
    xp, x = (math, float(x)) if x.ndim == 0 else (np, x)
    s = xp.copysign(1.0, xp.cos(x))
    lam = 2.0 * ((1.0 - s) * xp.cos(0.5 * x) ** 2 - (1.0 + s) * xp.sin(0.5 * x) ** 2)
    b = d = 0.0
    for c in reversed(coeffs[1:]):
        d = c + lam * b + s * d
        b = d + s * b
    return np.float64(coeffs[0] + 0.5 * lam * b + s * d)


def test_reconstruct_is_bit_identical_to_the_signed_recurrence():
    # folding s into c_k and lam changes no bit: negation is exact and the
    # operand order of every sum is kept, signed zeros included
    rng = np.random.default_rng(2024)
    special = np.array([0.0, -0.0, math.pi / 2, -math.pi / 2, math.pi, -math.pi,
                        1.5 * math.pi, 1e-300])
    grids = [0.3e-3 + np.arange(4096) * (2 * math.pi / 4096),
             rng.uniform(-7.0, 7.0, (7, 5)), np.array(2.5), special]
    tables = [make(coeffs=c) for c in (
        (0.75,), (0.5, -1.25), (1.0, -0.5, 0.25), (0.0,) * 6, (-0.0,) * 3,
        tuple((-1.0) ** n / (n + 1) for n in range(40)),
    )]
    tables += [log_series_limit(2, math.cosh(0.8), 52), log_series_limit(5, math.cosh(0.5), 163)]
    for t in tables:
        for psi in grids + list(special):
            got, want = np.asarray(t.reconstruct(psi)), reinsch_reference(t.coeffs, psi)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), (t.nmax, psi)


@pytest.mark.parametrize("psi", [
    math.inf, -math.inf, math.nan, np.array([0.1, math.nan]), [0.0, math.inf],
])
def test_reconstruct_refuses_non_finite_psi(psi):
    # inf used to give nan with a RuntimeWarning and nan a silent nan
    with pytest.raises(ValueError):
        make().reconstruct(psi)


@pytest.mark.parametrize("psi", [1 + 2j, np.complex128(1.0), np.array([1 + 2j]), [0.5, 1j]])
def test_reconstruct_refuses_complex_psi(psi):
    # the imaginary part used to be dropped with a ComplexWarning
    with pytest.raises(ValueError, match="real psi"):
        make().reconstruct(psi)


@pytest.fixture
def no_held_grid(monkeypatch):
    """Start from no held grid, and restore the held one afterwards."""
    monkeypatch.setattr(tables, "_held_grid", (None, None))


def assert_reinsch_bits(table, psi):
    got, want = table.reconstruct(psi), reinsch_reference(table.coeffs, psi)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


GRID = np.random.default_rng(19).uniform(-7.0, 7.0, 4096)
TABLE = log_series_limit(3, math.cosh(0.4), 60)


def test_a_repeated_grid_reuses_its_held_set_up(no_held_grid):
    psi = GRID.copy()
    assert_reinsch_bits(TABLE, psi)
    key, terms = tables._held_grid
    assert key == (psi.shape, psi.tobytes())
    order, m, lam = terms
    assert not order.flags.writeable and not lam.flags.writeable
    assert lam.ctypes.data % 64 == 0  # the loop's vector passes read lam' aligned
    assert m == np.count_nonzero(np.cos(psi) >= 0.0)
    assert_reinsch_bits(TABLE, psi)
    assert tables._held_grid[1] is terms  # not set up again
    assert_reinsch_bits(make(coeffs=(0.5, -1.25)), psi.copy())  # equal bytes hit too
    assert tables._held_grid[1] is terms


def test_a_grid_changed_in_place_is_set_up_again(no_held_grid):
    psi = GRID.copy()
    TABLE.reconstruct(psi)
    psi[::7] = np.pi - psi[::7]  # flips the sign of cos psi there
    assert_reinsch_bits(TABLE, psi)
    assert tables._held_grid[0] == (psi.shape, psi.tobytes())


def test_the_same_bytes_in_another_shape(no_held_grid):
    assert_reinsch_bits(TABLE, GRID)
    for shape in ((64, 64), (2, 8, 256), (4096, 1)):
        assert_reinsch_bits(TABLE, GRID.reshape(shape))
        assert tables._held_grid[0][0] == shape
    assert_reinsch_bits(TABLE, GRID.reshape(64, 64).T)  # a strided view


def test_a_grid_over_the_cap_is_not_held(no_held_grid):
    assert_reinsch_bits(TABLE, GRID)
    held = tables._held_grid
    big = np.linspace(-7.0, 7.0, tables._HELD_GRID_POINTS + 1)
    assert_reinsch_bits(make(), big)
    assert tables._held_grid is held
    at_cap = big[:tables._HELD_GRID_POINTS]
    assert_reinsch_bits(make(), at_cap)
    assert tables._held_grid[0] == (at_cap.shape, at_cap.tobytes())


def test_empty_and_2d_grids(no_held_grid):
    for psi in (np.empty(0), np.empty((0, 3)), np.empty((2, 0)), GRID[:35].reshape(7, 5)):
        for table in (TABLE, make(coeffs=(0.75,))):
            assert_reinsch_bits(table, psi)
            assert_reinsch_bits(table, psi)  # once set up, once held


def test_threads_alternating_two_grids_get_their_own_bits(no_held_grid):
    # each switch replaces the held grid, and a thread reads the old entry
    # or the new one whole, never one grid's key with the other's set-up
    grids = (GRID, 0.3e-3 + np.arange(4096) * (2 * math.pi / 4096))
    want = [reinsch_reference(TABLE.coeffs, psi).tobytes() for psi in grids]

    def wrong_results(first):
        return [i for i in range(60)
                if TABLE.reconstruct(grids[(first + i) % 2]).tobytes() != want[(first + i) % 2]]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(wrong_results, range(4), timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert results == [[]] * 4

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
