"""Azimuthal cosine-series container and the default truncation rule."""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from .errors import ConvergenceError

__all__ = ["FourierCoeffTable", "default_nmax"]

_KERNELS = ("power", "inverse_power", "log", "li", "hii")
_METHODS = ("algebraic", "limit", "closed_form")


@dataclass(frozen=True)
class FourierCoeffTable:
    """Coefficients c_n of f(psi) = sum_{n=0}^{N} c_n cos(n psi).

    The n = 0 entry already carries its series weight; no separate halving
    convention applies.  `reconstruct` sums the series by Clenshaw's
    recurrence in Reinsch's form; measured against a 40-digit sum of the
    stored coefficients, its error stays within a few u sum |c_n|, near
    psi = 0 and pi as elsewhere (u = 2^-53).  Every coefficient is finite:
    a route whose value leaves the float range raises ValueError, naming
    the kernel, param and chi, rather than store inf or nan.  The
    conditioning_warning flag is derived from method and eta, not stored.
    """

    kernel: str
    param: int
    chi: float
    eta: float
    method: str
    coeffs: tuple[float, ...]

    def __post_init__(self):
        if self.kernel not in _KERNELS:
            raise ValueError(f"unknown kernel {self.kernel!r}")
        if self.method not in _METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if len(self.coeffs) == 0:
            raise ValueError("empty coefficient table")
        if not all(map(math.isfinite, self.coeffs)):
            key = "q" if self.kernel in ("inverse_power", "hii") else "p"
            raise ValueError(f"{self.kernel} table at {key}={self.param}, chi={self.chi!r}: "
                             "coefficient out of the float range (inf, nan or overflow)")
        if not self.chi > 1.0:
            raise ValueError("FourierCoeffTable needs chi > 1")

    @property
    def conditioning_warning(self) -> bool:
        """An algebraic-route table at eta < 0.2, whose alternating sums cancel
        severely: small tail entries are accurate in the absolute sense only."""
        return self.method == "algebraic" and self.eta < 0.2

    @property
    def nmax(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, n: int) -> float:
        """c_n, with zero extension beyond the stored range for finite series."""
        if n < 0:
            raise ValueError("coefficient index must be >= 0")
        if n <= self.nmax:
            return self.coeffs[n]
        if self.kernel == "power":
            return 0.0
        raise IndexError(f"table holds n <= {self.nmax}")

    def reconstruct(self, psi):
        """Evaluate the cosine series at scalar or array psi.

        Clenshaw's backward recurrence (Math. Comp. 9, 1955) in Reinsch's
        form (Gentleman, Comput. J. 12, 1969), so no cos(n psi) is formed and
        memory is O(M) for M points.  With s = +1 where cos psi >= 0 and -1
        elsewhere, and lam = 2 cos psi - 2s taken from the half angle as
        -4 sin^2(psi/2) or 4 cos^2(psi/2), which avoids the cancellation
        near psi = 0 and pi: d_k = c_k + lam b_{k+1} + s d_{k+1} and
        b_k = d_k + s b_{k+1} for k = N..1 from b = d = 0, and the sum is
        c_0 + (lam/2) b_1 + s d_1.  A scalar (or 0-d) psi runs this on
        Python floats and returns a float.  An array keeps its shape and
        runs one in-place loop with s folded into the coefficients: where
        s = -1, (-1)^k d_k and (-1)^k b_k obey the s = +1 recurrence with
        c'_k = (-1)^k c_k and lam' = -lam = -4 cos^2(psi/2).  The loop
        runs on the points sorted by sign, s = +1 first, so an odd step
        adds c_k to the first slice and subtracts it from the second; the
        result is scattered back to psi's order.  Negation is exact, a - c
        is a + (-c), rounding to nearest is symmetric, and every sum keeps
        the operand order (c + lam b) + d, so the output is bit for bit
        that of the recurrence in s.  A psi that is not finite, or is
        complex, raises ValueError.

        The grid's set-up (the sign sort and lam') depends on psi alone, so
        the last grid's is held for the process and a repeated grid skips
        it: the key is the grid's shape and bytes, not the array object,
        so a grid changed in place is set up again.  The held arrays are
        read-only and the entry is replaced whole, so a thread sees the old
        entry or the new one.  Only grids of at most _HELD_GRID_POINTS
        (2^16) points are held, about 24 bytes a point.
        """
        psi_arr = np.asarray(psi)
        if psi_arr.dtype.kind == "c":
            raise ValueError("reconstruct needs a real psi")
        psi_arr = psi_arr.astype(float, copy=False)
        if not np.isfinite(psi_arr).all():
            raise ValueError("reconstruct needs a finite psi")
        if psi_arr.ndim == 0:
            x = float(psi_arr)
            s = math.copysign(1.0, math.cos(x))
            # 1 - s and 1 + s are 0 or 2 exactly, so one half-angle term survives
            lam = 2.0 * ((1.0 - s) * math.cos(0.5 * x) ** 2 - (1.0 + s) * math.sin(0.5 * x) ** 2)
            b = d = 0.0
            for c in reversed(self.coeffs[1:]):
                d = c + lam * b + s * d
                b = d + s * b
            return float(self.coeffs[0] + 0.5 * lam * b + s * d)
        order, m, lam = _azimuth_terms(psi_arr)
        b, d, t = (_aligned_zeros(lam.size) for _ in range(3))
        plus, minus = t[:m], t[m:]
        for k in range(self.nmax, 0, -1):
            c = self.coeffs[k]
            np.multiply(lam, b, out=t)
            if k % 2:
                plus += c
                minus -= c
            else:
                t += c
            d += t
            b += d
        out = np.empty_like(lam)
        out[order] = self.coeffs[0] + 0.5 * lam * b + d
        return out.reshape(psi_arr.shape)


def _aligned_zeros(n: int):
    """n float zeros starting on a 64-byte boundary.  The Reinsch loop's
    vector passes run fastest on arrays aligned to the SIMD width, and where
    the allocator leaves an array in a 64-byte line otherwise depends on
    the allocations before it (on an AVX-512 host, a docstring edit in
    another module moved ring_lattice by 10-16 %).  Alignment changes no
    element's value."""
    buf = np.zeros(n + 8)
    start = (-buf.ctypes.data % 64) // 8
    return buf[start:start + n]


# grids of at most this many points have their set-up held, about 24 bytes a
# point: the key's copy of psi, the sort order and lam'
_HELD_GRID_POINTS = 2**16
_held_grid = (None, None)  # ((shape, psi bytes), (order, m, lam')) of the last grid held


def _azimuth_terms(psi_arr):
    """(order, m, lam') of an array psi: order lists its flat indices with
    s = +1 first, each sign in index order, m points have s = +1, and lam'
    is in that order.  The last grid of at most _HELD_GRID_POINTS points is
    held (see FourierCoeffTable.reconstruct)."""
    global _held_grid
    key = None
    if psi_arr.size <= _HELD_GRID_POINTS:
        key = (psi_arr.shape, psi_arr.tobytes())
        held_key, held_terms = _held_grid
        if held_key == key:
            return held_terms
    s = np.copysign(1.0, np.cos(psi_arr))
    half = 0.5 * psi_arr
    # 0.0 - ... keeps lam' = +0 at psi = 0, as lam is
    lam = 0.0 - 4.0 * np.where(s < 0.0, np.cos(half) ** 2, np.sin(half) ** 2)
    positive = (s > 0.0).ravel()
    first = np.flatnonzero(positive)
    order = np.concatenate((first, np.flatnonzero(~positive)))
    lam = np.take(lam.ravel(), order, out=_aligned_zeros(order.size))
    for a in (order, lam):
        a.setflags(write=False)
    terms = (order, first.size, lam)
    if key is not None:
        _held_grid = (key, terms)
    return terms


def default_nmax(p: int, eta: float, tail_tol: float = 1e-10) -> int:
    """Smallest N >= max(p+1, 4) with e^{-N eta} N^{2p} < tail_tol.

    The envelope e^{-n eta} n^{2p} dominates every kernel tail handled here;
    halving tail_tol grows N by about log2 / eta.  Its log, -N eta + 2p log N,
    is concave in N, so the N at which it stays at or above log(tail_tol)
    form one run starting at max(p+1, 4), and the first N past the run is
    found by bisection over the integers up to the cap.  Raises
    ConvergenceError when N would pass 10^6.
    """
    if p < 0:
        raise ValueError("default_nmax needs p >= 0")
    if not eta > 0.0:
        raise ValueError("default_nmax needs eta > 0")
    if not 0.0 < tail_tol < 1.0:
        raise ValueError("tail_tol must be in (0, 1)")
    log_tol = math.log(tail_tol)

    def above(n: int) -> bool:
        return -n * eta + 2 * p * math.log(n) >= log_tol

    lo = max(p + 1, 4)
    if not above(lo):
        return lo
    hi = 10**6
    if lo >= hi or above(hi):
        raise ConvergenceError("truncation rule passed its cap of 10^6 terms")
    # above(lo) holds and above(hi) fails: keep it so while narrowing
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if above(mid):
            lo = mid
        else:
            hi = mid
    return hi
