"""Azimuthal cosine-series container and the default truncation rule."""

from __future__ import annotations

from dataclasses import dataclass, field
import math

import numpy as np

from .errors import ConvergenceError

__all__ = ["FourierCoeffTable", "default_nmax"]

_KERNELS = ("power", "inverse_power", "log", "li", "hii")
_METHODS = ("algebraic", "limit", "closed_form", "oracle")


@dataclass(frozen=True)
class FourierCoeffTable:
    """Coefficients c_n of f(psi) = sum_{n=0}^{N} c_n cos(n psi).

    The n = 0 entry already carries its series weight; no separate halving
    convention applies.  Every coefficient is finite: a route whose value
    leaves the float range raises ValueError rather than store inf or nan.
    `conditioning_warning` marks tables built from alternating sums at
    eta < 0.2, whose small-magnitude tail entries are accurate only in the
    absolute sense.
    """

    kernel: str
    param: int
    chi: float
    eta: float
    method: str
    coeffs: tuple[float, ...]
    conditioning_warning: bool = field(default=False)

    def __post_init__(self):
        if self.kernel not in _KERNELS:
            raise ValueError(f"unknown kernel {self.kernel!r}")
        if self.method not in _METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if len(self.coeffs) == 0:
            raise ValueError("empty coefficient table")
        if not all(math.isfinite(c) for c in self.coeffs):
            raise ValueError("coefficient out of the float range (inf or nan)")
        if not self.chi > 1.0:
            raise ValueError("FourierCoeffTable needs chi > 1")

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
        """Evaluate the cosine series at scalar or array psi."""
        psi_arr = np.asarray(psi, dtype=float)
        n = np.arange(len(self.coeffs))
        vals = np.cos(np.multiply.outer(psi_arr, n)) @ np.asarray(self.coeffs)
        return float(vals) if np.isscalar(psi) or psi_arr.ndim == 0 else vals


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
