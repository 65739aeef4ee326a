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
        if not all(math.isfinite(c) for c in self.coeffs):
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
        c'_k = (-1)^k c_k and lam' = -lam = -4 cos^2(psi/2).  Negation is
        exact, rounding to nearest is symmetric, and every sum keeps the
        operand order (c + lam b) + d, so the output is bit for bit that of
        the recurrence in s.  A psi that is not finite raises ValueError.
        """
        psi_arr = np.asarray(psi, dtype=float)
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
        s = np.copysign(1.0, np.cos(psi_arr))
        half = 0.5 * psi_arr
        # 0.0 - ... keeps lam' = +0 at psi = 0, as lam is
        lam = 0.0 - 4.0 * np.where(s < 0.0, np.cos(half) ** 2, np.sin(half) ** 2)
        b, d, t, u = (np.zeros_like(lam) for _ in range(4))
        for k in range(self.nmax, 0, -1):
            np.multiply(lam, b, out=t)
            t += np.multiply(s, self.coeffs[k], out=u) if k % 2 else self.coeffs[k]
            d += t
            b += d
        return self.coeffs[0] + 0.5 * lam * b + d


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
