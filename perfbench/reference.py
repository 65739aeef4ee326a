"""Independent mpmath reference for cosine coefficients.

The reference never touches the library's closed forms: it applies the
periodic trapezoid rule to the kernel itself,

    c_n = eps_n / M * sum_{j<M} F(2 pi j / M) cos(2 pi n j / M),

doubling M until two levels agree, at a working precision raised until two
precisions agree.  For a kernel analytic in a strip the aliasing error falls
like e^{-M eta}, so the doubling terminates for every chi > 1.
"""

from __future__ import annotations

from fractions import Fraction

import mpmath

TARGET_DIGITS = 25
MAX_NODES = 2**15


def li_kernel(p: int, two_rr: float, chi: float, beta: Fraction):
    """F(c) for c = cos psi: (s (chi - c))^p (log(s (chi - c)) / 2 - beta)."""
    s, x, b = mpmath.mpf(two_rr), mpmath.mpf(chi), mpmath.mpf(beta.numerator) / beta.denominator
    return lambda c: (s * (x - c)) ** p * (mpmath.log(s * (x - c)) / 2 - b)


def power_kernel(q: int, two_rr: float, chi: float):
    """F(c) = (s (chi - c))^(-q)."""
    s, x = mpmath.mpf(two_rr), mpmath.mpf(chi)
    return lambda c: (s * (x - c)) ** (-q)


def log_kernel(p: int, chi: float):
    """F(c) = (chi - c)^p log(chi - c)."""
    x = mpmath.mpf(chi)
    return lambda c: (x - c) ** p * mpmath.log(x - c)


def _trapezoid(make_kernel, ns, m: int):
    """Coefficients c_n, n in ns, from M = m nodes, and max |F| over the
    nodes.  F is even in psi, so only the nodes 0..m/2 are sampled."""
    f = make_kernel()
    half = m // 2
    f_j = [f(mpmath.cos(2 * mpmath.pi * j / m)) for j in range(half + 1)]
    out = []
    for n in ns:
        acc = f_j[0] + (-1) ** n * f_j[half]
        acc += 2 * mpmath.fsum(f_j[j] * mpmath.cos(2 * mpmath.pi * n * j / m)
                               for j in range(1, half))
        out.append((1 if n == 0 else 2) * acc / m)
    return out, max(abs(v) for v in f_j)


def _agree(a, b, digits: int) -> bool:
    tol = mpmath.mpf(10) ** (-digits)
    return all(abs(x - y) <= tol * abs(x) for x, y in zip(a, b))


def _needed_dps(values, scale, digits: int) -> int:
    """Digits to carry so that rounding in the node sum, about 10^-dps
    max |F|, stays 10 digits below the target on the smallest |c_n|."""
    smallest = min(abs(v) for v in values)
    if smallest == 0:
        return 2 * digits + 40
    return digits + 10 + max(0, int(mpmath.ceil(mpmath.log10(scale / smallest))))


def _at_precision(make_kernel, ns, dps: int, digits: int):
    """Node doubling at `dps` digits.  Returns (coefficients, dps), or
    (None, larger dps) when the sums turn out to need more digits."""
    with mpmath.workdps(dps):
        m = 64
        while 2 * max(ns) + 16 > m:
            m *= 2
        prev, _ = _trapezoid(make_kernel, ns, m)
        while True:
            m *= 2
            if m > MAX_NODES:
                raise RuntimeError("trapezoid reference did not converge")
            cur, scale = _trapezoid(make_kernel, ns, m)
            need = _needed_dps(cur, scale, digits)
            if need > dps:
                return None, need
            if _agree(cur, prev, digits):
                return cur, dps
            prev = cur


def trapezoid_coeffs(make_kernel, ns, digits: int = TARGET_DIGITS):
    """Reference coefficients c_n for n in ns, each to about `digits`
    relative digits.  make_kernel() builds F(cos psi) at the working
    precision, which is raised until the sums carry enough digits and the
    result at dps and at dps + 20 agree."""
    ns = list(ns)
    dps = digits + 15
    while True:
        cur, dps = _at_precision(make_kernel, ns, dps, digits)
        if cur is None:
            continue
        check, _ = _at_precision(make_kernel, ns, dps + 20, digits)
        if check is not None and _agree(check, cur, digits):
            return check
        dps += 20
