"""Associated Legendre functions of the first kind on the real axis z > 1,
for integer degree and any integer order, plus degree-derivatives at integer
degree and a slow general-degree evaluator used as an oracle.

Evaluation strategy (all branches are cancellation-free for z > 1):

* order m = 0..p: P_p^m(z) = (z^2-1)^{m/2} q_m(z) with q_m the m-th derivative
  of the Legendre polynomial; q_m is expanded about z = 1, where every Taylor
  coefficient is positive, so the sum loses no digits however close z is to 1.
* order m >= p+1: exactly zero.
* order -n < 0: terminating Gauss sum
      P_p^{-n}(z) = ((z-1)/(z+1))^{n/2} / n! * S_{p,n}(z),
      S_{p,n}(z) = sum_{j=0}^{p} [(-p)_j (p+1)_j / (j! (1+n)_j)] ((1-z)/2)^j,
  whose terms are again all positive for z > 1.

Each closed form here, and those of the series routes built on it, is
written once over an evaluation point that owns the arithmetic.  LegendreArg
works in floats: when the argument is coth(eta) the factors (z-1),
(z^2-1)^{1/2} and ((z-1)/(z+1))^{1/2} take the stable forms 2/expm1(2 eta),
csch eta and e^{-eta}.  ExactLegendreArg works in exact rationals at
t = e^eta, where coth, cosh, sinh and every e^{k eta} are rational; the
identity suite in validation evaluates the production closed forms there.

A closed form that the identity suite evaluates more than once at a point
(_legendre, _neg_order_sum, and _r_frak in series_algebraic) is called
through pt.cached(fn, *args).  On LegendreArg that is a plain call; on
ExactLegendreArg it memoizes the exact value on the point, keyed by the
function object and its arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .errors import ConvergenceError
from .logpoly import logpoly_eval, logpoly_recurrence
from .scalars import eta_from_chi, harmonic

__all__ = [
    "ExactLegendreArg",
    "LegendreArg",
    "legendre_p",
    "legendre_p_nu",
    "legendre_deg_deriv",
    "legendre_p_exact",
    "neg_order_sum",
    "taylor_coeffs_at1",
]


@dataclass(frozen=True)
class LegendreArg:
    """Float evaluation point z > 1, and the arithmetic the closed forms use.

    Given eta, z = coth(eta) and every factor takes its eta-stable form:
    u = z - 1 = 2/expm1(2 eta), e^{k eta} and sinh^k(eta); z itself is then
    informational.  With eta None the factors are formed from z.
    """

    z: float
    eta: float | None
    u: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.eta is None:
            if not self.z > 1.0:
                raise ValueError("LegendreArg needs z > 1")
            u = self.z - 1.0
        else:
            if not self.eta > 0.0:
                raise ValueError("LegendreArg needs eta > 0")
            u = 2.0 / math.expm1(2.0 * self.eta)
        object.__setattr__(self, "u", u)

    @classmethod
    def from_chi(cls, chi: float) -> "LegendreArg":
        eta = eta_from_chi(chi)
        return cls(z=chi / math.sqrt((chi - 1.0) * (chi + 1.0)), eta=eta)

    @classmethod
    def from_eta(cls, eta: float) -> "LegendreArg":
        if not eta > 0.0:
            raise ValueError("from_eta needs eta > 0")
        return cls(z=1.0 / math.tanh(eta), eta=eta)

    weight = staticmethod(float)
    total = staticmethod(math.fsum)

    def exp(self, k: int) -> float:
        """e^{k eta} = ((z+1)/(z-1))^{k/2}."""
        if self.eta is None:
            return math.exp(-0.5 * k * math.log(self.u / (self.z + 1.0)))
        return math.exp(k * self.eta)

    def sinh_pow(self, k: int) -> float:
        """sinh^k(eta) = (z^2-1)^{-k/2}."""
        if self.eta is None:
            return math.exp(-0.5 * k * math.log(self.u * (self.z + 1.0)))
        return math.sinh(self.eta) ** k

    def cached(self, fn, *args):
        """fn(self, *args); float values are cheap to recompute, so a plain call."""
        return fn(self, *args)

    def horner(self, coeffs) -> float:
        """Polynomial with exact coefficients coeffs[i] of u^i, at u."""
        u = self.u
        acc = 0.0
        for c in reversed(coeffs):
            acc = acc * u + float(c)
        return acc

    def scaled_logpoly(self, p: int, k: int) -> float:
        """e^{k eta} R_p^k(cosh eta), formed as exp(k eta + log R) when R > 0."""
        val = logpoly_eval(logpoly_recurrence(p, k), math.cosh(self.eta))
        if val > 0.0:
            return math.exp(k * self.eta + math.log(val))
        return math.exp(k * self.eta) * val


@dataclass(frozen=True)
class ExactLegendreArg:
    """Exact evaluation point z = coth(eta), parametrized by the rational
    t = e^eta > 1: coth, sinh, cosh and every e^{k eta} are rational in t, so
    each closed form evaluated here is an exact Fraction.

    The point memoizes what it computes: e^{k eta}, sinh^k(eta),
    e^{k eta} R_p^k(cosh eta), and every closed form called through
    cached(fn, *args), keyed by the function object and its arguments.  Each
    value is an exact Fraction that depends only on t and that key, so a
    memoized value is the value a fresh evaluation would return; and a
    different function (a patched or a new closed form) is a different key,
    so it is evaluated, never served another function's value.  The memo is
    excluded from equality and hashing, which use t alone.  from_eta returns
    a point shared by its callers from a cache of the two most recent eta,
    which bounds the memory the memos hold.
    """

    t: Fraction
    u: Fraction = field(init=False, repr=False, compare=False)
    x: Fraction = field(init=False, repr=False, compare=False)
    sinh: Fraction = field(init=False, repr=False, compare=False)
    _memo: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        t = self.t
        if not t > 1:
            raise ValueError("ExactLegendreArg needs t > 1")
        object.__setattr__(self, "u", 2 / (t * t - 1))
        object.__setattr__(self, "x", (t * t + 1) / (2 * t))
        object.__setattr__(self, "sinh", (t * t - 1) / (2 * t))

    @classmethod
    @lru_cache(maxsize=2)
    def from_eta(cls, eta: float) -> "ExactLegendreArg":
        """The shared point at t = Fraction(e^eta); the identity suite walks
        eta in its outer loop, so two slots keep every point it revisits."""
        return cls(Fraction(math.exp(eta)))

    @staticmethod
    def weight(c):
        return c

    total = staticmethod(sum)

    def cached(self, fn, *args):
        """fn(self, *args), evaluated once per point."""
        key = (fn, args)
        memo = self._memo
        if key not in memo:
            memo[key] = fn(self, *args)
        return memo[key]

    def exp(self, k: int) -> Fraction:
        return self.cached(_exact_exp, k)

    def sinh_pow(self, k: int) -> Fraction:
        return self.cached(_exact_sinh_pow, k)

    def horner(self, coeffs) -> Fraction:
        u = self.u
        acc = Fraction(0)
        for c in reversed(coeffs):
            acc = acc * u + c
        return acc

    def scaled_logpoly(self, p: int, k: int) -> Fraction:
        return self.cached(_exact_scaled_logpoly, p, k)


def _exact_exp(pt: ExactLegendreArg, k: int) -> Fraction:
    return pt.t**k


def _exact_sinh_pow(pt: ExactLegendreArg, k: int) -> Fraction:
    return pt.sinh**k


def _exact_scaled_logpoly(pt: ExactLegendreArg, p: int, k: int) -> Fraction:
    return pt.exp(k) * logpoly_recurrence(p, k).eval_exact(pt.x)


@lru_cache(maxsize=None)
def _poly_coeffs(p: int) -> tuple[Fraction, ...]:
    """Exact monomial coefficients of the Legendre polynomial P_p."""
    coeffs = [Fraction(0)] * (p + 1)
    for j in range(p // 2 + 1):
        c = Fraction((-1) ** j * math.comb(p, j) * math.comb(2 * p - 2 * j, p), 2**p)
        coeffs[p - 2 * j] = c
    return tuple(coeffs)


@lru_cache(maxsize=None)
def taylor_coeffs_at1(p: int, m: int) -> tuple[Fraction, ...]:
    """Exact Taylor coefficients about z = 1 of d^m P_p / dz^m (0 <= m <= p).

    Built from the exact polynomial by symbolic differentiation and shift;
    all entries are positive, equal to (p+m+j)! / (2^{m+j} (m+j)! (p-m-j)! j!).
    """
    if not 0 <= m <= p:
        raise ValueError("taylor_coeffs_at1 needs 0 <= m <= p")
    mono = list(_poly_coeffs(p))
    for _ in range(m):
        mono = [i * c for i, c in enumerate(mono)][1:]
    shifted = [Fraction(0)] * len(mono)
    for j in range(len(mono)):
        shifted[j] = sum(math.comb(i, j) * mono[i] for i in range(j, len(mono)))
    return tuple(shifted)


def _neg_order_sum(pt, p: int, n: int):
    if p < 0 or n < 0:
        raise ValueError("neg_order_sum needs p >= 0 and n >= 0")
    w = -pt.u / 2  # (1 - z)/2, formed without cancellation
    term = total = pt.weight(1)
    for j in range(p):
        term *= (j - p) * (p + 1 + j) * w / ((j + 1) * (1 + n + j))
        total += term
    return total


def neg_order_sum(p: int, n: int, z: float) -> float:
    """Terminating Gauss sum S_{p,n}(z); all terms positive for z > 1.

    P_p^{-n}(z) = ((z-1)/(z+1))^{n/2} S_{p,n}(z) / n!; callers that must avoid
    under/overflow fold the exponential prefactor and 1/n! analytically.
    """
    return _neg_order_sum(LegendreArg(z, None), p, n)


def _legendre(pt, p: int, m: int):
    """P_p^m at the point pt, for integer degree p >= 0 and any integer order."""
    if p < 0:
        raise ValueError("Legendre degree must be >= 0")
    if m > p:
        return pt.weight(Fraction(0))
    if m >= 0:
        q = pt.horner(taylor_coeffs_at1(p, m))
        return q if m == 0 else pt.sinh_pow(-m) * q
    n = -m
    s = pt.cached(_neg_order_sum, p, n)
    return pt.exp(-n) * pt.weight(Fraction(1, math.factorial(n))) * s


def legendre_p(p: int, m: int, z: float, *, eta: float | None = None) -> float:
    """P_p^m(z) for integer degree p >= 0, any integer order m, z > 1;
    pass eta with z = coth(eta) for the eta-stable forms."""
    return _legendre(LegendreArg(z, eta), p, m)


def legendre_p_exact(p: int, m: int, t: Fraction) -> Fraction:
    """P_p^m(coth eta) in exact rational arithmetic, parametrized by t = e^eta."""
    return _legendre(ExactLegendreArg(t), p, m)


def _degree_sum_same_order(pt, p: int, m: int):
    """sum_{k<p-m} (-1)^k w_k P_{k+m}^m: the same-order part of the degree
    derivative at 0 <= m <= p, shared with the log-kernel band coefficient.
    Each weight is assembled exactly, then cast by the point."""
    acc = 0
    for k in range(p - m):
        w = Fraction(2 * k + 2 * m + 1, (p - m - k) * (p + m + k + 1)) * (
            1
            + Fraction(
                math.factorial(k) * math.factorial(p + m),
                math.factorial(k + 2 * m) * math.factorial(p - m),
            )
        )
        acc += (-1) ** k * pt.weight(w) * pt.cached(_legendre, k + m, m)
    return acc


def _degree_sum_neg_order(pt, p: int, m: int):
    """sum_{k<m} (-1)^k (2k+1)/((p-k)(p+k+1)) P_k^{-m}: the negative-order
    part of the degree derivative at 0 <= m <= p, shared with the band
    coefficient."""
    acc = 0
    for k in range(m):
        w = Fraction(2 * k + 1, (p - k) * (p + k + 1))
        acc += (-1) ** k * pt.weight(w) * pt.cached(_legendre, k, -m)
    return acc


def legendre_p_nu(nu: float, m: int, z: float, *, max_terms: int = 10**6) -> float:
    """P_nu^m(z) for real degree nu, integer order m <= 0, z in (1, 3).

    Gauss series about z = 1; the term ratio tends to (z-1)/2, so convergence
    requires z < 3.  Slow but independent of the integer-degree code; used as
    the oracle for degree-derivatives.
    """
    if m > 0:
        raise ValueError("legendre_p_nu handles m <= 0 only")
    if not 1.0 < z < 3.0:
        raise ValueError("legendre_p_nu needs z in (1, 3)")
    n = -m
    w = (1.0 - z) / 2.0
    term = 1.0
    total = 1.0
    for j in range(max_terms):
        term *= (j - nu) * (nu + 1 + j) * w / ((j + 1) * (1 + n + j))
        total += term
        if abs(term) <= 1e-17 * abs(total) and j > nu:
            break
    else:
        raise ConvergenceError("legendre_p_nu hit the term cap")
    pref = math.exp(0.5 * n * math.log((z - 1.0) / (z + 1.0))) / math.gamma(1 + n)
    return pref * total


def legendre_deg_deriv(p: int, m: int, z: float) -> float:
    """Derivative of P_nu^m(z) with respect to the degree nu, at nu = p >= 0.

    For 0 <= m <= p the value collapses to Legendre evaluations at integer
    parameters with rational weights; for m >= p+1 it is a single negative-order
    evaluation.  All weights are assembled exactly before rounding.
    """
    if p < 0:
        raise ValueError("legendre_deg_deriv needs p >= 0")
    if m < 0:
        raise ValueError("legendre_deg_deriv handles m >= 0 only")
    if not z > 1.0:
        raise ValueError("legendre_deg_deriv needs z > 1")
    pt = LegendreArg(z, None)
    if m >= p + 1:
        w = math.factorial(p + m) * math.factorial(m - p - 1)
        return (-1) ** (p + m + 1) * w * _legendre(pt, p, -m)
    out = math.log((z + 1.0) / 2.0) * _legendre(pt, p, m)
    # 2 psi(2p+1) - psi(p+1) - psi(p-m+1), exact
    dig = 2 * harmonic(2 * p) - harmonic(p) - harmonic(p - m)
    out += float(dig) * _legendre(pt, p, m)
    out += (-1) ** (p + m) * _degree_sum_same_order(pt, p, m)
    w = Fraction(math.factorial(p + m), math.factorial(p - m))
    out += (-1) ** p * float(w) * _degree_sum_neg_order(pt, p, m)
    return out
