"""Associated Legendre functions of the first kind on the real axis z > 1,
for integer degree and any integer order, plus degree-derivatives at integer
degree, whose two finite degree sums (_degree_sums) the log-kernel band
coefficient of series_limit shares, weighted by w_n.  The real-degree series
that checks the degree-derivatives is a reference construction in validation.

Evaluation strategy (all branches are cancellation-free for z > 1):

* order m = 0..p: P_p^m(z) = (z^2-1)^{m/2} q_m(z) with q_m the m-th derivative
  of the Legendre polynomial; q_m is expanded about z = 1, where every Taylor
  coefficient is positive, so the sum loses no digits however close z is to 1.
* order m >= p+1: exactly zero.
* order -n < 0: terminating Gauss sum
      P_p^{-n}(z) = ((z-1)/(z+1))^{n/2} / n! * S_{p,n}(z),
      S_{p,n}(z) = sum_{j=0}^{p} [(-p)_j (p+1)_j / (j! (1+n)_j)] ((1-z)/2)^j,
  whose terms are again all positive for z > 1.  _neg_order_term writes it
  once for P_p^{-n}, the degree derivative past m = p, the log tail and the
  inverse power; the float point casts a weight that would not stay normal
  scaled by a power of two.

Each closed form here, and those of the series routes built on it, is
written once over an evaluation point that owns the arithmetic.  LegendreArg
is one float point, z = coth(eta), that holds eta and u = z - 1: the factors
(z^2-1)^{1/2} and ((z-1)/(z+1))^{1/2} are csch eta and e^{-eta}, and the
positive-term sums run in u.  from_eta sets u = 2/expm1(2 eta); from_z, behind
the z-argument functions, keeps u = z - 1 exact and sets eta = log1p(2/u)/2.
ExactLegendreArg works in exact rationals at t = e^eta, where coth, cosh,
sinh and every e^{k eta} are rational; the identity suite in validation
evaluates the production closed forms there.

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

from .errors import in_float_range
from .logpoly import horner, logpoly_eval, logpoly_recurrence
from .scalars import harmonic

__all__ = [
    "ExactLegendreArg",
    "LegendreArg",
    "legendre_p",
    "legendre_deg_deriv",
    "legendre_p_exact",
    "neg_order_sum",
    "taylor_coeffs_at1",
]


@dataclass(frozen=True)
class LegendreArg:
    """Float evaluation point z = coth(eta) > 1, holding eta and u = z - 1.

    e^{k eta} and sinh^k(eta) come from eta; the Taylor and Gauss sums run in
    u.  from_eta sets u = 2/expm1(2 eta), or 2 e^{-2 eta}/(-expm1(-2 eta))
    past eta ~ 354.9, where expm1(2 eta) overflows; from_z keeps u = z - 1
    exact, which those sums need near z = 1, and sets eta = log1p(2/u)/2.
    """

    eta: float
    u: float

    @classmethod
    def from_eta(cls, eta: float) -> "LegendreArg":
        if not eta > 0.0:
            raise ValueError("from_eta needs eta > 0")
        try:
            return cls(eta, 2.0 / math.expm1(2.0 * eta))
        except OverflowError:
            return cls(eta, 2.0 * math.exp(-2.0 * eta) / -math.expm1(-2.0 * eta))

    @classmethod
    def from_z(cls, z: float) -> "LegendreArg":
        if not (z > 1.0 and math.isfinite(z)):
            raise ValueError("from_z needs a finite z > 1")
        u = z - 1.0
        return cls(0.5 * math.log1p(2.0 / u), u)

    weight = staticmethod(float)
    total = staticmethod(math.fsum)

    def exp(self, k: int) -> float:
        return math.exp(k * self.eta)

    def sinh_pow(self, k: int) -> float:
        try:
            return math.sinh(self.eta) ** k
        except OverflowError:
            raise ValueError(f"sinh(eta)^{k} overflows double precision") from None

    def cached(self, fn, *args):
        """fn(self, *args), a plain call: the float point keeps no memo.

        Its values are not cheap: the algebraic route forms every
        e^{k eta} R_p^k(cosh eta) of scaled_logpoly again for each n, which
        is most of a default log table's build (85% of a cProfile of 400
        ring-pair tables).  A memo stays out while the benchmark's tracer
        counts logpoly evaluations per call and its tests assert those
        counts; the limit route needs no R_p^k at all."""
        return fn(self, *args)

    def scaled_logpoly(self, p: int, k: int) -> float:
        """e^{k eta} R_p^k(cosh eta) as exp(k eta + log R); R > 0 (or inf) at
        cosh eta >= 1, as R_p^k's coefficients are >= 0, its leading one > 0."""
        val = logpoly_eval(logpoly_recurrence(p, k), math.cosh(self.eta))
        return math.exp(k * self.eta + math.log(val))


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

    def scaled_logpoly(self, p: int, k: int) -> Fraction:
        return self.cached(_exact_scaled_logpoly, p, k)


def _exact_exp(pt: ExactLegendreArg, k: int) -> Fraction:
    return pt.t**k


def _exact_sinh_pow(pt: ExactLegendreArg, k: int) -> Fraction:
    return pt.sinh**k


def _exact_scaled_logpoly(pt: ExactLegendreArg, p: int, k: int) -> Fraction:
    return pt.exp(k) * logpoly_recurrence(p, k).eval_exact(pt.x)


@lru_cache(maxsize=None)
def taylor_coeffs_at1(p: int, m: int) -> tuple[Fraction, ...]:
    """Exact Taylor coefficients about z = 1 of d^m P_p / dz^m (0 <= m <= p):
    the closed form (p+m+j)! / (2^{m+j} (m+j)! (p-m-j)! j!), j = 0..p-m, all
    positive."""
    if not 0 <= m <= p:
        raise ValueError("taylor_coeffs_at1 needs 0 <= m <= p")
    f = math.factorial
    return tuple(
        Fraction(f(p + m + j), 2 ** (m + j) * f(m + j) * f(p - m - j) * f(j))
        for j in range(p - m + 1)
    )


def _neg_order_sum(pt, p: int, n: int):
    if p < 0 or n < 0:
        raise ValueError("neg_order_sum needs p >= 0 and n >= 0")
    w = -pt.u / 2  # (1 - z)/2, formed without cancellation
    term = total = pt.weight(1)
    for j in range(p):
        term *= (j - p) * (p + 1 + j) * w / ((j + 1) * (1 + n + j))
        total += term
    return total


@in_float_range
def neg_order_sum(p: int, n: int, z: float) -> float:
    """Terminating Gauss sum S_{p,n}(z), all terms positive for z > 1:
    P_p^{-n}(z) = ((z-1)/(z+1))^{n/2} S_{p,n}(z) / n!, formed by _neg_order_term."""
    return _neg_order_sum(LegendreArg.from_z(z), p, n)


def _neg_order_term(pt, p: int, n: int, w, scale):
    """n! w scale P_p^{-n}(coth eta) = w scale e^{-n eta} S_{p,n}, for an exact
    weight w that holds P_p^{-n}'s 1/n!.  Where the float point's cast of w is
    0, subnormal or overflows, it takes w 2^-e (e: w's binary exponent) and
    scales by 2^e, which rounds nothing while the products stay normal."""
    try:
        c = pt.weight(w)
    except OverflowError:
        c = 0.0
    if isinstance(c, float) and abs(c) < 2.0**-1022:  # the exact point's c is exact
        e = abs(w.numerator).bit_length() - w.denominator.bit_length()
        return math.ldexp(_neg_order_term(pt, p, n, w / Fraction(2) ** e, scale), e)
    return c * scale * pt.exp(-n) * pt.cached(_neg_order_sum, p, n)


def _legendre(pt, p: int, m: int):
    """P_p^m at the point pt, for integer degree p >= 0 and any integer order."""
    if p < 0:
        raise ValueError("Legendre degree must be >= 0")
    if m > p:
        return pt.weight(Fraction(0))
    if m >= 0:
        q = horner(taylor_coeffs_at1(p, m), pt.u, pt.weight)
        return q if m == 0 else pt.sinh_pow(-m) * q
    return _neg_order_term(pt, p, -m, Fraction(1, math.factorial(-m)), 1)


@in_float_range
def legendre_p(p: int, m: int, z: float) -> float:
    """P_p^m(z) for integer degree p >= 0, any integer order m, finite z > 1."""
    return _legendre(LegendreArg.from_z(z), p, m)


def legendre_p_exact(p: int, m: int, t: Fraction) -> Fraction:
    """P_p^m(coth eta) in exact rational arithmetic, parametrized by t = e^eta."""
    return _legendre(ExactLegendreArg(t), p, m)


def _degree_sums(pt, p: int, m: int, w, scale):
    """The degree derivative's two finite sums at 0 <= m <= p, as a list of
    terms: (-1)^{p+m} S_same for m <= p-1 and (-1)^p (p+m)!/(p-m)! S_neg for
    m >= 1, S_same = sum_{k<p-m} (-1)^k c_k P_{k+m}^m with
    c_k = (2k+2m+1)/((p-m-k)(p+m+k+1)) (1 + k! (p+m)!/((k+2m)! (p-m)!)) and
    S_neg = sum_{k<m} (-1)^k (2k+1)/((p-k)(p+k+1)) P_k^{-m}.  Each prefactor
    is folded into the exact weight w before the point casts it; each term is
    then multiplied by scale."""
    f = math.factorial
    terms = []
    if m <= p - 1:
        s = 0
        for k in range(p - m):
            c = Fraction(f(k) * f(p + m), f(k + 2 * m) * f(p - m)) + 1
            c *= Fraction(2 * k + 2 * m + 1, (p - m - k) * (p + m + k + 1))
            s += (-1) ** k * pt.weight(c) * pt.cached(_legendre, k + m, m)
        terms.append(pt.weight((-1) ** (p + m) * w) * scale * s)
    if m >= 1:
        s = 0
        for k in range(m):
            c = Fraction(2 * k + 1, (p - k) * (p + k + 1))
            s += (-1) ** k * pt.weight(c) * pt.cached(_legendre, k, -m)
        terms.append(pt.weight((-1) ** p * Fraction(f(p + m), f(p - m)) * w) * scale * s)
    return terms


@in_float_range
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
    pt = LegendreArg.from_z(z)
    if m >= p + 1:
        # (-1)^{p+m+1} (p+m)! (m-p-1)! P_p^{-m}, with the 1/m! of P_p^{-m} in
        # the weight, which _neg_order_term folds where its cast leaves the range
        f = math.factorial
        w = Fraction((-1) ** (p + m + 1) * f(p + m) * f(m - p - 1), f(m))
        return _neg_order_term(pt, p, m, w, 1)
    leg = _legendre(pt, p, m)
    # 2 psi(2p+1) - psi(p+1) - psi(p-m+1), exact
    dig = 2 * harmonic(2 * p) - harmonic(p) - harmonic(p - m)
    out = math.log((z + 1.0) / 2.0) * leg + float(dig) * leg
    return sum(_degree_sums(pt, p, m, Fraction(1), 1.0), out)
