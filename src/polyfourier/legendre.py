"""Associated Legendre functions of the first kind on the real axis z > 1,
for integer degree and any integer order, and their degree derivative at
integer degree, written once over an evaluation point in _deg_deriv: each
limit-route log entry of series_limit is w_n sinh^p(eta) times it, and
legendre_deg_deriv is it at unit weight.  The real-degree series that
checks it is a reference construction in validation.

Evaluation strategy (all branches are cancellation-free for z > 1):

* order m = 0..p: P_p^m(z) = (z^2-1)^{m/2} q_m(z) with q_m the m-th derivative
  of the Legendre polynomial; q_m is expanded about z = 1, where every Taylor
  coefficient is positive, so the sum loses no digits however close z is to 1.
* order m >= p+1: exactly zero.
* order -n < 0: terminating Gauss sum
      P_p^{-n}(z) = ((z-1)/(z+1))^{n/2} / n! * S_{p,n}(z),
      S_{p,n}(z) = sum_{j=0}^{p} [(-p)_j (p+1)_j / (j! (1+n)_j)] ((1-z)/2)^j,
  whose terms are again all positive for z > 1.  _neg_order_term writes it
  once for P_p^{-n}, the degree derivative past m = p (the log tail) and the
  inverse power; the float point casts a weight that would not stay normal
  scaled by a power of two.

Each closed form here, and those of the series routes built on it, is
written once over an evaluation point that owns the arithmetic.  LegendreArg
is one float point, z = coth(eta), that holds eta and u = z - 1: the factors
(z^2-1)^{1/2} and ((z-1)/(z+1))^{1/2} are csch eta and e^{-eta}, and the
positive-term sums run in u.  from_eta sets u = 2/expm1(2 eta); from_z, behind
the z-argument functions, keeps u = z - 1 exact and sets eta = log1p(2/u)/2.
SymbolicLegendreArg is the exact point as a function of t = e^eta, whose
values are RationalT, P(t) (t^2-1)^e / d with P an integer Laurent
polynomial; it holds no eta, so the identities validation proves there hold
for every eta.  Its total is RationalT.total, which writes all its terms
over one lcm denominator and canonicalizes the sum once, where sum() would
canonicalize after every term.

A closed form that the identity suite evaluates more than once
(_legendre, _neg_order_sum, and _r_frak in series_algebraic) is called
through pt.cached(fn, *args).  On LegendreArg that is a plain call; on the
symbolic point it memoizes the value for the process, keyed by the function
object and its arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import in_float_range
from .logpoly import _nearest_float, horner, logpoly_eval, logpoly_recurrence
from .scalars import harmonic

__all__ = [
    "LegendreArg",
    "RationalT",
    "SYMBOLIC",
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
    weight rounds each exact weight (an int or a Fraction) once, by
    _nearest_float; total is math.fsum.
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

    weight = staticmethod(_nearest_float)
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
        is most of a default log table's build, though each R_p^k rounds its
        coefficients to floats once, not per evaluation.  A memo stays out
        while the benchmark's tracer counts logpoly evaluations per call and
        its tests assert those counts; the limit route needs no R_p^k at
        all."""
        return fn(self, *args)

    def scaled_logpoly(self, p: int, k: int) -> float:
        """e^{k eta} R_p^k(cosh eta) as exp(k eta + log R); R > 0 (or inf) at
        cosh eta >= 1, as R_p^k's coefficients are >= 0, its leading one > 0."""
        val = logpoly_eval(logpoly_recurrence(p, k), math.cosh(self.eta))
        return math.exp(k * self.eta + math.log(val))


def _poly_mul(a, b) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


class RationalT:
    """P(t) (t^2-1)^e / d in Q(t), P = t^lo (c_0 + c_1 t + ...) with integer
    c_i, integer e and d > 0, kept canonical (c_0 and the top c_i nonzero, P
    prime to t^2-1, gcd(c, d) = 1, zero as c = ()): == compares the fields,
    and a constant hashes as the equal Fraction.  It divides by a monomial
    c t^j (t^2-1)^k / d only, an int or a Fraction included.

    Scaling by a nonzero monomial keeps c_0 and the top c_i nonzero and P
    prime to t^2-1, so * and / by a monomial divide out the content gcd
    only (_times); a product of two polynomials and a sum (total, +) are
    canonicalized in full."""

    __slots__ = ("lo", "c", "e", "d")

    def __init__(self, lo: int, c, e: int = 0, d: int = 1):
        nz = [i for i, x in enumerate(c) if x]
        c, lo, e, d = (c[nz[0]:nz[-1] + 1], lo + nz[0], e, d) if nz else ((), 0, 0, 1)
        while c and not sum(c[::2]) and not sum(c[1::2]):  # P(1) = P(-1) = 0
            s = list(c[2:])  # P / (t^2-1), from the top: s_j = c_{j+2} + s_{j+2}
            for j in range(len(s) - 3, -1, -1):
                s[j] += s[j + 2]
            c, e = s, e + 1
        g = math.gcd(d, *c)
        c = tuple(x // g for x in c) if g > 1 else tuple(c)
        self.lo, self.c, self.e, self.d = lo, c, e, d // g

    def _times(self, lo: int, m: int, e: int, d: int) -> "RationalT":
        """self * m t^lo (t^2-1)^e / d for integers m and d > 0."""
        if not (m and self.c):
            return _ZERO
        c, d = [x * m for x in self.c], self.d * d
        g = math.gcd(d, *c)
        out = object.__new__(RationalT)
        out.lo, out.e = self.lo + lo, self.e + e
        out.c, out.d = (tuple(x // g for x in c), d // g) if g > 1 else (tuple(c), d)
        return out

    @staticmethod
    def of(x) -> "RationalT":
        """x as a RationalT, for a RationalT, an int or a Fraction."""
        if isinstance(x, RationalT):
            return x
        if isinstance(x, (int, Fraction)):
            return _ONE._times(0, x.numerator, 0, x.denominator)
        raise TypeError(f"RationalT does not mix with {type(x).__name__}")

    @staticmethod
    def total(terms) -> "RationalT":
        """The sum of RationalT, int or Fraction terms, written over one lcm
        denominator and one power of t^2-1 and canonicalized once."""
        xs = [x for x in map(RationalT.of, terms) if x.c]
        if len(xs) < 2:
            return xs[0] if xs else _ZERO
        e, lo, d = min(x.e for x in xs), min(x.lo for x in xs), math.lcm(*(x.d for x in xs))
        out = [0] * (max(x.lo + len(x.c) + 2 * x.e for x in xs) - lo - 2 * e)
        for x in xs:
            c, scale = x.c, d // x.d
            for _ in range(x.e - e):  # times t^2 - 1
                c = _poly_mul(c, (-1, 0, 1))
            for i, ci in enumerate(c, x.lo - lo):
                out[i] += ci * scale
        return RationalT(lo, out, e, d)

    def __eq__(self, other):
        other = RationalT.of(other) if isinstance(other, (int, Fraction)) else other
        return isinstance(other, RationalT) and (self.lo, self.c, self.e, self.d) == (
            other.lo, other.c, other.e, other.d)

    def __hash__(self):
        if self.lo == self.e == 0 and len(self.c) < 2:
            return hash(Fraction(sum(self.c), self.d))
        return hash((self.lo, self.c, self.e, self.d))

    def __add__(self, other):
        return RationalT.total((self, other))

    __radd__ = __add__

    def __neg__(self):
        return self * -1

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._times(0, other.numerator, 0, other.denominator)
        other = RationalT.of(other)
        if len(self.c) == 1:
            self, other = other, self
        if len(other.c) == 1:
            return self._times(other.lo, other.c[0], other.e, other.d)
        return RationalT(self.lo + other.lo, _poly_mul(self.c, other.c), self.e + other.e,
                         self.d * other.d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = RationalT.of(other)
        if len(other.c) != 1:
            raise ValueError("RationalT divides only by a nonzero monomial c t^j (t^2-1)^k / d")
        (c,) = other.c
        return self._times(-other.lo, other.d if c > 0 else -other.d, -other.e, abs(c))

    def at(self, t) -> tuple[int, int]:
        """(num, den), den > 0, with num/den the value at a rational t = a/b > 1,
        by Horner's rule in integers; num / den is then correctly rounded."""
        a, b = t.numerator, t.denominator
        num, den, bk = 0, self.d, 1
        for x in reversed(self.c):  # num = sum_i c_i a^i b^(len(c)-1-i)
            num, bk = num * a + x * bk, bk * b
        for base, k in ((a, self.lo), (b, 1 - self.lo - len(self.c) - 2 * self.e),
                        (a * a - b * b, self.e)):
            num, den = (num * base**k, den) if k >= 0 else (num, den * base**-k)
        return num, den


_ZERO = RationalT(0, ())
_ONE = RationalT(0, (1,))


class SymbolicLegendreArg:
    """z = coth(eta) as a function of t = e^eta: u = 2/(t^2-1), x = cosh eta =
    (t^2+1)/(2t), e^{k eta} = t^k, sinh^k(eta) = (t^2-1)^k/(2t)^k and every
    closed form evaluated here are RationalT.  cached(fn, *args) memoizes on
    the point, keyed by function object and arguments; SYMBOLIC, the one
    point, serves every caller, so each R_p^k is evaluated once per process."""

    u = RationalT(0, (2,), -1)
    x = RationalT(-1, (1, 0, 1), 0, 2)

    def __init__(self):
        self._memo = {}

    weight = staticmethod(lambda c: c)  # exact weights stay exact
    total = staticmethod(RationalT.total)

    def cached(self, fn, *args):
        if (fn, args) not in self._memo:
            self._memo[fn, args] = fn(self, *args)
        return self._memo[fn, args]

    @staticmethod
    def exp(k: int) -> RationalT:
        return RationalT(k, (1,))

    @staticmethod
    def sinh_pow(k: int) -> RationalT:
        return RationalT(-k, (1,), k, 2**k) if k >= 0 else RationalT(-k, (2**-k,), k)

    def scaled_logpoly(self, p: int, k: int) -> RationalT:
        return self.cached(SymbolicLegendreArg._logpoly, p, k)

    def _logpoly(self, p: int, k: int) -> RationalT:
        return self.exp(k) * logpoly_recurrence(p, k).eval_exact(self.x)


SYMBOLIC = SymbolicLegendreArg()


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
    if isinstance(c, float) and abs(c) < 2.0**-1022:  # the symbolic point's c is exact
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
    """P_p^m(coth eta) as a Fraction at a rational t = e^eta > 1: the symbolic _legendre at t."""
    if not t > 1:
        raise ValueError("legendre_p_exact needs t > 1")
    return Fraction(*RationalT.of(SYMBOLIC.cached(_legendre, p, m)).at(t))


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


def _deg_deriv(pt, p: int, m: int, c, scale, h: int):
    """c p!/(p+m)! scale [dP_nu^m/dnu - (log((z+1)/2) + H_h - H_p) P_p^m] at
    nu = p >= 0, order m >= 0, z = coth eta: rational in t = e^eta, so the
    symbolic point proves it.  For m <= p it is the digamma head
    (2 H_{2p} - H_h - H_{p-m}) P_p^m plus the two degree sums; for m >= p+1,
    where P_p^m = 0, it is (-1)^{p+m+1} (p+m)! (m-p-1)! P_p^{-m}, whose weight
    c (-1)^{p+m+1} p!/((m-p) ... m) holds no (p+m)!."""
    f = math.factorial
    if m > p:
        w = Fraction(c * (-1) ** (p + m + 1) * f(p), math.prod(range(m - p, m + 1)))
        return _neg_order_term(pt, p, m, w, scale)
    w = Fraction(c * f(p), f(p + m))
    dig = 2 * harmonic(2 * p) - harmonic(h) - harmonic(p - m)
    head = pt.weight(w * dig) * scale * pt.cached(_legendre, p, m)
    return pt.total([head, *_degree_sums(pt, p, m, w, scale)])


@in_float_range
def legendre_deg_deriv(p: int, m: int, z: float) -> float:
    """Derivative of P_nu^m(z) with respect to the degree nu, at nu = p >= 0:
    _deg_deriv at unit weight, plus log((z+1)/2) P_p^m for m <= p, its log
    taken as log1p(u/2) from the exact u = z - 1.

    At m = 0 the degree sums cancel as z -> 1, where the derivative -> 0,
    so digits go as 1/(z - 1): against mpmath over p <= 10 the relative
    error is at most 1.7e-15 from z = 1.05 on, 6.0e-13 at z = 1.0001,
    4.4e-11 at z = 1 + 1e-6 and 6.6e-9 at z = 1 + 1e-8, each below
    2^-52/(z - 1).  At m >= 1 it stays within 6e-15 there."""
    if p < 0:
        raise ValueError("legendre_deg_deriv needs p >= 0")
    if m < 0:
        raise ValueError("legendre_deg_deriv handles m >= 0 only")
    pt = LegendreArg.from_z(z)
    out = _deg_deriv(pt, p, m, math.perm(p + m, m), 1.0, p)
    return out + math.log1p(0.5 * pt.u) * _legendre(pt, p, m) if m <= p else out
