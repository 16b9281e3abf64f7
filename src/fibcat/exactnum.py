"""Exact integer, rational, Q(sqrt5), Q(sqrt2)[pi, 1/pi] and radical form
u*sqrt(v) (u, v in Q(sqrt5)) arithmetic plus the sequence kernels.

Rationals are the stdlib Fraction: it already guarantees lowest terms and a
positive denominator, which is exactly the representation contract the rest
of the package relies on for structural equality.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .errors import DomainError
from .value import Value


@lru_cache(maxsize=1024)  # the exact workload reads 301 distinct (n, k), each many times
def binomial(n: int, k: int) -> int:
    """Binomial coefficient C(n, k); zero when k lies outside [0, n]."""
    if n < 0:
        raise DomainError(f"binomial: n must be non-negative, got {n}")
    return math.comb(n, k) if k >= 0 else 0


def catalan(n: int) -> int:
    """n-th Catalan number, binom(2n, n)/(n+1)."""
    if n < 0:
        raise DomainError(f"catalan: n must be non-negative, got {n}")
    return math.comb(2 * n, n) // (n + 1)


def fibonacci(n: int) -> int:
    """Fibonacci number, extended to negative index by F(-n) = (-1)^(n+1) F(n)."""
    f = _fibonacci_pair(abs(n))[0]
    return -f if n < 0 and n % 2 == 0 else f


def lucas(n: int) -> int:
    """Lucas number L(n) = 2F(n+1) - F(n), extended to negative index by
    L(-n) = (-1)^n L(n)."""
    f, g = _fibonacci_pair(abs(n))
    l = 2 * g - f
    return -l if n < 0 and n % 2 else l


def _fibonacci_pair(n: int):
    """(F(n), F(n+1)) for n >= 0 by fast doubling, one bit of n at a time:
    F(2k) = F(k) (2F(k+1) - F(k)) and F(2k+1) = F(k)^2 + F(k+1)^2."""
    a, b = 0, 1
    for bit in bin(n)[2:]:
        a, b = a * (2 * b - a), a * a + b * b
        if bit == "1":
            a, b = b, a + b
    return a, b


class QuadRat(Value):
    """Element a + b*sqrt(5) of the field Q(sqrt5), a and b Fractions."""

    __slots__ = ("a", "b")

    @staticmethod
    def of(a, b=0) -> "QuadRat":
        return QuadRat(Fraction(a), Fraction(b))

    def __add__(self, other: "QuadRat") -> "QuadRat":
        return QuadRat(self.a + other.a, self.b + other.b)

    def __sub__(self, other: "QuadRat") -> "QuadRat":
        return QuadRat(self.a - other.a, self.b - other.b)

    def __neg__(self) -> "QuadRat":
        return QuadRat(-self.a, -self.b)

    def __mul__(self, other: "QuadRat") -> "QuadRat":
        return QuadRat(
            self.a * other.a + 5 * self.b * other.b,
            self.a * other.b + self.b * other.a,
        )

    def __truediv__(self, other: "QuadRat") -> "QuadRat":
        return self * other.inverse()

    def norm(self) -> Fraction:
        return self.a * self.a - 5 * self.b * self.b

    def inverse(self) -> "QuadRat":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt5)")
        return QuadRat(self.a / n, -self.b / n)

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def sign(self) -> int:
        """The exact sign of a + b*sqrt5: where a and b have opposite signs,
        the larger of a^2 and 5b^2 (the sign of the norm) decides."""
        sa, sb = (self.a > 0) - (self.a < 0), (self.b > 0) - (self.b < 0)
        if sa * sb >= 0:
            return sa or sb
        return sa if self.norm() > 0 else sb

    def __str__(self) -> str:
        return _sum_text([(self.a, []), (self.b, ["sqrt5"])])


ZERO = QuadRat.of(0)
ONE = QuadRat.of(1)
SQRT5 = QuadRat.of(0, 1)
ALPHA = QuadRat(Fraction(1, 2), Fraction(1, 2))
BETA = QuadRat(Fraction(1, 2), Fraction(-1, 2))


class Radical(tuple):
    """The form u*sqrt(v), the pair (u, v) of QuadRats, v nonzero and zero
    as (0, 1).  The exact walk makes only forms with v > 0, so the sign of
    a value is the sign of u.  Forms are closed under * and / (a zero
    divisor raises ZeroDivisionError, as in Q(sqrt5)) and integer powers.
    sqrt(v) * sqrt(w) is kept as sqrt(v*w), so equal numbers may have
    unlike forms (sqrt(2)*sqrt(2) is 1*sqrt(4), not 2).  A sum of like
    radicals, u*sqrt(v) + u'*sqrt(w) with w/v = s^2 for an s > 0 in
    Q(sqrt5), is the form (u + u'*s)*sqrt(v), so sqrt(8) + sqrt(2) is
    3/2*sqrt(8); any other sum of two nonzero forms gives None, as it is
    not held as such a form (sqrt(2) + sqrt(3), or 2 + sqrt(2), whose
    square 6 + 4*sqrt(2) is not in Q(sqrt5))."""

    __slots__ = ()

    def __new__(cls, u: QuadRat, v: QuadRat = ONE) -> "Radical":
        return tuple.__new__(cls, (ZERO, ONE) if u.is_zero() or v.is_zero() else (u, v))

    @staticmethod
    def of(c) -> "Radical":
        return Radical(QuadRat.of(c))

    def __neg__(self) -> "Radical":
        u, v = self
        return Radical(-u, v)

    def __add__(self, other: "Radical"):
        if self[0].is_zero():
            return other
        if other[0].is_zero():
            return self
        (u, v), (t, w) = self, other
        if v == w:
            return Radical(u + t, v)
        s = qr_sqrt(w / v)  # t*sqrt(w) = t*s*sqrt(v)
        return None if s is None else Radical(u + t * s, v)

    def __sub__(self, other: "Radical"):
        return self + -other

    def __mul__(self, other: "Radical") -> "Radical":
        return Radical(self[0] * other[0], self[1] * other[1])

    def __truediv__(self, other: "Radical") -> "Radical":
        return Radical(self[0] / other[0], self[1] / other[1])

    def __pow__(self, n: int) -> "Radical":
        u, v = self
        if n < 0:
            u, n = ONE / (u * v), -n  # 1/(u sqrt(v)) = sqrt(v)/(u v)
        return Radical(qr_pow(u, n) * qr_pow(v, n // 2), v if n % 2 else ONE)


class PiPoly(dict):
    """A finite Laurent polynomial in pi over Q(sqrt2), {(power of pi, power
    of sqrt2): nonzero Fraction}, the power of sqrt2 0 or 1 (sqrt2 * sqrt2
    = 2).

    pi is transcendental (Lindemann), so the pi^k and sqrt2 * pi^k are
    linearly independent over Q and two such values are equal numbers iff
    their coefficients are.  Division by a value that is not a monomial
    gives None, and so does a negative power of one: the quotient is not
    held as such a polynomial."""

    __slots__ = ()

    @staticmethod
    def of(c, power: int = 0, sqrt2: int = 0) -> "PiPoly":
        """c * sqrt2^sqrt2 * pi^power, for sqrt2 0 or 1."""
        c = Fraction(c)
        return PiPoly({(power, sqrt2): c} if c else {})

    def __neg__(self) -> "PiPoly":
        return PiPoly({k: -c for k, c in self.items()})

    def __add__(self, other: "PiPoly") -> "PiPoly":
        return _pi_poly([*self.items(), *other.items()])

    def __sub__(self, other: "PiPoly") -> "PiPoly":
        return self + -other

    def __mul__(self, other: "PiPoly") -> "PiPoly":
        # sqrt2 * sqrt2 = 2
        if len(self) == 1 == len(other):  # two monomials, the common case: no like terms to collect
            (((i, s), a),), (((j, t), b),) = self.items(), other.items()
            return PiPoly({(i + j, s ^ t): 2 * a * b if s & t else a * b})
        return _pi_poly(
            [((i + j, s ^ t), 2 * a * b if s & t else a * b) for (i, s), a in self.items() for (j, t), b in other.items()]
        )

    def __truediv__(self, other: "PiPoly"):
        if len(other) != 1:
            if not other:
                raise ZeroDivisionError("division by zero in Q(sqrt2)[pi, 1/pi]")
            return None
        (((j, t), b),) = other.items()
        # a/(b sqrt2) = a sqrt2/(2b)
        return PiPoly({(i - j, s ^ t): a / (2 * b if t > s else b) for (i, s), a in self.items()})

    def __pow__(self, n: int):
        if len(self) == 1:
            (((k, s), c),) = self.items()
            return PiPoly({(k * n, n % 2): c**n * Fraction(2) ** (n // 2)} if s else {(k * n, 0): c**n})
        if n < 0:
            return None
        out, base = PiPoly.of(1), self
        while n:
            if n & 1:
                out = out * base
            base, n = base * base, n >> 1
        return out

    def __str__(self) -> str:
        return _sum_text(
            (c, ["sqrt(2)"] * s + ([] if k == 0 else ["pi" if k == 1 else f"pi^{k}"]))
            for (k, s), c in sorted(self.items())
        )


def _sum_text(terms) -> str:
    """The text of a sum of (coefficient, [factor, ...]) terms: a zero term
    left out, a unit coefficient left out before its factors, "+ -" read as
    "- ", and "0" for no term."""
    parts = ["*".join(([] if c == 1 and factors else [str(c)]) + factors) for c, factors in terms if c]
    return " + ".join(parts).replace("+ -", "- ") or "0"


def _pi_poly(pairs) -> PiPoly:
    """The PiPoly of (key, coefficient) pairs, like keys added."""
    out: dict = {}
    for k, c in pairs:
        out[k] = out.get(k, 0) + c
    return PiPoly({k: c for k, c in out.items() if c})


def qr_sqrt(x: QuadRat):
    """The square root s >= 0 of x in Q(sqrt5), or None when x has none.
    (p + q*sqrt5)^2 = a + b*sqrt5 gives p^2 + 5q^2 = a and 2pq = b, so the
    norm a^2 - 5b^2 = (p^2 - 5q^2)^2 is a rational square m^2 and p^2 is
    (a + m)/2 or (a - m)/2; each candidate p^2 and q^2 = (a - p^2)/5 must
    be rational squares, and the signs of p and q give 2pq = b."""
    a, b = x.a, x.b
    m = _rational_sqrt(x.norm())
    if m is None:
        return None
    for p2 in ((a + m) / 2, (a - m) / 2):
        p, q = _rational_sqrt(p2), _rational_sqrt((a - p2) / 5)
        if p is not None and q is not None and 2 * p * q == abs(b):
            root = QuadRat(p, q if b >= 0 else -q)
            return -root if root.sign() < 0 else root
    return None


def _rational_sqrt(f: Fraction):
    """The square root r >= 0 of a Fraction when it is rational, else None."""
    if f < 0:
        return None
    n, d = math.isqrt(f.numerator), math.isqrt(f.denominator)
    return Fraction(n, d) if n * n == f.numerator and d * d == f.denominator else None


def qr_pow(base: QuadRat, n: int) -> QuadRat:
    """Exact n-th power in Q(sqrt5); n may be negative for nonzero base (it
    is inverted first).  The base is written (x + y*sqrt5)/d with ints, d
    the lcm of the two denominators, and the pair (x, y) is raised by
    repeated squaring, (x, y)^2 = (x^2 + 5y^2, 2xy), on ints only: the two
    Fractions are built once, over d^n, at the end."""
    if n < 0:
        base, n = base.inverse(), -n
    a, b = base.a, base.b
    d = a.denominator * b.denominator // math.gcd(a.denominator, b.denominator)
    x, y = a.numerator * (d // a.denominator), b.numerator * (d // b.denominator)
    px, py, k = 1, 0, n
    while k:
        if k & 1:
            px, py = px * x + 5 * py * y, px * y + py * x
        k >>= 1
        if k:
            x, y = x * x + 5 * y * y, 2 * x * y
    dn = d**n
    return QuadRat(Fraction(px, dn), Fraction(py, dn))
