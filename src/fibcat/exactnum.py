"""Exact integer, rational and Q(sqrt5) arithmetic plus the sequence kernels.

Rationals are the stdlib Fraction: it already guarantees lowest terms and a
positive denominator, which is exactly the representation contract the rest
of the package relies on for structural equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import DomainError

@lru_cache(maxsize=None)
def binomial(n: int, k: int) -> int:
    """Binomial coefficient C(n, k); zero when k lies outside [0, n]."""
    if n < 0:
        raise DomainError(f"binomial: n must be non-negative, got {n}")
    if k < 0 or k > n:
        return 0
    k = min(k, n - k)
    out = 1
    for i in range(k):
        out = out * (n - i) // (i + 1)
    return out


@lru_cache(maxsize=None)
def catalan(n: int) -> int:
    """n-th Catalan number.

    Computed by the multiplicative recurrence (n+2) C_{n+1} = 2(2n+1) C_n,
    which keeps every intermediate the size of the answer.
    """
    if n < 0:
        raise DomainError(f"catalan: n must be non-negative, got {n}")
    c = 1
    for m in range(n):
        c = c * (2 * (2 * m + 1)) // (m + 2)
    return c


@lru_cache(maxsize=None)
def fibonacci(n: int) -> int:
    """Fibonacci number, extended to negative index by F(-n) = (-1)^(n+1) F(n)."""
    if n < 0:
        f = fibonacci(-n)
        return f if n % 2 else -f
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


@lru_cache(maxsize=None)
def lucas(n: int) -> int:
    """Lucas number, extended to negative index by L(-n) = (-1)^n L(n)."""
    if n < 0:
        v = lucas(-n)
        return -v if n % 2 else v
    a, b = 2, 1
    for _ in range(n):
        a, b = b, a + b
    return a


@dataclass(frozen=True)
class QuadRat:
    """Element a + b*sqrt(5) of the field Q(sqrt5)."""

    a: Fraction
    b: Fraction

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

    def conjugate(self) -> "QuadRat":
        return QuadRat(self.a, -self.b)

    def norm(self) -> Fraction:
        return self.a * self.a - 5 * self.b * self.b

    def inverse(self) -> "QuadRat":
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt5)")
        return QuadRat(self.a / n, -self.b / n)

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def __str__(self) -> str:
        return f"{self.a} + {self.b}*sqrt5"


ONE = QuadRat.of(1)
SQRT5 = QuadRat.of(0, 1)
ALPHA = QuadRat(Fraction(1, 2), Fraction(1, 2))
BETA = QuadRat(Fraction(1, 2), Fraction(-1, 2))


def qr_pow(base: QuadRat, n: int) -> QuadRat:
    """Exact n-th power in Q(sqrt5); n may be negative for nonzero base."""
    if n < 0:
        base = base.inverse()
        n = -n
    out = ONE
    sq = base
    while n:
        if n & 1:
            out = out * sq
        sq = sq * sq
        n >>= 1
    return out
