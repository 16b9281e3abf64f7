"""Named constants, each computable by two independent in-module routes.

pi       : Machin arctan combination, checked against a Gauss combination.
G        : geometrically convergent central-binomial series, checked
           against the Clausen integral Cl2(pi/2).
zeta(3)  : central-binomial alternating series, checked against direct
           summation with an Euler-Maclaurin integral tail.
ln(alpha): atanh series through this module's ln, checked against the
           stdlib decimal logarithm.
"""

from __future__ import annotations

from decimal import Context, Decimal
from fractions import Fraction
from functools import lru_cache

from ..exactnum import binomial
from . import core
from .core import _cached, const_pi, context, guard_digits, round_to

def sqrt5_decimal(digits: int) -> Decimal:
    return _cached("sqrt5", digits, lambda: core.sqrt(Decimal(5), digits))


def alpha_decimal(digits: int) -> Decimal:
    def compute():
        w = digits + guard_digits(digits)
        ctx = context(w)
        return round_to(ctx.divide(ctx.add(1, sqrt5_decimal(w)), 2), digits)

    return _cached("alpha", digits, compute)


def beta_decimal(digits: int) -> Decimal:
    def compute():
        w = digits + guard_digits(digits)
        ctx = context(w)
        return round_to(ctx.divide(ctx.subtract(1, sqrt5_decimal(w)), 2), digits)

    return _cached("beta", digits, compute)


def omega_decimal(digits: int) -> Decimal:
    """omega = sqrt(sqrt5 * alpha)."""

    def compute():
        w = digits + guard_digits(digits)
        ctx = context(w)
        return round_to(core.sqrt(ctx.multiply(sqrt5_decimal(w), alpha_decimal(w)), w), digits)

    return _cached("omega", digits, compute)


def ln_alpha(digits: int) -> Decimal:
    return _cached("lnalpha", digits, lambda: core.ln(alpha_decimal(digits + guard_digits(digits)), digits))


def ln_alpha_check(digits: int) -> Decimal:
    """Independent route: the stdlib decimal logarithm."""

    def compute():
        w = digits + guard_digits(digits)
        return round_to(Context(prec=w).ln(alpha_decimal(w)), digits)

    return _cached("lnalpha_check", digits, compute)


def const_catalan_g(digits: int) -> Decimal:
    """Catalan's constant from
    G = (3/8) sum_{n>=0} 1/(binom(2n,n) (2n+1)^2) + (pi/8) ln(2 + sqrt3),
    whose series gains a fixed log10(4) digits per term.
    """

    def compute():
        w = digits + guard_digits(digits)
        ctx = context(w + 5)
        eps = Decimal(1).scaleb(-(w + 3))
        total = Decimal(0)
        n = 0
        while True:
            term = ctx.divide(1, Decimal(binomial(2 * n, n) * (2 * n + 1) ** 2))
            total = ctx.add(total, term)
            if term < eps:
                break
            n += 1
        sqrt3 = core.sqrt(Decimal(3), w + 5)
        log_part = core.ln(ctx.add(2, sqrt3), w + 5)
        val = ctx.add(
            ctx.multiply(ctx.divide(3, 8), total),
            ctx.multiply(ctx.divide(const_pi(w + 5), 8), log_part),
        )
        return round_to(val, digits)

    return _cached("catalanG", digits, compute)


def catalan_g_check(digits: int) -> Decimal:
    """Independent route: Cl2(pi/2) by tanh-sinh quadrature."""
    from .quadrature import clausen2

    def compute():
        w = digits + guard_digits(digits)
        ctx = context(w)
        return round_to(clausen2(ctx.divide(const_pi(w), 2), digits), digits)

    return _cached("catalanG_check", digits, compute)


def const_zeta3(digits: int) -> Decimal:
    """zeta(3) = (5/2) sum_{n>=1} (-1)^(n-1) / (n^3 binom(2n,n))."""

    def compute():
        w = digits + guard_digits(digits)
        ctx = context(w + 5)
        eps = Decimal(1).scaleb(-(w + 3))
        total = Decimal(0)
        n = 1
        while True:
            term = ctx.divide(1, Decimal(n**3 * binomial(2 * n, n)))
            if n % 2 == 0:
                term = ctx.minus(term)
            total = ctx.add(total, term)
            if term.copy_abs() < eps:
                break
            n += 1
        return round_to(ctx.multiply(ctx.divide(5, 2), total), digits)

    return _cached("zeta3", digits, compute)


@lru_cache(maxsize=None)
def _bernoulli_upto(m: int) -> tuple[Fraction, ...]:
    """B_0 .. B_m by the defining recurrence, exact."""
    bs: list[Fraction] = [Fraction(1)]
    for k in range(1, m + 1):
        acc = Fraction(0)
        for j in range(k):
            acc += binomial(k + 1, j) * bs[j]
        bs.append(-acc / (k + 1))
    return tuple(bs)


def zeta3_check(digits: int) -> Decimal:
    """Independent route: direct summation of 1/n^3 with the integral tail
    int_N^inf x^-3 dx and its Euler-Maclaurin corrections,

    zeta(3) = sum_{n<N} n^-3 + 1/(2 N^2) + 1/(2 N^3)
              + sum_k B_{2k} (2k+1)/2 * N^(-2k-2).
    """

    def compute():
        w = digits + guard_digits(digits)
        ctx = context(w + 5)
        eps = Decimal(1).scaleb(-(w + 3))
        # correction term k behaves like 2 (2k)! (2k+1) / ((2 pi N)^{2k} 2 N^2);
        # N of about 3 + w/2 makes it dip below eps before k = N
        big_n = 3 + (w + 4) // 2
        total = Decimal(0)
        for n in range(1, big_n):
            total = ctx.add(total, ctx.divide(1, Decimal(n**3)))
        total = ctx.add(total, ctx.divide(1, Decimal(2 * big_n**2)))
        total = ctx.add(total, ctx.divide(1, Decimal(2 * big_n**3)))
        bs = _bernoulli_upto(2 * big_n)
        prev = None
        for k in range(1, big_n):
            b = bs[2 * k] * (2 * k + 1) / 2
            term = ctx.multiply(
                ctx.divide(Decimal(b.numerator), Decimal(b.denominator)),
                ctx.power(Decimal(big_n), -(2 * k + 2)),
            )
            total = ctx.add(total, term)
            if term.copy_abs() < eps:
                break
            if prev is not None and term.copy_abs() > prev.copy_abs():
                raise ArithmeticError("Euler-Maclaurin tail stopped converging; raise N")
            prev = term
        return round_to(total, digits)

    return _cached("zeta3_check", digits, compute)
