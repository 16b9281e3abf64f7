"""Named constants, each computable by two independent in-module routes.

pi       : Machin arccot combination (core), checked against a Gauss one.
G        : central-binomial series plus (pi/8) ln(2 + sqrt3) on integers,
           checked against Cl2(pi/2) from its Bernoulli series.
zeta(3)  : alternating central-binomial series on integers, checked against
           direct summation with an Euler-Maclaurin integral tail.
ln(alpha): atanh series through core's ln, checked against the stdlib
           decimal logarithm.
"""

from __future__ import annotations

import math
from decimal import Context, Decimal
from fractions import Fraction

from . import core
from .core import _atan_fixed, _bits, _cached, _fixed, _from_fixed, const_pi, context, guard_digits, round_to


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
    whose series gains a fixed log10(4) digits per term, with
    ln(2 + sqrt3) = 2 atanh(1/sqrt3); all of it on ints at 2^-b.
    """

    def compute():
        bits = _bits(digits + guard_digits(digits))
        b = bits + bits.bit_length() + 8  # below the floors of every term
        u = 1 << b  # 2^b / binom(2n, n)
        total = 0
        n = 0
        while u:
            total += u // (2 * n + 1) ** 2
            u = u * (n + 1) // (2 * (2 * n + 1))
            n += 1
        log_part = 2 * _atan_fixed(b, 1, t=math.isqrt((1 << 2 * b) // 3))
        return _from_fixed(3 * total + (_fixed("pi", b) * log_part >> b), b + 3, digits)

    return _cached("catalanG", digits, compute)


def catalan_g_check(digits: int) -> Decimal:
    """Independent route: Cl2(pi/2) by its Bernoulli series."""
    from .quadrature import clausen2

    def compute():
        w = digits + guard_digits(digits)
        ctx = context(w)
        return round_to(clausen2(ctx.divide(const_pi(w), 2), digits), digits)

    return _cached("catalanG_check", digits, compute)


def const_zeta3(digits: int) -> Decimal:
    """zeta(3) = (5/2) sum_{n>=1} (-1)^(n-1) / (n^3 binom(2n,n)), on ints at 2^-b."""

    def compute():
        bits = _bits(digits + guard_digits(digits))
        b = bits + bits.bit_length() + 8  # below the floors of every term
        u = 1 << (b - 1)  # 2^b / binom(2n, n)
        total = 0
        n = 1
        while u:
            term = u // n**3
            total += term if n % 2 else -term
            u = u * (n + 1) // (2 * (2 * n + 1))
            n += 1
        return _from_fixed(5 * total, b + 1, digits)

    return _cached("zeta3", digits, compute)


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
        prev = None
        for k, tangent in zip(range(1, big_n), core.tangent_numbers()):
            # B_2k (2k + 1) / 2 with B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1))
            b = Fraction((-1) ** (k - 1) * k * (2 * k + 1) * tangent, 4**k * (4**k - 1))
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
