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

import functools
import math
from decimal import Decimal
from fractions import Fraction

from . import core
from .core import _atan_fixed, _bits, _fixed, _from_fixed, const_pi, context, guard_digits, round_to

@functools.lru_cache(maxsize=None)
def sqrt5_decimal(digits: int) -> Decimal:
    return core.sqrt(Decimal(5), digits)


@functools.lru_cache(maxsize=None)
def alpha_decimal(digits: int) -> Decimal:
    w = digits + guard_digits(digits)
    ctx = context(w)
    return round_to(ctx.divide(ctx.add(1, sqrt5_decimal(w)), 2), digits)


@functools.lru_cache(maxsize=None)
def beta_decimal(digits: int) -> Decimal:
    w = digits + guard_digits(digits)
    ctx = context(w)
    return round_to(ctx.divide(ctx.subtract(1, sqrt5_decimal(w)), 2), digits)


@functools.lru_cache(maxsize=None)
def omega_decimal(digits: int) -> Decimal:
    """omega = sqrt(sqrt5 * alpha)."""
    w = digits + guard_digits(digits)
    ctx = context(w)
    return round_to(core.sqrt(ctx.multiply(sqrt5_decimal(w), alpha_decimal(w)), w), digits)


@functools.lru_cache(maxsize=None)
def ln_alpha(digits: int) -> Decimal:
    return core.ln(alpha_decimal(digits + guard_digits(digits)), digits)


@functools.lru_cache(maxsize=None)
def ln_alpha_check(digits: int) -> Decimal:
    """Independent route: the stdlib decimal logarithm."""
    w = digits + guard_digits(digits)
    return round_to(context(w).ln(alpha_decimal(w)), digits)


def _central_binomial(b: int):
    """(n, u_n) while u_n > 0: u_0 = 2^b, u_(n+1) = floor(u_n (n+1)/(2(2n+1))),
    under n units below 2^b / binom(2n, n), the one series of G and zeta(3)."""
    u, n = 1 << b, 0
    while u:
        yield n, u
        u = u * (n + 1) // (2 * (2 * n + 1))
        n += 1


@functools.lru_cache(maxsize=None)
def const_catalan_g(digits: int) -> Decimal:
    """Catalan's constant from
    G = (3/8) sum_{n>=0} 1/(binom(2n,n) (2n+1)^2) + (pi/8) ln(2 + sqrt3),
    whose series gains a fixed log10(4) digits per term, with
    ln(2 + sqrt3) = 2 atanh(1/sqrt3); all of it on ints at 2^-b.
    """
    bits = _bits(digits + guard_digits(digits))
    b = bits + bits.bit_length() + 8  # below the floors of every term
    total = sum(u // (2 * n + 1) ** 2 for n, u in _central_binomial(b))
    log_part = 2 * _atan_fixed(b, 1, t=math.isqrt((1 << 2 * b) // 3))
    return _from_fixed(3 * total + (_fixed("pi", b) * log_part >> b), b + 3, digits)


@functools.lru_cache(maxsize=None)
def catalan_g_check(digits: int) -> Decimal:
    """Independent route: Cl2(pi/2) by its Bernoulli series."""
    from .quadrature import clausen2

    w = digits + guard_digits(digits)
    ctx = context(w)
    return round_to(clausen2(ctx.divide(const_pi(w), 2), digits), digits)


@functools.lru_cache(maxsize=None)
def const_zeta3(digits: int) -> Decimal:
    """zeta(3) = (5/2) sum_{n>=1} (-1)^(n-1) / (n^3 binom(2n,n)), on ints at 2^-b."""
    bits = _bits(digits + guard_digits(digits))
    b = bits + bits.bit_length() + 8  # below the floors of every term
    total = sum(u // n**3 if n % 2 else -(u // n**3) for n, u in _central_binomial(b) if n)
    return _from_fixed(5 * total, b + 1, digits)


@functools.lru_cache(maxsize=None)
def zeta3_check(digits: int) -> Decimal:
    """Independent route: direct summation of 1/n^3 with the integral tail
    int_N^inf x^-3 dx and its Euler-Maclaurin corrections,

    zeta(3) = sum_{n<N} n^-3 + 1/(2 N^2) + 1/(2 N^3)
              + sum_k B_{2k} (2k+1)/2 * N^(-2k-2).
    """
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
