"""Arbitrary-precision real arithmetic.

Values are decimal.Decimal numbers (coefficient times a power of ten), and
every function takes the target precision in decimal digits explicitly.
Internally each function works at target + guard digits and rounds the
result back to the target, so per-operation error stays below 10^(1-p)
relative.  Ring operations, comparisons and sqrt (correctly rounded by
libmpdec) come from the decimal module through one shared Context per
precision.  sin, cos and ln are fixed-point series over Python integers on
x's exact integer ratio; sin/cos retry with more bits when the reduction
modulo 2 pi cancels leading bits (Ziv).  nth roots, arctan and pi are here.
"""

from __future__ import annotations

import math
import threading
from decimal import Context, Decimal
from fractions import Fraction

from ..errors import DomainError

_EMAX = 10**9

_cache_lock = threading.Lock()
_const_cache: dict[tuple[str, int], Decimal | int] = {}
_contexts: dict[int, Context] = {}
_LOG2_10 = 3.3219280948873626


def guard_digits(digits: int) -> int:
    """Guard digits added on top of the requested precision."""
    return 10 + -(-digits // 10)


def context(digits: int) -> Context:
    """The context of this precision, with a wide exponent range.  Shared by
    every caller, one per precision: do not mutate it (precision, traps)."""
    ctx = _contexts.get(digits)
    if ctx is None:
        ctx = _contexts.setdefault(digits, Context(prec=digits, Emax=_EMAX, Emin=-_EMAX))
    return ctx


def working_context(digits: int) -> Context:
    return context(digits + guard_digits(digits))


def round_to(x: Decimal, digits: int) -> Decimal:
    return context(digits).plus(x)


def _cached(name: str, digits: int, compute) -> Decimal:
    """Write-once constant cache keyed by (name, digits)."""
    key = (name, digits)
    val = _const_cache.get(key)
    if val is None:
        val = compute()
        with _cache_lock:
            _const_cache.setdefault(key, val)
            val = _const_cache[key]
    return val


def _int_nth_root(a: int, n: int) -> int:
    """floor(a**(1/n)) for a >= 0 by integer Newton iteration."""
    if a < 0:
        raise DomainError("integer root of a negative number")
    if n == 1 or a in (0, 1):
        return a
    if n == 2:
        return math.isqrt(a)
    r = 1 << -(-a.bit_length() // n)  # upper seed: 2^ceil(bits/n) >= a^(1/n)
    while True:
        nr = ((n - 1) * r + a // r ** (n - 1)) // n
        if nr >= r:
            break
        r = nr
    while r**n > a:
        r -= 1
    return r


def _scaled_int_root(x: Decimal, n: int, w: int) -> Decimal:
    # write x = m * 10^e with integer m, pad so the integer root carries
    # w significant digits and the scaled exponent is divisible by n
    _, mantissa, exp = x.as_tuple()
    m = int("".join(map(str, mantissa)))
    shift = n * max(0, w - len(mantissa) // n + 2)
    while (exp - shift) % n:
        shift += 1
    r = _int_nth_root(m * 10**shift, n)
    return Decimal(r).scaleb((exp - shift) // n, context(len(str(r)) + 10))


def sqrt(x: Decimal, digits: int) -> Decimal:
    """Square root, correctly rounded to `digits` by libmpdec."""
    if x < 0:
        raise DomainError(f"sqrt of negative value {x}")
    return context(digits).sqrt(x)


def nth_root(x: Decimal, n: int, digits: int) -> Decimal:
    """Principal n-th root of x >= 0 for positive integer n."""
    if n <= 0:
        raise DomainError(f"nth_root: n must be positive, got {n}")
    if x < 0:
        raise DomainError(f"nth_root of negative value {x}")
    if x == 0:
        return Decimal(0)
    w = digits + guard_digits(digits)
    return round_to(_scaled_int_root(x, n, w), digits)


def _bits(digits: int) -> int:
    """Binary digits that carry `digits` decimal digits."""
    return int(digits * _LOG2_10) + 1


def _fixed(name: str, bits: int) -> int:
    """floor(c * 2^bits) within a few units, c = pi or ln2, cached 64 bits at a time."""
    top = -(-bits // 64) * 64

    def compute():
        if name == "ln2":
            return 2 * _atanh_fixed((1 << top) // 3, top)
        p, q = const_pi(int(top / _LOG2_10) + 3).as_integer_ratio()
        return (p << top) // q

    return _cached(name + "_fixed", top, compute) >> (top - bits)


def _atanh_fixed(t: int, bits: int) -> int:
    """atanh(t / 2^bits) * 2^bits for 0 <= t <= 2^bits / 3, by its series."""
    t2 = t * t >> bits
    term = total = t
    j = 3
    while True:
        term = term * t2 >> bits
        inc = term // j
        if not inc:
            return total
        total += inc
        j += 2


def ln(x: Decimal, digits: int) -> Decimal:
    """Natural logarithm: x = m 2^k with m in [1/sqrt2, sqrt2), then
    ln m = 2 atanh((m - 1)/(m + 1)) in fixed point, plus k ln 2."""
    if x <= 0:
        raise DomainError(f"ln of non-positive value {x}")
    a, b = x.as_integer_ratio()
    k = a.bit_length() - b.bit_length()  # x / 2^k lies in (1/2, 2)
    a, b = (a, b << k) if k >= 0 else (a << -k, b)
    m = a / b  # a float is enough to pick the fold; exact squares cost O(n^1.6)
    if m >= 1.4142135623730951:
        b, k = b << 1, k + 1
    elif m < 0.7071067811865476:
        a, k = a << 1, k - 1
    d = a - b  # m - 1 = d / b, exact
    if not d and not k:
        return Decimal(0)
    # target + guard + 10 digits absolute, more for the leading zeros of
    # m - 1 (relative accuracy near x = 1) and for the error of k ln 2
    zeros = max(0, b.bit_length() - abs(d).bit_length()) if d else 0
    bits = _bits(digits + guard_digits(digits) + 10) + zeros + abs(k).bit_length() + 8
    t = _atanh_fixed((abs(d) << bits) // (a + b), bits)
    v = (2 * t if d > 0 else -2 * t) + k * _fixed("ln2", bits)
    return context(digits).divide(Decimal(v), Decimal(1 << bits))


def _arctan_taylor(x: Decimal, ctx: Context, eps: Decimal) -> Decimal:
    mx2 = ctx.minus(ctx.multiply(x, x))
    term = x
    total = x
    k = 1
    while True:
        term = ctx.multiply(term, mx2)
        inc = ctx.divide(term, 2 * k + 1)
        total = ctx.add(total, inc)
        if inc.copy_abs() < eps:
            return total
        k += 1


def const_pi(digits: int) -> Decimal:
    """pi from the Machin combination 16 arctan(1/5) - 4 arctan(1/239)."""

    def compute():
        w = digits + guard_digits(digits)
        ctx = context(w + 5)
        eps = Decimal(1).scaleb(-(w + 3))
        a5 = _arctan_taylor(ctx.divide(1, 5), ctx, eps)
        a239 = _arctan_taylor(ctx.divide(1, 239), ctx, eps)
        val = ctx.subtract(ctx.multiply(16, a5), ctx.multiply(4, a239))
        return round_to(val, digits)

    return _cached("pi", digits, compute)


def const_pi_check(digits: int) -> Decimal:
    """pi from the independent Gauss combination 48 arctan(1/18) + 32 arctan(1/57) - 20 arctan(1/239)."""

    def compute():
        w = digits + guard_digits(digits)
        ctx = context(w + 5)
        eps = Decimal(1).scaleb(-(w + 3))
        val = ctx.add(
            ctx.multiply(48, _arctan_taylor(ctx.divide(1, 18), ctx, eps)),
            ctx.multiply(32, _arctan_taylor(ctx.divide(1, 57), ctx, eps)),
        )
        val = ctx.subtract(val, ctx.multiply(20, _arctan_taylor(ctx.divide(1, 239), ctx, eps)))
        return round_to(val, digits)

    return _cached("pi_check", digits, compute)


def _sin_fixed(x: Decimal, digits: int, quarter: int) -> Decimal:
    """sin(x + quarter * pi/2): reduce modulo 2 pi against an integer pi,
    fold into [-pi/2, pi/2] and sum the Taylor series in fixed point."""
    p, q = x.as_integer_ratio()
    if not p and not quarter:
        return Decimal(0)
    w = digits + guard_digits(digits)
    need = _bits(w)
    # w + 10 digits absolute, plus x's digits above the point (the error of
    # n * 2 pi) and, for sin, below it (relative accuracy at tiny x)
    mag = x.adjusted()
    if not quarter and 2 * mag < -(w + 10):  # sin x = x (1 - x^2/6 + ...)
        return context(digits).plus(x)
    bits = _bits(w + 10 + max(mag, 0) + (max(-mag, 0) if not quarter else 0)) + 16
    while True:
        pi = _fixed("pi", bits)
        r = (p << bits) // q + quarter * (pi >> 1)
        n = (r + pi) // (2 * pi)  # nearest multiple of 2 pi
        r -= 2 * n * pi
        if abs(r) > pi >> 1:  # fold: sin(r) = sin(+-pi - r)
            r = (pi if r > 0 else -pi) - r
        # Ziv: r carries at most 2|n| + 3 units of error; retry with more bits
        # until it keeps `need` significant bits past them
        short = need + abs(n).bit_length() + 3 - abs(r).bit_length()
        if short <= 0:
            break
        bits += short + 16
    neg, r = r < 0, abs(r)
    r2 = r * r >> bits
    term = total = r
    k = 2
    while term:
        term = (term * r2 >> bits) // (k * (k + 1))
        total -= term
        term = (term * r2 >> bits) // ((k + 2) * (k + 3))
        total += term
        k += 4
    return context(digits).divide(Decimal(-total if neg else total), Decimal(1 << bits))


def sin(x: Decimal, digits: int) -> Decimal:
    return _sin_fixed(x, digits, 0)


def cos(x: Decimal, digits: int) -> Decimal:
    return _sin_fixed(x, digits, 1)


def arctan(x: Decimal, digits: int) -> Decimal:
    w = digits + guard_digits(digits)
    ctx = context(w + 5)
    eps = Decimal(1).scaleb(-(w + 3))
    if x.copy_abs() > 1:
        half_pi = ctx.divide(const_pi(w + 5), 2)
        inner = arctan(ctx.divide(1, x.copy_abs()), w)
        val = ctx.subtract(half_pi, inner)
        return round_to(val if x > 0 else ctx.minus(val), digits)
    # halve the argument until the Taylor series converges fast:
    # arctan(x) = 2 arctan(x / (1 + sqrt(1 + x^2)))
    t = x
    halvings = 0
    threshold = Decimal("0.4")
    while t.copy_abs() > threshold:
        root = sqrt(ctx.add(1, ctx.multiply(t, t)), w + 5)
        t = ctx.divide(t, ctx.add(1, root))
        halvings += 1
    val = _arctan_taylor(t, ctx, eps)
    if halvings:
        val = ctx.multiply(val, 2**halvings)
    return round_to(val, digits)


def arcsin(x: Decimal, digits: int) -> Decimal:
    if x.copy_abs() > 1:
        raise DomainError(f"arcsin of {x}: argument must lie in [-1, 1]")
    w = digits + guard_digits(digits)
    ctx = context(w + 5)
    if x.copy_abs() == 1:
        half_pi = ctx.divide(const_pi(w + 5), 2)
        return round_to(half_pi if x > 0 else ctx.minus(half_pi), digits)
    root = sqrt(ctx.subtract(1, ctx.multiply(x, x)), w + 5)
    return round_to(arctan(ctx.divide(x, root), w), digits)


def pow_int(x: Decimal, k: int, digits: int) -> Decimal:
    if k == 0:
        return Decimal(1)
    if x == 0:
        if k < 0:
            raise ZeroDivisionError("0 raised to a negative power")
        return Decimal(0)
    w = digits + guard_digits(digits)
    ctx = context(w)
    return round_to(ctx.power(x, k), digits)


def pow_rational(x: Decimal, exponent: Fraction, digits: int) -> Decimal:
    """x**(p/q) via nth_root(x, q)**p; x must be non-negative unless q == 1."""
    if exponent.denominator == 1:
        return pow_int(x, int(exponent), digits)
    if x < 0:
        raise DomainError(f"rational power of negative base {x}")
    w = digits + guard_digits(digits)
    root = nth_root(x, exponent.denominator, w)
    return pow_int(root, exponent.numerator, digits)
