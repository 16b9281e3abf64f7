"""Arbitrary-precision real arithmetic.

Values are decimal.Decimal numbers (coefficient times a power of ten), and
every function takes the target precision in decimal digits explicitly.
Internally each function works at target + guard digits and rounds the
result back to the target, so per-operation error stays below 10^(1-p)
relative.  The four ring operations and comparisons come from the stdlib
decimal module; roots, logarithms, trigonometry and pi are implemented here.
"""

from __future__ import annotations

import math
import threading
from decimal import ROUND_HALF_EVEN, Context, Decimal
from fractions import Fraction

from ..errors import DomainError

_EMAX = 10**9

_cache_lock = threading.Lock()
_const_cache: dict[tuple[str, int], Decimal] = {}


def guard_digits(digits: int) -> int:
    """Guard digits added on top of the requested precision."""
    return 10 + -(-digits // 10)


def context(digits: int) -> Context:
    """A fresh context with the given precision and wide exponent range."""
    return Context(prec=digits, Emax=_EMAX, Emin=-_EMAX)


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
    """Square root via exact integer Newton (math.isqrt) on a scaled mantissa."""
    if x < 0:
        raise DomainError(f"sqrt of negative value {x}")
    if x == 0:
        return Decimal(0)
    w = digits + guard_digits(digits)
    return round_to(_scaled_int_root(x, 2, w), digits)


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


def _atanh_series(t: Decimal, ctx: Context, eps: Decimal) -> Decimal:
    # sum t^(2k+1)/(2k+1), |t| < 1
    t2 = ctx.multiply(t, t)
    term = t
    total = t
    k = 1
    while True:
        term = ctx.multiply(term, t2)
        inc = ctx.divide(term, 2 * k + 1)
        total = ctx.add(total, inc)
        if inc.copy_abs() < eps:
            return total
        k += 1


def _ln2(w: int) -> Decimal:
    def compute():
        ctx = context(w + 5)
        eps = Decimal(1).scaleb(-(w + 3))
        return ctx.multiply(2, _atanh_series(ctx.divide(1, 3), ctx, eps))

    return _cached("ln2", w, compute)


def _ln10(w: int) -> Decimal:
    def compute():
        ctx = context(w + 5)
        eps = Decimal(1).scaleb(-(w + 3))
        # ln 10 = ln(10/8) + 3 ln 2, and ln(5/4) = 2 atanh(1/9)
        ln54 = ctx.multiply(2, _atanh_series(ctx.divide(1, 9), ctx, eps))
        return ctx.add(ln54, ctx.multiply(3, _ln2(w)))

    return _cached("ln10", w, compute)


def ln(x: Decimal, digits: int) -> Decimal:
    """Natural logarithm by power-of-two reduction plus the atanh series."""
    if x <= 0:
        raise DomainError(f"ln of non-positive value {x}")
    w = digits + guard_digits(digits)
    ctx = context(w + 5)
    eps = Decimal(1).scaleb(-(w + 3))
    e = x.adjusted()
    m = ctx.multiply(x, Decimal(1).scaleb(-e, ctx))
    k = 0
    while m > Decimal("1.5"):
        m = ctx.divide(m, 2)
        k += 1
    while m < Decimal("0.75"):
        m = ctx.multiply(m, 2)
        k -= 1
    t = ctx.divide(ctx.subtract(m, 1), ctx.add(m, 1))
    val = ctx.multiply(2, _atanh_series(t, ctx, eps))
    if k:
        val = ctx.add(val, ctx.multiply(k, _ln2(w)))
    if e:
        val = ctx.add(val, ctx.multiply(e, _ln10(w)))
    return round_to(val, digits)


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


def _sin_taylor(x: Decimal, ctx: Context, eps: Decimal) -> Decimal:
    mx2 = ctx.minus(ctx.multiply(x, x))
    term = x
    total = x
    k = 1
    while True:
        term = ctx.divide(ctx.multiply(term, mx2), (2 * k) * (2 * k + 1))
        total = ctx.add(total, term)
        if term.copy_abs() < eps:
            return total
        k += 1


def _reduced_sin(x: Decimal, w: int) -> Decimal:
    ctx = context(w + 10)
    eps = Decimal(1).scaleb(-(w + 5))
    pi = const_pi(w + 10)
    tau = ctx.multiply(2, pi)
    n = ctx.divide(x, tau).to_integral_value(rounding=ROUND_HALF_EVEN)
    r = ctx.subtract(x, ctx.multiply(n, tau))
    half = ctx.divide(pi, 2)
    if r > half:
        r = ctx.subtract(pi, r)
    elif r < -half:
        r = ctx.subtract(ctx.minus(pi), r)
    return _sin_taylor(r, ctx, eps)


def sin(x: Decimal, digits: int) -> Decimal:
    w = digits + guard_digits(digits)
    return round_to(_reduced_sin(x, w), digits)


def cos(x: Decimal, digits: int) -> Decimal:
    w = digits + guard_digits(digits)
    ctx = context(w + 10)
    half_pi = ctx.divide(const_pi(w + 10), 2)
    return round_to(_reduced_sin(ctx.subtract(half_pi, x), w), digits)


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
