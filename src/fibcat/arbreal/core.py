"""Arbitrary-precision real arithmetic.

Values are decimal.Decimal numbers (coefficient times a power of ten), and
every function takes the target precision in decimal digits explicitly.
Internally each function works at target + guard digits and rounds the
result back to the target, so per-operation error stays below 10^(1-p)
relative.  Ring operations, comparisons and sqrt (correctly rounded by
libmpdec) come from the decimal module through one shared Context per
precision.  Every series runs in integer fixed point (v stands for
v / 2^bits) and is rounded once: one arctan/atanh kernel gives pi, ln 2 and
ln 10 from arccot sums, and ln and arctan on x's exact integer ratio; sin
and cos retry with more bits when the reduction modulo 2 pi cancels leading
bits (Ziv).  nth roots are integer roots of the exact ratio.  The integer
tangent numbers, which give the Bernoulli numbers, are built on first use.
"""

from __future__ import annotations

import math
import threading
from decimal import Context, Decimal
from fractions import Fraction

from ..errors import DomainError

_EMAX = 10**9

_cache_lock = threading.Lock()
_const_cache: dict[tuple[str, int], object] = {}
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


def round_to(x: Decimal, digits: int) -> Decimal:
    return context(digits).plus(x)


def _cached(name: str, digits: int, compute):
    """Write-once cache of constants and node tables keyed by (name, digits)."""
    key = (name, digits)
    val = _const_cache.get(key)
    if val is None:
        val = compute()
        with _cache_lock:
            _const_cache.setdefault(key, val)
            val = _const_cache[key]
    return val


def _tangent_table(n: int) -> tuple[int, ...]:
    """T_1 .. T_top for the least power of two top >= max(n, 32), by Brent &
    Harvey's integer recurrence, cached."""
    top = max(32, 1 << (n - 1).bit_length())

    def compute():
        t = [0, 1]
        for k in range(2, top + 1):
            t.append((k - 1) * t[k - 1])
        for k in range(2, top + 1):
            for j in range(k, top + 1):
                t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
        return tuple(t[1:])

    return _cached("tangent_numbers", top, compute)


def tangent_numbers():
    """Yield the tangent numbers T_1, T_2, ... = 1, 2, 16, 272, ..., with
    B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)), from a table built on first
    use and doubled whenever a caller reads past its end."""
    n = 0
    while True:
        table = _tangent_table(n + 1)
        yield from table[n:]
        n = len(table)


def _int_nth_root(a: int, n: int) -> int:
    """floor(a**(1/n)) for a >= 0 by integer Newton iteration."""
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


def sqrt(x: Decimal, digits: int) -> Decimal:
    """Square root, correctly rounded to `digits` by libmpdec."""
    if x < 0:
        raise DomainError(f"sqrt of negative value {x}")
    return context(digits).sqrt(x)


def nth_root(x: Decimal, n: int, digits: int) -> Decimal:
    """Principal n-th root of x >= 0 for positive integer n: x = m 10^(n e)
    with m in [1, 10^n), and the integer root of m's exact ratio p/q scaled
    by 10^(n s)."""
    if n <= 0:
        raise DomainError(f"nth_root: n must be positive, got {n}")
    if x < 0:
        raise DomainError(f"nth_root of negative value {x}")
    if x == 0:
        return Decimal(0)
    e = x.adjusted() // n  # split off, so that 10^|n e| is never built
    _, coefficient, exponent = x.as_tuple()
    p, q = Decimal((0, coefficient, exponent - n * e)).as_integer_ratio()
    # floor(m^(1/n) 10^s) carries w + 4 digits or more; p 10^(n s) / q is exact
    # once n s covers q = 2^i 5^j, so an exact root keeps its trailing zeros
    s = digits + guard_digits(digits) + 3
    return context(digits).scaleb(Decimal(_int_nth_root(p * 10 ** (n * s) // q, n)), e - s)


def _bits(digits: int) -> int:
    """Binary digits that carry `digits` decimal digits."""
    return int(digits * _LOG2_10) + 1


def _from_fixed(v: int, bits: int, digits: int) -> Decimal:
    """v / 2^bits rounded once to `digits`."""
    return context(digits).divide(Decimal(v), Decimal(1 << bits))


def _atan_fixed(bits: int, sign: int, t: int = 0, k: int = 0) -> int:
    """sum_j sign^j x^(2j+1) / (2j+1) times 2^bits: arctan x for sign -1,
    atanh x for sign +1.  x = t / 2^bits (0 <= t < 2^bits) steps by
    multiply-and-shift; x = 1/k for an integer k >= 2 steps by division.
    The sign rides on the step, so terms alternate for arctan."""
    if k:
        term, k2 = (1 << bits) // k, sign * k * k
    else:
        term, t2 = t, sign * (t * t >> bits)
    total, j = term, 3
    while term:
        term = term // k2 if k else term * t2 >> bits
        total += term // j
        j += 2
    return total


# c = sum of coefficient * arccot k (sign -1) or arccoth k (sign +1)
_ARCCOT = {
    "pi": (-1, ((16, 5), (-4, 239))),  # Machin
    "pi_check": (-1, ((48, 18), (32, 57), (-20, 239))),  # Gauss
    "ln2": (1, ((2, 3),)),
    "ln10": (1, ((6, 3), (2, 9))),  # 3 ln 2 + ln(5/4)
}


def _fixed(name: str, bits: int) -> int:
    """floor(c * 2^bits) within two units, c named in _ARCCOT, cached 64 bits at a time."""
    top = -(-bits // 64) * 64

    def compute():
        sign, combination = _ARCCOT[name]
        g = top.bit_length() + 8  # below every floor of every term
        return sum(c * _atan_fixed(top + g, sign, k=k) for c, k in combination) >> g

    return _cached(name + "_fixed", top, compute) >> (top - bits)


def ln(x: Decimal, digits: int) -> Decimal:
    """Natural logarithm: x = m 2^k 10^e with m in [1/sqrt2, sqrt2) (e = 0
    unless x's decimal exponent passes the working digits), then
    ln m = 2 atanh((m - 1)/(m + 1)) in fixed point, plus k ln 2 + e ln 10."""
    if x <= 0:
        raise DomainError(f"ln of non-positive value {x}")
    e = x.adjusted()
    if abs(e) > digits + guard_digits(digits):  # 10^|e| would cost more than the series
        _, coefficient, exponent = x.as_tuple()
        x = Decimal((0, coefficient, exponent - e))
    else:
        e = 0
    a, b = x.as_integer_ratio()
    k = a.bit_length() - b.bit_length()  # a/b / 2^k lies in (1/2, 2)
    a, b = (a, b << k) if k >= 0 else (a << -k, b)
    m = a / b  # a float is enough to pick the fold; exact squares cost O(n^1.6)
    if m >= 1.4142135623730951:
        b, k = b << 1, k + 1
    elif m < 0.7071067811865476:
        a, k = a << 1, k - 1
    d = a - b  # m - 1 = d / b, exact
    # target + guard + 10 digits absolute, more for the leading zeros of
    # m - 1 (relative accuracy near x = 1) and for the error of k ln 2 and e ln 10
    zeros = max(0, b.bit_length() - abs(d).bit_length()) if d else 0
    bits = _bits(digits + guard_digits(digits) + 10) + zeros + abs(k).bit_length() + abs(e).bit_length() + 8
    t = _atan_fixed(bits, 1, t=(abs(d) << bits) // (a + b))
    v = (2 * t if d > 0 else -2 * t) + k * _fixed("ln2", bits)
    if e:
        v += e * _fixed("ln10", bits)
    return _from_fixed(v, bits, digits)


def const_pi(digits: int) -> Decimal:
    """pi from the Machin combination 16 arccot 5 - 4 arccot 239."""
    bits = _bits(digits + guard_digits(digits))
    return _cached("pi", digits, lambda: _from_fixed(_fixed("pi", bits), bits, digits))


def const_pi_check(digits: int) -> Decimal:
    """pi from the independent Gauss combination 48 arccot 18 + 32 arccot 57 - 20 arccot 239."""
    bits = _bits(digits + guard_digits(digits))
    return _cached("pi_check", digits, lambda: _from_fixed(_fixed("pi_check", bits), bits, digits))


def _sin_fixed(x: Decimal, digits: int, quarter: int) -> Decimal:
    """sin(x + quarter * pi/2): reduce modulo 2 pi against an integer pi,
    fold into [-pi/2, pi/2] and sum the Taylor series in fixed point."""
    if not x and not quarter:
        return Decimal(0)
    w = digits + guard_digits(digits)
    need = _bits(w)
    mag = x.adjusted()
    if 2 * mag < -(w + 10):  # sin x = x (1 - x^2/6 + ...), cos x = 1 - x^2/2 + ...
        if quarter:  # 1 to `digits` digits, as the series rounds it
            return context(digits).scaleb(10 ** (digits - 1), 1 - digits)
        return context(digits).plus(x)
    p, q = x.as_integer_ratio()
    # w + 10 digits absolute, plus x's digits above the point (the error of
    # n * 2 pi) and, for sin, below it (relative accuracy at tiny x)
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
    return _from_fixed(-total if neg else total, bits, digits)


def sin(x: Decimal, digits: int) -> Decimal:
    return _sin_fixed(x, digits, 0)


def cos(x: Decimal, digits: int) -> Decimal:
    return _sin_fixed(x, digits, 1)


def arctan(x: Decimal, digits: int) -> Decimal:
    """arctan on x's exact ratio: |x| > 1 reflects to pi/2 - arctan(1/|x|),
    arctan t = 2 arctan(t / (1 + sqrt(1 + t^2))) halves t to 0.4 or below,
    and the series runs in fixed point."""
    if not x:
        return context(digits).plus(x)
    w = digits + guard_digits(digits)
    mag = x.adjusted()
    if 2 * mag < -(w + 10):  # arctan x = x (1 - x^2/3 + ...), rounded toward zero
        ctx = context(digits)
        return ctx.subtract(x, ctx.scaleb(x, 2 * mag - 1))
    if mag > w + 10:  # arctan x = +-pi/2 - 1/x + ..., before x's ratio costs 10^mag
        bits = _bits(w + 10) + 8
        half_pi = _fixed("pi", bits) >> 1
        return _from_fixed(half_pi if x > 0 else -half_pi, bits, digits)
    p, q = x.as_integer_ratio()
    flip = abs(p) > q
    a, b = (q, abs(p)) if flip else (abs(p), q)
    # w + 10 digits absolute (arctan x >= pi/4 after a reflection), more for
    # the leading zeros of a small x (relative accuracy)
    bits = _bits(w + 10) + 8 + (0 if flip else b.bit_length() - a.bit_length())
    one, halvings = 1 << bits, 0
    t = (a << bits) // b
    while 5 * t > 2 * one:
        t = (t << bits) // (one + math.isqrt((one << bits) + t * t))
        halvings += 1
    v = _atan_fixed(bits, -1, t=t) << halvings
    if flip:
        v = (_fixed("pi", bits) >> 1) - v
    return _from_fixed(v if p > 0 else -v, bits, digits)


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
