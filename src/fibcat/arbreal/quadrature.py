"""Tanh-sinh (double exponential) quadrature, and the Clausen function Cl2
from its Bernoulli series.

The substitution x = mid + half*tanh((pi/2) sinh t) pushes endpoint
singularities to t = +-inf where the weights die double-exponentially, so
integrable algebraic or logarithmic endpoint behaviour costs nothing.
Node positions are stored as offsets from the endpoints (1 - |tanh u|),
which keeps x accurate right next to a singular endpoint.  Node tables are
built 20 digits above the precision that reads them (_make_nodes states
the error budget).  Cl2 takes no quadrature: after core's one reduction
modulo 2 pi, that of sin and cos, its series runs in integer fixed point,
as core's kernels do.
"""

from __future__ import annotations

import functools
from decimal import Decimal

from ..errors import ConvergenceError
from . import core
from .core import _bits, _from_fixed, _reduce_2pi, const_pi, context, guard_digits, round_to

LEVEL_CAP = 12


def _make_nodes(w: int, level: int):
    """Positive-t nodes for one refinement level.

    Level 0 holds every node at step h=1 (k = 0, 1, 2, ...); level L >= 1
    holds the odd multiples of h = 2^-L.  Each entry is (offset, weight)
    with offset = 1 - tanh((pi/2) sinh t) and weight = (pi/2) cosh t /
    cosh((pi/2) sinh t)^2.  Offsets are symmetric, so negative t reuses the
    same table mirrored onto the other endpoint.  A node is kept while its
    weight is at least 10^-(2w+10).

    tanh_sinh reads each entry at w digits; the table is built at w + 20,
    with one exp per level for the step of e^t and one per node for e^-2u.
    Error budget, in units of the (w+20)-th digit: e^t after n steps is
    within n + 2 units (each product rounds once), log10(nodes) + 1 digits.
    sinh t = (e^t - e^-t)/2 cancels near t = 0, by at most log10(2^level)
    + 1 digits, but the offset reads sinh t only through e^-2u, whose
    relative error is pi times sinh's absolute error: e^t's error times
    pi cosh t <= 2u + pi, which the cutoff holds below 5w + 40, another
    log10(5w + 40) digits.  Every offset and weight keeps w + 10 digits or
    more while log10(nodes) + log10(5w + 40) <= 8: at level 12 (8968
    nodes at w = 21) up to w = 1000.
    """
    ctx = context(w + 20)
    pi_half = ctx.divide(const_pi(w + 20), 2)
    cutoff = Decimal(1).scaleb(-(2 * w + 10))
    e_h = ctx.exp(ctx.divide(1, 1 << level))
    # t = 0, 1, 2, ... at level 0 and h, 3h, 5h, ... above: e^t steps from
    # node to node by one multiplication
    et, step = (Decimal(1), e_h) if level == 0 else (e_h, ctx.multiply(e_h, e_h))
    nodes = []
    while True:
        e_minus_t = ctx.divide(1, et)
        sinh_t = ctx.divide(ctx.subtract(et, e_minus_t), 2)
        cosh_t = ctx.divide(ctx.add(et, e_minus_t), 2)
        eu = ctx.exp(ctx.multiply(-2, ctx.multiply(pi_half, sinh_t)))
        # 1 - tanh u = 2 e^{-2u} / (1 + e^{-2u}), exact to working precision,
        # and 1 / cosh(u)^2 = 1 - tanh(u)^2 = offset (2 - offset)
        offset = ctx.divide(ctx.multiply(2, eu), ctx.add(1, eu))
        weight = ctx.multiply(ctx.multiply(pi_half, cosh_t), ctx.multiply(offset, ctx.subtract(2, offset)))
        if weight < cutoff:
            break
        nodes.append((offset, weight))
        et = ctx.multiply(et, step)
    return tuple(nodes)


@functools.lru_cache(maxsize=None)
def _nodes(w: int, level: int):
    """_make_nodes(w, level), built once per process.  _make_nodes itself
    stays uncached, so a trace of it counts builds (perfbench/layers.py)."""
    return _make_nodes(w, level)


def tanh_sinh(f, a: Decimal, b: Decimal, digits: int) -> Decimal:
    """Integrate f over [a, b], doubling the node level until two successive
    levels agree to 10^-digits.  Returns the last level's value.

    The value is an estimate: two levels that agree bound nothing.  An
    integrand whose mass the nodes miss converges to a wrong value, as
    x^1000000000 on [0, 1] does at 10 digits: 2.45E-10 where the integral
    is 1E-9."""
    w = digits + guard_digits(digits)
    ctx = context(w)
    a = ctx.plus(a)
    b = ctx.plus(b)
    if a == b:
        return Decimal(0)
    if a > b:
        return ctx.minus(tanh_sinh(f, b, a, digits))
    half = ctx.divide(ctx.subtract(b, a), 2)
    eps = Decimal(1).scaleb(-digits)

    def node_sum(level: int) -> Decimal:
        total = Decimal(0)
        for k, (offset, weight) in enumerate(_nodes(w, level)):
            off = ctx.multiply(half, offset)
            x_hi = ctx.subtract(b, off)
            if level == 0 and k == 0:
                # center node t = 0, count once
                if a < x_hi < b:
                    total = ctx.add(total, ctx.multiply(weight, f(x_hi)))
                continue
            x_lo = ctx.add(a, off)
            if x_hi < b and x_hi > a:
                total = ctx.add(total, ctx.multiply(weight, f(x_hi)))
            if x_lo > a and x_lo < b:
                total = ctx.add(total, ctx.multiply(weight, f(x_lo)))
        return total

    # nodes at step h/2 are the nodes at step h plus the odd multiples of
    # h/2, so the raw node sum accumulates across levels and only h shrinks
    running = node_sum(0)
    h = Decimal(1)
    estimate = ctx.multiply(ctx.multiply(h, running), half)
    previous = None
    for level in range(1, LEVEL_CAP + 1):
        running = ctx.add(running, node_sum(level))
        h = ctx.divide(h, 2)
        previous = estimate
        estimate = ctx.multiply(ctx.multiply(h, running), half)
        if ctx.subtract(estimate, previous).copy_abs() < eps:
            return estimate
    gap = ctx.subtract(estimate, previous).copy_abs() if previous is not None else None
    raise ConvergenceError(
        f"tanh-sinh did not reach 10^-{digits} within {LEVEL_CAP} levels",
        best=estimate,
        gap=gap,
    )


def clausen2(theta: Decimal, digits: int) -> Decimal:
    """Cl2(theta) = -int_0^theta ln|2 sin(x/2)| dx = sum_{n>=1} sin(n theta) / n^2.

    theta is reduced modulo 2 pi into [-pi/2, pi/2] by core's one reduction
    (Cl2 is odd and 2 pi periodic).  A reduced t in (pi/2, pi] is folded to
    u = pi - t and taken as Cl2(t) = Cl2(u) - Cl2(2u)/2, the duplication
    formula, so that next to an odd multiple of pi, where Cl2 crosses zero,
    the value keeps its relative accuracy as it does next to an even one,
    where Cl2(t) ~ t (1 - ln t).  Cl2 of t, u and 2u comes from the series
    of _clausen_fixed.
    """
    if not theta:
        return Decimal(0)
    w = digits + guard_digits(digits)
    need = _bits(w + 10)
    # theta's digits above the point (the error of n * 2 pi) or below it (a small t)
    r, bits, fold = _reduce_2pi(theta, 0, need + _bits(abs(theta.adjusted())) + 16, need)
    # the series needs `need` bits below the leading bit of t or u, not the
    # bits that covered theta's integer part
    drop = min(abs(r).bit_length(), bits) - need - 16
    if drop > 0:
        r, bits = r >> drop, bits - drop
    ctx = context(w)
    neg, r = r < 0, abs(r)
    v = _clausen_fixed(r, bits, w)
    if fold:  # the two cancel to u ln 2 + O(u^3): log10(ln(1/u)) digits, within the guard
        v = ctx.subtract(v, ctx.divide(_clausen_fixed(2 * r, bits, w), 2))
    return round_to(ctx.minus(v) if neg else v, digits)


def _clausen_fixed(r: int, bits: int, w: int) -> Decimal:
    """Cl2(t) to `w` digits for t = r / 2^bits in (0, pi], from

        Cl2(t) = t (1 - ln t) + sum_{k>=1} |B_2k| t^(2k+1) / (2k (2k+1)!),

    whose terms shrink by (t / 2 pi)^2 <= 1/4 or faster (Lewin 1981, ch. 4).
    |B_2k| / 2k = T_k / (4^k (4^k - 1)) from the tangent numbers, and each
    term is that integer ratio times t^(2k+1) in fixed point, so the large
    T_k multiply no floored digits.
    """
    ctx = context(w)
    r2 = r * r >> bits
    power = r * r2 >> bits  # t^(2k+1)
    four, factorial = 4, 6  # 4^k, (2k+1)!
    total = 0
    for k, tangent in enumerate(core.tangent_numbers(), 1):
        term = tangent * power // (four * (four - 1) * factorial)
        if not term:
            break
        total += term
        power = power * r2 >> bits
        four <<= 2
        factorial *= (2 * k + 2) * (2 * k + 3)
    t = _from_fixed(r, bits, w)
    return ctx.add(ctx.multiply(t, ctx.subtract(1, core.ln(t, w))), _from_fixed(total, bits, w))
