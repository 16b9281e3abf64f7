"""Tanh-sinh (double exponential) quadrature and the Clausen function Cl2.

The substitution x = mid + half*tanh((pi/2) sinh t) pushes endpoint
singularities to t = +-inf where the weights die double-exponentially, so
integrable algebraic or logarithmic endpoint behaviour costs nothing.
Node positions are stored as offsets from the endpoints (1 - |tanh u|),
which keeps x accurate right next to a singular endpoint.
"""

from __future__ import annotations

import threading
from decimal import ROUND_FLOOR, Decimal

from ..errors import ConvergenceError
from . import core
from .core import const_pi, context, guard_digits, round_to

LEVEL_CAP = 12


_node_lock = threading.Lock()
_node_cache: dict[tuple[int, int], tuple] = {}


def _make_nodes(w: int, level: int):
    """Positive-t nodes for one refinement level.

    Level 0 holds every node at step h=1 (k = 0, 1, 2, ...); level L >= 1
    holds the odd multiples of h = 2^-L.  Each entry is (offset, weight)
    with offset = 1 - tanh((pi/2) sinh t) and weight = (pi/2) cosh t /
    cosh((pi/2) sinh t)^2.  Offsets are symmetric, so negative t reuses the
    same table mirrored onto the other endpoint.
    """
    ctx = context(2 * w + 30)
    pi_half = ctx.divide(const_pi(2 * w + 30), 2)
    cutoff = Decimal(1).scaleb(-(2 * w + 10))
    h = ctx.divide(1, 1 << level)
    ks = range(0, 10**9) if level == 0 else range(1, 10**9, 2)
    nodes = []
    for k in ks:
        t = ctx.multiply(k, h)
        et = ctx.exp(t)
        sinh_t = ctx.divide(ctx.subtract(et, ctx.divide(1, et)), 2)
        cosh_t = ctx.divide(ctx.add(et, ctx.divide(1, et)), 2)
        u = ctx.multiply(pi_half, sinh_t)
        eu = ctx.exp(ctx.multiply(-2, u))
        # 1 - tanh u = 2 e^{-2u} / (1 + e^{-2u}), exact to working precision
        offset = ctx.divide(ctx.multiply(2, eu), ctx.add(1, eu))
        cosh_u = ctx.divide(ctx.add(ctx.exp(u), ctx.exp(ctx.minus(u))), 2)
        weight = ctx.divide(ctx.multiply(pi_half, cosh_t), ctx.multiply(cosh_u, cosh_u))
        if weight < cutoff:
            break
        nodes.append((offset, weight))
    return tuple(nodes)


def _nodes(w: int, level: int):
    key = (w, level)
    table = _node_cache.get(key)
    if table is None:
        table = _make_nodes(w, level)
        with _node_lock:
            _node_cache.setdefault(key, table)
            table = _node_cache[key]
    return table


def tanh_sinh(f, a: Decimal, b: Decimal, digits: int, level_cap: int = LEVEL_CAP) -> Decimal:
    """Integrate f over [a, b], doubling the node level until two successive
    levels agree to 10^-digits.  Returns the last level's value."""
    w = digits + guard_digits(digits)
    ctx = context(w)
    a = ctx.plus(a)
    b = ctx.plus(b)
    if a == b:
        return Decimal(0)
    if a > b:
        return ctx.minus(tanh_sinh(f, b, a, digits, level_cap))
    half = ctx.divide(ctx.subtract(b, a), 2)
    eps = Decimal(1).scaleb(-digits)

    def node_sum(level: int) -> Decimal:
        total = Decimal(0)
        table = _nodes(w, level)
        for k, (offset, weight) in enumerate(table):
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
    for level in range(1, level_cap + 1):
        running = ctx.add(running, node_sum(level))
        h = ctx.divide(h, 2)
        previous = estimate
        estimate = ctx.multiply(ctx.multiply(h, running), half)
        if ctx.subtract(estimate, previous).copy_abs() < eps:
            return estimate
    gap = ctx.subtract(estimate, previous).copy_abs() if previous is not None else None
    raise ConvergenceError(
        f"tanh-sinh did not reach 10^-{digits} within {level_cap} levels",
        best=estimate,
        gap=gap,
    )


def clausen2(theta: Decimal, digits: int) -> Decimal:
    """Cl2(theta) = -int_0^theta log|2 sin(x/2)| dx.

    Reduced by 2 pi periodicity into [0, 2 pi) and evaluated by tanh-sinh;
    the logarithmic endpoint singularity is integrable.
    """
    w = digits + guard_digits(digits)
    ctx = context(w)
    pi = const_pi(w)
    tau = ctx.multiply(2, pi)
    turns = ctx.divide(theta, tau).to_integral_value(rounding=ROUND_FLOOR)
    t = ctx.subtract(theta, ctx.multiply(turns, tau))
    if t == 0:
        return Decimal(0)

    def integrand(x: Decimal) -> Decimal:
        s = core.sin(ctx.divide(x, 2), w)
        return ctx.minus(core.ln(ctx.multiply(2, s).copy_abs(), w))

    return round_to(tanh_sinh(integrand, Decimal(0), t, digits), digits)
