#!/usr/bin/env python3
"""Print each named constant, and Cl2(pi/3), from two independent routes side by side.

Usage:
    python scripts/crosscheck_constants.py [digits]

Exits 1 when the two routes of a constant differ by 10^-(digits-1) or
more, 0 when every gap is below that, and 2 on a bad argument (digits
must be an integer of at least 1; the default is 50).
"""

import argparse
import sys
from decimal import Decimal
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from fibcat import arbreal as ar  # noqa: E402
from fibcat.arbreal import core  # noqa: E402


def third_pi(digits: int) -> Decimal:
    return core.context(digits).divide(ar.const_pi(digits), 3)


def clausen_integral(theta: Decimal, digits: int) -> Decimal:
    """Cl2(theta) = -int_0^theta ln|2 sin(x/2)| dx by tanh-sinh, 0 < theta < 2 pi."""
    w = digits + ar.guard_digits(digits)
    ctx = core.context(w)

    def integrand(x: Decimal) -> Decimal:
        return ctx.minus(ar.ln(ctx.multiply(2, ar.sin(ctx.divide(x, 2), w)).copy_abs(), w))

    return ar.round_to(ar.tanh_sinh(integrand, Decimal(0), theta, digits), digits)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("digits", nargs="?", type=int, default=50, help="digits per constant (default 50)")
    digits = parser.parse_args(argv).digits
    if digits < 1:
        parser.error(f"digits must be at least 1, not {digits}")
    ctx = core.context(digits + 10)
    rows = [
        ("pi", "machin arccots", ar.const_pi, "gauss arccots", ar.const_pi_check),
        ("G", "binomial series", ar.const_catalan_g, "clausen series", ar.catalan_g_check),
        (
            "Cl2(pi/3)",
            "bernoulli series", lambda d: ar.clausen2(third_pi(d + 10), d),
            "tanh-sinh integral", lambda d: clausen_integral(third_pi(d + 10), d),
        ),
        ("zeta(3)", "binomial series", ar.const_zeta3, "sum + integral tail", ar.zeta3_check),
        ("ln(alpha)", "atanh series", ar.ln_alpha, "stdlib decimal ln", ar.ln_alpha_check),
    ]
    worst = None
    for name, how_a, fa, how_b, fb in rows:
        a, b = fa(digits), fb(digits)
        gap = ctx.subtract(a, b).copy_abs()
        worst = gap if worst is None or gap > worst else worst
        print(f"{name:10s} {how_a:18s} {a}")
        print(f"{'':10s} {how_b:18s} {b}")
        print(f"{'':10s} {'gap':18s} {gap}")
    bound = Decimal(1).scaleb(1 - digits)
    print(f"worst gap at {digits} digits: {worst} ({'below' if worst < bound else 'NOT below'} {bound})")
    return 0 if worst < bound else 1


if __name__ == "__main__":
    sys.exit(main())
