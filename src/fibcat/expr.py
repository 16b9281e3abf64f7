"""Expression trees for closed forms and series terms.

One exact walk evaluates a tree in a field given as a parameter: Q
(`eval_exact_rational`, a Fraction or None when the value is not rational),
Q(sqrt5) (`eval_exact_qsqrt5`, a QuadRat or None), the Laurent
polynomials in pi over Q(sqrt2) (`eval_exact_pi`, a PiPoly or None) or the
radical forms u*sqrt(v) with u, v in Q(sqrt5) (`eval_one_radical`, a
Radical or None), which is what the radical lemma checks need; exponents
and sequence arguments are read in Q in each.  In the pi field
only, a quadrature has an exact value by one of two rules (_exact_quad): a
body that reads as r * x^a * (A - x^k)^b on [0, A^(1/k)] or r * sin(x)^m on
[0, pi/2] is an Euler Beta integral (`_beta`, Gamma taken at
half-integers, a divergent one a ConvergenceError), and any other
r * x^j * sin(x)^m * sin(x/2)^a * cos(x/2)^b on [0, pi/2] with integer
j, m, a, b >= 0 is a sine moment (`_sine_moment`, finite integration by
parts); `pi_poly_decimal` rounds such a value once, and the numeric
evaluator takes a quadrature so before it runs tanh-sinh.  In the radical
forms only, sqrt of a form u*sqrt(1) is the form 1*sqrt(u), so is
u^(1/2), and u^(k/2) is its k-th power; a negative u raises DomainError.
The numeric evaluator is one recursive walk over the same nodes in
Decimal at a working precision: a subtree of literals, names, negation
and + - * / is exact in Q and rounded once, C, binom, F and L are
exactnum's exact integer rounded once, and exponents and sequence
arguments are read in Q.  One reading, `integer_poly`, turns
literals, names, negation, + - * and division by a constant into a
polynomial: `term_ratio` reads its linear factors s*n + o from them and
the parser its exponents.
`term_ratio` writes a series term as a hypergeometric part h(n), whose
ratio h(n+1)/h(n) is a quotient of integer products, times Binet chains
c*gamma^n split from its F and L factors (c, gamma exact in Q(sqrt5)).
The engine derives it once per binding: an evaluator handed it with the
series' index (`NumericEvaluator.step`) steps each term from the last
through the chains, and the engine expands an algebraic tail from the
factors.  A radical form u*sqrt(v) has v > 0, so the engine reads the sign
of a side exactly.

alpha and beta are primitive constants rather than spelled-out surds so
the exact Q(sqrt5) evaluator can recognise them; the numeric evaluator
expands them.  The parser resolves every name once: a constant or sequence
name is a key of CONSTANTS or SEQUENCES, and the variable of a quadrature
body is the node BoundVar, never a Var, so no walk decides scope again.
"""

from __future__ import annotations

import functools
import math
import operator
from collections import Counter, defaultdict
from decimal import Context, Decimal
from fractions import Fraction

from . import exactnum
from .arbreal import constants as _const
from .arbreal import core as _core
from .arbreal import quadrature as _quad
from .errors import ConvergenceError, DomainError, FibcatError, UnboundVariableError
from .exactnum import ONE, PiPoly, QuadRat, Radical, qr_pow
from .value import Value

# name -> the function of arbreal.constants that gives the constant to a
# number of digits; looked up when called, so a wrapper set on the module
# attribute sees every call
CONSTANTS = {
    "pi": "const_pi", "sqrt5": "sqrt5_decimal", "alpha": "alpha_decimal", "beta": "beta_decimal",
    "lnalpha": "ln_alpha", "catalanG": "const_catalan_g", "zeta3": "const_zeta3", "omega": "omega_decimal",
}
FUNCTION_NAMES = ("sqrt", "ln", "sin", "cos", "arcsin", "arctan")
# name -> (the function of exactnum that gives its integer values, arity)
SEQUENCES = {"C": ("catalan", 1), "F": ("fibonacci", 1), "L": ("lucas", 1), "binom": ("binomial", 2)}
QUAD_VAR = "x"  # the spelling of BoundVar


class Expr(Value):
    __slots__ = ()

    def __str__(self) -> str:
        from .seriesdsl import format_expr

        return format_expr(self)


class IntLit(Expr):
    __slots__ = ("value",)  # int


class RatLit(Expr):
    __slots__ = ("value",)  # Fraction


class Const(Expr):
    __slots__ = ("name",)


class Var(Expr):
    __slots__ = ("name",)


class BoundVar(Expr):
    """The variable of the innermost quadrature body around this node."""

    __slots__ = ()


class Neg(Expr):
    __slots__ = ("arg",)


class Fn(Expr):
    __slots__ = ("name", "arg")


class BinOp(Expr):
    __slots__ = ("op", "left", "right")  # op: one of + - * /


class Pow(Expr):
    __slots__ = ("base", "exponent")  # exponent: integer-valued expression or rational literal


class SeqCall(Expr):
    __slots__ = ("name", "args")  # args: a tuple


class Quad(Expr):
    __slots__ = ("body", "lower", "upper")  # the body's variable is BoundVar()

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # Var("x") in a body would print as the body's variable and parse back as it
        if QUAD_VAR in free_vars(self.body):
            raise ValueError(f"a quadrature body reads Var({QUAD_VAR!r}); its variable is BoundVar()")


class Clausen(Expr):
    __slots__ = ("arg",)


Env = dict  # variable name -> int


# the subexpression fields of each node type; None marks SeqCall, whose
# subexpressions are the tuple `args`
_CHILD_FIELDS = {
    IntLit: (), RatLit: (), Const: (), Var: (), BoundVar: (),
    Neg: ("arg",), Fn: ("arg",), Clausen: ("arg",),
    BinOp: ("left", "right"), Pow: ("base", "exponent"),
    Quad: ("body", "lower", "upper"), SeqCall: None,
}


def children(e: Expr) -> tuple:
    """The direct subexpressions of a node, in field order."""
    try:
        fields = _CHILD_FIELDS[type(e)]
    except KeyError:
        raise TypeError(f"not an expression: {e!r}") from None
    return e.args if fields is None else tuple([getattr(e, f) for f in fields])


def map_children(e: Expr, fn) -> Expr:
    """The node rebuilt with `fn` applied to each direct subexpression."""
    fields = _CHILD_FIELDS[type(e)]
    if fields is None:
        return SeqCall(e.name, tuple(map(fn, e.args)))
    return e.replace(**{f: fn(getattr(e, f)) for f in fields}) if fields else e


def free_vars(e: Expr) -> frozenset:
    if isinstance(e, Var):
        return frozenset((e.name,))
    return frozenset().union(*map(free_vars, children(e)))


def substitute(e: Expr, name: str, value) -> Expr:
    """Replace Var(name) by `value`, an int or an Expr; a quadrature
    variable is a BoundVar, so nothing is captured (a value that reads
    Var("x") is refused inside a body, as Quad refuses such a body)."""
    if isinstance(value, int) and not isinstance(value, bool):
        value = IntLit(value)
    if isinstance(e, Var):
        return value if e.name == name else e
    return map_children(e, lambda child: substitute(child, name, value))


# ---------------------------------------------------------------- exact paths


class _Field:
    """A number field of the exact walk: `lift` takes an int or a Fraction
    into it, `consts` names the constants it holds, `power` raises an
    element to an int.  (A plain slotted class, not a value.Value: no
    caller compares two fields.)"""

    __slots__ = ("lift", "consts", "zero", "power")

    def __init__(self, lift, consts: dict, zero, power):
        self.lift, self.consts, self.zero, self.power = lift, consts, zero, power


_FIELD_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}
_Q = _Field(Fraction, {}, Fraction(0), operator.pow)
_QSQRT5 = _Field(
    QuadRat.of,
    {"sqrt5": exactnum.SQRT5, "alpha": exactnum.ALPHA, "beta": exactnum.BETA},
    QuadRat.of(0),
    qr_pow,
)
_QPI = _Field(PiPoly.of, {"pi": PiPoly.of(1, 1)}, PiPoly(), operator.pow)
_RADICAL = _Field(Radical.of, {name: Radical(c) for name, c in _QSQRT5.consts.items()}, Radical.of(0), operator.pow)


def eval_exact_rational(e: Expr, env: Env):
    """Exact Fraction value, or None when the expression leaves Q."""
    return _exact(e, env, _Q)


def eval_exact_qsqrt5(e: Expr, env: Env):
    """Exact QuadRat value, or None when the expression leaves Q(sqrt5)."""
    return _exact(e, env, _QSQRT5)


def eval_exact_pi(e: Expr, env: Env):
    """Exact PiPoly value, a Laurent polynomial in pi over Q(sqrt2), or None
    when the expression leaves Q(sqrt2)[pi, 1/pi]; a quadrature has one when
    Euler's Beta rule or the sine moments give it (_exact_quad), and raises
    ConvergenceError when its Beta form diverges."""
    return _exact(e, env, _QPI)


def eval_one_radical(e: Expr, env: Env):
    """The form u*sqrt(v) with u, v exact in Q(sqrt5) and v > 0, a Radical,
    or None when the expression leaves the forms (nested radicals, sums of
    radicals whose radicands differ by more than a square in Q(sqrt5),
    transcendental parts).  b^(k/2) is sqrt(b)^k.  A sqrt of a negative
    exact value raises DomainError, so the sign of u is the sign of the
    value."""
    return _exact(e, env, _RADICAL)


def pi_poly_decimal(v: PiPoly, digits: int) -> Decimal:
    """The value of a PiPoly rounded once to `digits` digits: its terms are
    summed with guard digits, and again with as many more as the sum lost
    to cancellation when it lost more than half of them."""
    extra = _core.guard_digits(digits)
    while True:
        w = digits + extra
        ctx, pi, root2 = _core.context(w), _core.const_pi(w), _core.sqrt(Decimal(2), w)
        terms = [
            ctx.multiply(ctx.divide(c.numerator, c.denominator), ctx.multiply(ctx.power(pi, k), root2 if s else 1))
            for (k, s), c in v.items()
        ]
        total = functools.reduce(ctx.add, terms, Decimal(0))
        # a zero sum of a nonzero PiPoly is all cancellation
        lost = max(t.adjusted() for t in terms) - total.adjusted() if total else extra
        if not v or 2 * lost <= extra:
            return _core.round_to(total, digits)
        extra += lost


def _exact(e: Expr, env: Env, field: _Field):
    """The value of `e` in `field`, or None when it leaves the field.
    Exponents and sequence arguments are read in Q whatever the field."""
    t = type(e)
    if t is IntLit or t is RatLit:
        return field.lift(e.value)
    if t is Var:
        if e.name not in env:
            raise UnboundVariableError(e.name, e)
        return field.lift(env[e.name])
    if t is Const:
        return field.consts.get(e.name)
    if t is Neg:
        v = _exact(e.arg, env, field)
        return None if v is None else -v
    if t is BinOp:
        l = _exact(e.left, env, field)
        r = _exact(e.right, env, field)
        if l is None or r is None:
            return None
        op = _FIELD_OPS.get(e.op)
        if op is None:
            raise ValueError(f"unknown operator {e.op!r}")
        if op is operator.truediv and r == field.zero:
            raise ZeroDivisionError(f"division by zero in {e}")
        return op(l, r)
    if t is Pow:
        k = _exact(e.exponent, env, _Q)
        if k is None or k.denominator > (2 if field is _RADICAL else 1):
            return None
        base = _exact(e.base, env, field)
        if k.denominator == 2:  # the radical forms read b^(k/2) as sqrt(b)^k
            base = _radical_root(base, e)
        if base is None:
            return None
        k = k.numerator
        if k < 0 and base == field.zero:
            raise ZeroDivisionError(f"zero base with negative exponent in {e}")
        return field.power(base, k)
    if t is SeqCall:
        args = []
        for a in e.args:
            v = _exact_int(a, env)
            if v is None:
                return None
            args.append(v)
        return field.lift(_sequence(e.name)(*args))
    if t is Quad and field is _QPI:
        return _exact_quad(e, env)
    if t is Fn and field is _RADICAL and e.name == "sqrt":
        return _radical_root(_exact(e.arg, env, field), e)
    return None  # BoundVar, Clausen, any other Fn or Quad


def _radical_root(form, e: Expr):
    """The form sqrt(b) of a form b inside Q(sqrt5), for the expression
    `e`; None when b is None or a radical (a nested radical), DomainError
    naming `e` when b < 0."""
    if form is None or form[1] != ONE:
        return None
    if form[0].sign() < 0:
        raise DomainError(f"sqrt of negative value {form[0]} in {e}")
    return Radical(ONE, form[0])


def _exact_int(e: Expr, env: Env):
    """The value of `e` as an int when it is an integer in Q, else None."""
    v = _exact(e, env, _Q)
    return None if v is None or v.denominator != 1 else int(v)


def _sequence(name: str):
    """The exactnum function of a sequence name."""
    if name not in SEQUENCES:
        raise ValueError(f"unknown sequence {name!r}")
    return getattr(exactnum, SEQUENCES[name][0])


# ------------------------------------------------- exact quadrature rules

# a body exponent whose numerator or denominator is larger is left to
# tanh-sinh: the exact value would take factorials and powers that large
BETA_MAX_EXPONENT = 10**4
# a sine moment whose j + 2m + a + b is larger is left to tanh-sinh: its
# expansion has that many terms of that many digits.  x^2 sin(x)^m took
# 29 ms exactly against 37 ms by 40-digit tanh-sinh (warm node tables) at
# degree 602, and 32 ms against 31 ms at 702 (Python 3.11, Intel Xeon)
SINE_MOMENT_MAX_DEGREE = 600
# factor keys of BoundVar, sin(x), sin(x/2) and cos(x/2); A - x^k is the key (A, k)
_X, _SIN, _SIN_HALF, _COS_HALF = "x", "sin(x)", "sin(x/2)", "cos(x/2)"
# (function, c as numerator and denominator) -> the key of fn(c*x)
_TRIG = {("sin", 1, 1): _SIN, ("sin", 1, 2): _SIN_HALF, ("cos", 1, 2): _COS_HALF}
_HALF_PI = PiPoly.of(Fraction(1, 2), 1)


def _exact_quad(q: Quad, env: Env):
    """The exact value of a quadrature, a PiPoly, or None when neither rule
    fits its body and bounds: 0 for a zero body or an empty interval, then
    Euler's Beta rule (_beta), and on [0, pi/2] the sine moments
    (_sine_moment) when the Beta rule refuses the body.  Raises
    ConvergenceError when the Beta rule reads the whole body and bounds but
    the integral diverges."""
    read = _factors(q.body, env)
    if read is None or _exact(q.lower, env, _Q) != 0:
        return None
    r, powers = read
    upper = _exact(q.upper, env, _QPI)
    if upper is None:
        return None
    if not r or not upper:
        return PiPoly()
    value = _beta(q, r, powers, upper)
    if value is None and upper == _HALF_PI:
        value = _sine_moment(r, powers)
    return value


def _beta(quad: Quad, r: Fraction, powers: dict, upper: PiPoly):
    """The value of `quad`, the integral of r * prod(key^power) from 0 to
    `upper`, by Euler's Beta integral, a PiPoly, or None when its body and
    bounds fit neither form (Gradshteyn & Ryzhik 3.251, 3.621):

      r * x^a * (A - x^k)^b on [0, c], c > 0 rational with c^k = A (b may
      be 0): r * c^(a+1+kb) / k * B((a+1)/k, b+1);
      r * sin(x)^m on [0, pi/2]: r * B((m+1)/2, 1/2) / 2;

    r rational and every exponent read in Q.  None also when the power of c
    is irrational or B is not taken exactly (_beta_function).  A body that
    fits, with r != 0 and c > 0, diverges when an argument of B is not
    positive: that raises ConvergenceError, as no quadrature would
    converge."""
    if upper == _HALF_PI:
        if set(powers) - {_SIN}:
            return None
        p, q = (powers.get(_SIN, Fraction(0)) + 1) / 2, Fraction(1, 2)
        scale = r / 2
    else:
        c = upper.get((0, 0)) if len(upper) == 1 else None
        roots = [key for key in powers if key != _X]
        if c is None or c < 0 or any(type(key) is not tuple for key in roots) or len(roots) > 1:
            return None
        a = powers.get(_X, Fraction(0))
        (big_a, k), b = (roots[0], powers[roots[0]]) if roots else ((c, Fraction(1)), Fraction(0))
        if k <= 0 or _rational_power(c, k) != big_a:
            return None
        p, q = (a + 1) / k, b + 1
        scale = _rational_power(c, a + 1 + k * b)
        scale = None if scale is None else r * scale / k
    if p <= 0 or q <= 0:
        raise ConvergenceError(f"{quad} diverges: its Euler Beta form B({p}, {q}) needs both arguments positive")
    value = _beta_function(p, q)
    return None if value is None or scale is None else value * PiPoly.of(scale)


# e^(i k pi/4) = sqrt2^e * (u + i v)/2 for k mod 8, as (u, v, e)
_EIGHTHS = ((2, 0, 0), (1, 1, 1), (0, 2, 0), (-1, 1, 1), (-2, 0, 0), (-1, -1, 1), (0, -2, 0), (1, -1, 1))


def _sine_moment(r: Fraction, powers: dict):
    """The integral of r * x^j * sin(x)^m * sin(x/2)^a * cos(x/2)^b over
    [0, pi/2], j, m, a, b >= 0 integers, as a PiPoly in Q(sqrt2)[pi], or
    None when the body is not of that form.

    With t = x/2 the trigonometric part is 2^m sin(t)^p cos(t)^q, p = m + a
    and q = m + b, which is (2i)^-p 2^-q sum_k d_k e^(ikt) with d_k the
    coefficients of (z - 1/z)^p (z + 1/z)^q; d_-k = (-1)^p d_k, so the sum
    is real over k >= 0 with the k > 0 terms doubled.  Finite integration
    by parts gives, for w = k/2 != 0 and L = pi/2,

      int_0^L x^j e^(iwx) dx = -sum_{s<=j} i^(s+1) j!/(j-s)! L^(j-s) e^(iwL) / w^(s+1)
                               + i^(j+1) j! / w^(j+1),

    and L^(j+1)/(j+1) for w = 0; e^(iwL) = e^(ik pi/4) lies in Q(sqrt2)(i)
    (Gradshteyn & Ryzhik 3.621; Almkvist & Zeilberger, J. Symbolic Comput.
    10, 1990)."""
    j, m, a, b = (powers.get(key, Fraction(0)) for key in (_X, _SIN, _SIN_HALF, _COS_HALF))
    if set(powers) - {_X, _SIN, _SIN_HALF, _COS_HALF} or any(v < 0 or v.denominator != 1 for v in (j, m, a, b)):
        return None
    j, m, a, b = int(j), int(m), int(a), int(b)
    p, n = m + a, 2 * m + a + b
    if j + n > SINE_MOMENT_MAX_DEGREE:
        return None
    d = [1]  # d[i] is the coefficient of z^(n - 2i)
    for sign in [-1] * p + [1] * (m + b):
        d = [u + sign * v for u, v in zip(d + [0], [0] + d)]
    out = defaultdict(int)  # (power of pi, power of sqrt2) -> coefficient / (r 2^m / 2^n)
    f = [math.factorial(i) for i in range(j + 1)]
    for i, dk in enumerate(d[: n // 2 + 1]):
        k = n - 2 * i
        if not dk:
            continue
        if not k:
            out[j + 1, 0] += Fraction(dk * _turned(-p, 1, 0), 2 ** (j + 1) * (j + 1))
            continue
        dk *= 2  # the terms of k and -k
        u, v, e = _EIGHTHS[k % 8]
        for s in range(j + 1):
            c = dk * f[j] * 2 ** (s + 1) * _turned(s + 1 - p, u, v)
            out[j - s, e] -= Fraction(c, f[j - s] * 2 ** (j - s + 1) * k ** (s + 1))
        out[0, 0] += Fraction(dk * f[j] * 2 ** (j + 1) * _turned(j + 1 - p, 1, 0), k ** (j + 1))
    scale = r * Fraction(2**m, 2**n)
    return PiPoly({key: c * scale for key, c in out.items() if c})


def _turned(t: int, u, v):
    """Re(i^t (u + iv))."""
    return (u, -v, -u, v)[t % 4]


def _factors(e: Expr, env: Env):
    """(r, {key: exponent}): a quadrature body as a rational r times powers
    of x, sin(x), sin(x/2), cos(x/2) and A - x^k (A rational), exponents in
    Q, sqrt(u) read as u^(1/2); None when it is no such product."""
    t = type(e)
    if t is BoundVar:
        return Fraction(1), {_X: Fraction(1)}
    if t is Fn and e.name in ("sin", "cos"):
        arg = (1, {_X: 1}) if type(e.arg) is BoundVar else _factors(e.arg, env)
        key = arg is not None and arg[1] == {_X: 1} and _TRIG.get((e.name, arg[0].numerator, arg[0].denominator))
        return (Fraction(1), {key: Fraction(1)}) if key else None
    if t is Neg:
        got = _factors(e.arg, env)
        return got and (-got[0], got[1])
    if t is BinOp and e.op in "*/":
        left, right = _factors(e.left, env), _factors(e.right, env)
        if left is None or right is None or (e.op == "/" and not right[0]):
            return None
        sign = 1 if e.op == "*" else -1
        powers = dict(left[1])
        for key, p in right[1].items():
            powers[key] = powers.get(key, 0) + sign * p
        r = left[0] * right[0] if sign > 0 else left[0] / right[0]
        return r, {key: p for key, p in powers.items() if p}
    if t is Pow or (t is Fn and e.name == "sqrt"):
        base, k = (e.base, _exact(e.exponent, env, _Q)) if t is Pow else (e.arg, Fraction(1, 2))
        if k is None or max(abs(k.numerator), k.denominator) > BETA_MAX_EXPONENT:
            return None
        got = _factors(base, env)
        r = got and _rational_power(got[0], k)
        return None if r is None else (r, {key: p * k for key, p in got[1].items() if p * k})
    if t is BinOp and e.op == "-":
        big_a, right = _exact(e.left, env, _Q), _factors(e.right, env)
        if big_a is not None and right is not None and right[0] == 1 and list(right[1]) == [_X]:
            return Fraction(1), {(big_a, right[1][_X]): Fraction(1)}
    r = _exact(e, env, _Q)
    return None if r is None else (r, {})


def _rational_power(c: Fraction, k: Fraction):
    """c^k when it is rational, else None (also 0 to a power below 0)."""
    if not c:
        return None if k < 0 else Fraction(int(k == 0))
    if k.denominator == 1:
        return c ** int(k)
    d = k.denominator
    roots = [_core._int_nth_root(v, d) for v in (c.numerator, c.denominator)] if c > 0 else None
    if roots is None or roots[0] ** d != c.numerator or roots[1] ** d != c.denominator:
        return None
    return Fraction(*roots) ** k.numerator


def _beta_function(p: Fraction, q: Fraction):
    """Euler's B(p, q) = G(p) G(q) / G(p+q) as a PiPoly for p, q > 0 in Z/2,
    taken exactly: G(n) = (n-1)! and G(n + 1/2) = (2n)!/(4^n n!) sqrt(pi).
    None when p or q is not in Z/2."""
    if (2 * p).denominator != 1 or (2 * q).denominator != 1:
        return None
    (gp, hp), (gq, hq), (gs, hs) = map(_gamma, (p, q, p + q))
    return PiPoly.of(gp * gq / gs, (hp + hq - hs) // 2)


def _gamma(v: Fraction):
    """(g, h) with G(v) = g * pi^(h/2), for v > 0 in Z/2."""
    if v.denominator == 1:
        return Fraction(math.factorial(int(v) - 1)), 0
    n = int(v)  # v = n + 1/2
    return Fraction(math.factorial(2 * n), 4**n * math.factorial(n)), 1


# -------------------------------------------------------------- numeric path


class NumericEvaluator:
    """Evaluates trees at one working precision, target digits plus guard;
    values come back at that precision, callers round.

    `eval` walks the tree once per call (_numeric).  A subtree of
    literals, names, negation and + - * / is exact in Q and is rounded once
    where a Decimal meets it; a sequence value is the exact integer rounded
    once; every other node combines the Decimals of its children.
    Exponents and sequence arguments are read exactly in Q, as
    eval_exact_rational reads them.  A quadrature takes an exact rule
    (_exact_quad) when one fits, else tanh-sinh with the same walk as its
    integrand.  Errors, a malformed tree's included (an unknown constant,
    function, sequence or operator, or the quadrature variable outside
    every quadrature body), are raised when the walk reaches the failing
    node.

    After `step(term, index, ratio)`, `eval` steps that series term from
    the one before it by the TermRatio its caller derived (see _stepper)
    instead of walking it again; a later `step` replaces it.
    """

    def __init__(self, digits: int):
        self.digits = digits
        self.w = digits + _core.guard_digits(digits)
        self.ctx = _core.context(self.w)
        self._stepped = None  # (term, its stepper) after step()

    def eval(self, e: Expr, env: Env) -> Decimal:
        stepped = self._stepped
        if stepped is not None and stepped[0] is e:
            return stepped[1](env)
        return _numeric(e, env, self.ctx, self.digits)

    def step(self, term: Expr, index: str, ratio) -> None:
        """Make `eval(term, env)` step `term` as a series term in `index`
        from the call before it by `ratio`, its term_ratio at the binding of
        the calls that follow (see _stepper)."""
        # the stepper holds the walk's arguments, not the evaluator, so no
        # reference cycle runs through it
        run = functools.partial(_numeric, term, ctx=self.ctx, digits=self.digits)
        self._stepped = (term, _stepper(index, ratio, run, self.ctx))


def _stepper(index: str, ratio, run, ctx: Context):
    """env -> t(n) for a series term t in `index`, stepped as Binet chains
    at the precision of `ctx`.  With R = P/Q and the chains (c_i, gamma_i)
    of `ratio`, t(n) = sum u_i(n), u_i(n) = c_i h(n) gamma_i^n, and
    u_i(n+1) = u_i(n) * P(n)/Q(n) * gamma_i: a call for n steps the chains
    of the last call when that call was for n - 1.  `run` takes the first
    term, any term after a zero t, P or Q, and every term of a term without
    a ratio; its value is split into chains, u_i(n) = t(n) * c_i gamma_i^n
    / sum_j c_j gamma_j^n, with each c and gamma rounded once.  A chain
    whose |gamma| is below another's is dropped once it falls under 10^-w
    of |t|: it only shrinks from there, against the chain of the largest
    |gamma|.  The chains are updated in place, so a step allocates no
    container."""
    w = ctx.prec
    multiply, divide, add = ctx.multiply, ctx.divide, ctx.add
    steps = ratio and _chain_steps(ratio, ctx)
    us = gammas = fading = last = None  # the chains kept at `last`, or us None

    def stepped(env):
        nonlocal us, gammas, fading, last
        try:
            n = env[index]
        except KeyError:
            return run(env)  # raises UnboundVariableError
        before, last = last, n
        if us is not None and n == before + 1:
            p, q = ratio(before)
            if p and q:
                if len(us) == 1:  # the common case, without the loops below
                    t = divide(multiply(us[0], p), q)
                    us[0] = t = t if gammas[0] is None else multiply(t, gammas[0])
                    if not t:
                        us = None
                    return t
                for i, g in enumerate(gammas):
                    u = divide(multiply(us[i], p), q)
                    us[i] = u if g is None else multiply(u, g)
                t = functools.reduce(add, us)
                if not t:
                    us = None
                    return t
                floor = t.adjusted() - w
                keep = [i for i, u in enumerate(us) if not (fading[i] and u.adjusted() < floor)]
                if len(keep) < len(us):
                    us, gammas, fading = ([x[i] for i in keep] for x in (us, gammas, fading))
                return t
        us = None
        t = run(env)
        if ratio is not None and t:
            consts, gammas, fading = steps
            us = _split_chains(consts, gammas, t, n, ctx)
        return t

    return stepped


class _OutsideEveryBody(Exception):
    """The walk met BoundVar outside every quadrature body."""


def _numeric(e: Expr, env: Env, ctx: Context, digits: int) -> Decimal:
    """The value of `e` at the precision of `ctx`, `digits` the target of
    its quadratures; BoundVar outside every quadrature body is refused
    with the whole tree named."""
    try:
        return _decimal(_walk(e, env, None, ctx, digits), ctx)
    except _OutsideEveryBody:
        raise UnboundVariableError(QUAD_VAR, str(e)) from None


def _walk(e: Expr, env: Env, x, ctx: Context, digits: int):
    """The walk of _numeric, x the value of BoundVar in the innermost
    quadrature body around `e` (None outside every body): an int or a
    Fraction, exact, for a subtree of literals, names, negation and + - * /,
    else a Decimal."""
    t = type(e)
    if t is BinOp:
        l, r = _walk(e.left, env, x, ctx, digits), _walk(e.right, env, x, ctx, digits)
        op = e.op
        if op not in _DECIMAL_OPS:
            raise ValueError(f"unknown operator {op!r}")
        if op == "/" and not r:
            raise ZeroDivisionError(f"division by zero in {e}")
        if type(l) is Decimal or type(r) is Decimal:
            return _DECIMAL_OPS[op](ctx, _decimal(l, ctx), _decimal(r, ctx))
        return Fraction(l) / r if op == "/" else _FIELD_OPS[op](l, r)
    if t is IntLit or t is RatLit:
        return e.value
    if t is Var:
        if e.name not in env:
            raise UnboundVariableError(e.name, e)
        return env[e.name]
    if t is Pow:
        k = _exact(e.exponent, env, _Q)  # the exponent sees the binding only
        if k is None:
            raise DomainError(f"exponent is not an exact rational in {e}")
        base = _decimal(_walk(e.base, env, x, ctx, digits), ctx)
        try:
            return _core.pow_rational(base, k, ctx.prec)
        except DomainError as exc:
            raise DomainError(f"{exc} in {e}") from exc
        except ZeroDivisionError:
            raise ZeroDivisionError(f"zero base with negative exponent in {e}") from None
    if t is SeqCall:
        sequence, args = _sequence(e.name), []
        for a in e.args:
            v = _exact_int(a, env)
            if v is None:
                raise DomainError(f"sequence argument is not an integer in {e}")
            args.append(v)
        return ctx.plus(Decimal(sequence(*args)))
    if t is Neg:
        v = _walk(e.arg, env, x, ctx, digits)
        return ctx.minus(v) if type(v) is Decimal else -v
    if t is Const:
        if e.name not in CONSTANTS:
            raise ValueError(f"unknown constant {e.name!r}")
        return getattr(_const, CONSTANTS[e.name])(ctx.prec)
    if t is BoundVar:
        if x is None:
            raise _OutsideEveryBody
        return x
    if t is Fn:
        if e.name not in FUNCTION_NAMES:
            raise ValueError(f"unknown function {e.name!r}")
        v = _decimal(_walk(e.arg, env, x, ctx, digits), ctx)
        try:
            return getattr(_core, e.name)(v, ctx.prec)
        except DomainError as exc:
            raise DomainError(f"{exc} in {e}") from exc
    if t is Quad:
        # an exact rule first (its bounds read no enclosing body's x)
        exact = _exact_quad(e, env)
        if exact is not None:
            return pi_poly_decimal(exact, ctx.prec)
        a, b = (_decimal(_walk(bound, env, x, ctx, digits), ctx) for bound in (e.lower, e.upper))
        return _quad.tanh_sinh(lambda xv: _decimal(_walk(e.body, env, xv, ctx, digits), ctx), a, b, digits)
    if t is Clausen:
        return _quad.clausen2(_decimal(_walk(e.arg, env, x, ctx, digits), ctx), ctx.prec)
    raise TypeError(f"not an expression: {e!r}")


def _decimal(v, ctx: Context) -> Decimal:
    """A value of the walk as a Decimal, an exact one rounded once."""
    if type(v) is Decimal:
        return v
    return ctx.divide(Decimal(v.numerator), Decimal(v.denominator))


_DECIMAL_OPS = {"+": Context.add, "-": Context.subtract, "*": Context.multiply, "/": Context.divide}


def integer_poly(e: Expr):
    """`e` as a polynomial in its names, {monomial: coefficient}, or None.

    A monomial is the sorted tuple of its names, each repeated by its
    degree; a coefficient is an int, or a Fraction below a division.  There
    is one when `e` is built from int and rational literals, names (Var,
    not BoundVar), negation, + - * and division by a nonzero constant.
    Zero coefficients are kept, so a name that cancels is still read:
    `n - n` needs n."""
    t = type(e)
    if t is IntLit or t is RatLit:
        return {(): e.value}
    if t is Var:
        return {(e.name,): 1}
    if t is Neg:
        a = integer_poly(e.arg)
        return None if a is None else {m: -c for m, c in a.items()}
    if t is not BinOp or e.op not in _FIELD_OPS:
        return None
    l = integer_poly(e.left)
    r = None if l is None else integer_poly(e.right)
    if e.op == "/":
        c = poly_constant(r)
        return {m: Fraction(v) / c for m, v in l.items()} if c else None
    if r is None:
        return None
    if e.op == "*":
        pairs = [(tuple(sorted(ml + mr)), cl * cr) for ml, cl in l.items() for mr, cr in r.items()]
    else:
        pairs = [*l.items(), *((m, c if e.op == "+" else -c) for m, c in r.items())]
    p = {}
    for m, c in pairs:
        p[m] = p.get(m, 0) + c
    return p


def poly_constant(p):
    """The value of a polynomial from integer_poly without names; None for
    any other polynomial, or for None."""
    return p[()] if p is not None and len(p) == 1 and () in p else None


def poly_integral(p: dict) -> bool:
    """Whether every coefficient of a polynomial from integer_poly is an int."""
    return all(c.denominator == 1 for c in p.values())


def eval_numeric(e: Expr, env: Env, digits: int) -> Decimal:
    """Evaluate to `digits` correct decimal digits (guard digits inside)."""
    return _core.round_to(NumericEvaluator(digits).eval(e, env), digits)


# ---------------------------------------------------------------- term ratio

# a term whose ratio needs more linear factors or Binet chains (or a larger
# power of a literal base) than this is left to the evaluator, which takes
# such powers by squaring instead of carrying them as integer products
RATIO_MAX_FACTORS = 64

# the chains {gamma: c} of a term without F or L: one chain, c = gamma = 1
_ONE_CHAIN = {ONE: ONE}


class TermRatio:
    """t(n+1)/t(n) of a term t(n) = h(n) * sum(c * gamma^n for c, gamma in
    chains), where h is hypergeometric with h(n+1)/h(n) = const *
    prod(s*n + o for num) / prod(s*n + o for den), the factors that P and Q
    shared cancelled, and each chain comes from the Binet forms of the
    term's F and L factors (a term without them has the one chain c =
    gamma = 1); c and gamma are exact in Q(sqrt5).  `p` and `q` hold the
    integer coefficients of P and Q, highest power first, and `zeros` the n
    where a cancelled factor vanishes.  Calling it with n gives (P, Q),
    Python ints with P/Q = h(n+1)/h(n) wherever t(n), P and Q are nonzero,
    and P = Q = 0 at the `zeros`.  (A plain slotted class, not a
    value.Value: `p` and `q` are derived from the other fields, not given,
    and no caller compares two ratios.)"""

    __slots__ = ("num", "den", "const", "zeros", "chains", "p", "q")

    def __init__(self, num: tuple, den: tuple, const: Fraction, zeros: frozenset, chains: tuple):
        self.num, self.den = num, den  # ((s, o), ...): linear factors s*n + o of P, of Q
        self.const, self.zeros = const, zeros
        self.chains = chains  # ((c, gamma), ...)
        self.p, self.q = _polynomial(num, const.numerator), _polynomial(den, const.denominator)

    def __call__(self, n: int):
        if n in self.zeros:
            return 0, 0
        p = q = 0
        for a in self.p:
            p = p * n + a
        for a in self.q:
            q = q * n + a
        return p, q


def _polynomial(factors, c: int) -> tuple:
    """Coefficients of c * prod(s*n + o), highest power first."""
    out = [c]
    for s, o in factors:
        out = [a * s + b * o for a, b in zip(out + [0], [0] + out)]
    return tuple(out)


def term_ratio(term: Expr, index: str, env: Env):
    """The TermRatio of a term t in `index` (the other names bound by
    `env`); None when t is not a hypergeometric term times a sum of Binet
    chains, or when the ratio cannot be read off the tree.

    R(n) is derived once from the factors, each of which gives linear
    factors s*n + o of P and of Q, a rational constant and chains: a
    subtree free of `index` gives 1, a linear integer subtree X gives
    X(n+1)/X(n), X^k repeats X's factors k times, a literal base to a linear
    exponent gives base^s, binom(a, b) with slopes sa >= sb >= 0 gives its
    rising-factorial pieces and C(m) is binom(2m, m)/(m+1).  F(s*n + o) is
    alpha^o/sqrt5 (alpha^s)^n - beta^o/sqrt5 (beta^s)^n and L(s*n + o) is
    alpha^o (alpha^s)^n + beta^o (beta^s)^n; a product multiplies the chains
    out (chains of one gamma merge, so F(n)^2 has three), and F or L in a
    divisor or under a negative power is refused.  F(s*n + o) also puts
    the factor s*n + o + s into P and Q, where it cancels: t(n) is 0 where
    F vanishes, and the step into that n is left to the evaluator.  Slopes
    are read from the tree, never sampled; a factor of slope 0 is a
    constant, so every factor kept has s != 0.  Identical factors of P and
    Q cancel; a zero of t(n), P or Q leaves t(n+1) to the evaluator.
    """
    reads: set = set()
    _reading(term, index, reads)
    try:
        num, den, c, chains = _ratio(term, index, env, reads)
    except (ValueError, KeyError, ZeroDivisionError, FibcatError):  # not derivable
        return None
    num, den = Counter(num), Counter(den)
    common = num & den
    zeros = frozenset(-o // s for s, o in common if o % s == 0)
    chains = tuple((c_, gamma) for gamma, c_ in chains.items())
    return TermRatio(tuple((num - common).elements()), tuple((den - common).elements()), c, zeros, chains)


def _reading(e: Expr, index: str, reads: set) -> bool:
    """Whether `e` reads Var(index); the id of each node of `e` that does
    goes into `reads`."""
    found = isinstance(e, Var) and e.name == index
    for child in children(e):
        found = _reading(child, index, reads) or found
    if found:
        reads.add(id(e))
    return found


def _ratio(e: Expr, index: str, env: Env, reads: set):
    """(P factors, Q factors, constant, chains {gamma: c}) of e(n+1)/e(n),
    `reads` holding the ids of the nodes that read `index`; raises when `e`
    is not of the form of term_ratio."""
    if id(e) not in reads:
        return [], [], Fraction(1), _ONE_CHAIN
    if isinstance(e, Neg):
        return _ratio(e.arg, index, env, reads)
    if isinstance(e, BinOp) and e.op in "*/":
        ln, ld, lc, lch = _ratio(e.left, index, env, reads)
        rn, rd, rc, rch = _ratio(e.right, index, env, reads)
        if e.op == "*":
            return ln + rn, ld + rd, lc * rc, _chain_product(lch, rch)
        if rch != _ONE_CHAIN:
            raise ValueError(f"a Fibonacci or Lucas divisor: {e}")
        return ln + rd, ld + rn, lc / rc, lch
    p = integer_poly(e)
    if p is not None:
        s, o = _linear(p, index, env)
        return ([(s, o + s)], [(s, o)], Fraction(1), _ONE_CHAIN) if s else ([], [], Fraction(1), _ONE_CHAIN)
    if isinstance(e, Pow) and id(e.exponent) in reads:
        base = poly_constant(integer_poly(e.base))
        if base is None:
            raise ValueError(f"not a constant base: {e}")
        s = _linear(integer_poly(e.exponent), index, env)[0]
        _check_size(abs(s))
        return [], [], Fraction(base) ** s, _ONE_CHAIN
    if isinstance(e, Pow):
        k = eval_exact_rational(e.exponent, env)
        if k is None or k.denominator != 1:
            raise ValueError(f"not an integer exponent: {e}")
        num, den, c, chains = _ratio(e.base, index, env, reads)
        _check_size(abs(k) * (len(num) + len(den)))
        power = _ONE_CHAIN
        if chains != _ONE_CHAIN:
            if k < 0:
                raise ValueError(f"a Fibonacci or Lucas divisor: {e}")
            _check_size(k)
            for _ in range(int(k)):
                power = _chain_product(power, chains)
        if k < 0:
            num, den, c, k = den, num, 1 / c, -k
        return num * int(k), den * int(k), c ** int(k), power
    if isinstance(e, SeqCall) and e.name == "binom":
        return (*_binom_ratio(*(_linear(integer_poly(a), index, env) for a in e.args)), _ONE_CHAIN)
    if isinstance(e, SeqCall) and e.name == "C":
        s, o = _linear(integer_poly(e.args[0]), index, env)
        num, den, c = _binom_ratio((2 * s, 2 * o), (s, o))
        return (num + [(s, o + 1)], den + [(s, o + 1 + s)], c, _ONE_CHAIN) if s else (num, den, c, _ONE_CHAIN)
    if isinstance(e, SeqCall) and e.name in ("F", "L"):
        s, o = _linear(integer_poly(e.args[0]), index, env)
        zero = [(s, o + s)] if e.name == "F" and s else []
        return zero, zero, Fraction(1), _binet(e.name, s, o)
    raise ValueError(f"not hypergeometric: {e}")


@functools.lru_cache(maxsize=256)
def _binet(name: str, s: int, o: int) -> dict:
    """The chains of F(s*n + o) or L(s*n + o); read only."""
    a, b = qr_pow(exactnum.ALPHA, o), qr_pow(exactnum.BETA, o)
    a, b = (a / exactnum.SQRT5, -b / exactnum.SQRT5) if name == "F" else (a, b)
    return _merge([(qr_pow(exactnum.ALPHA, s), a), (qr_pow(exactnum.BETA, s), b)])


def _chain_product(a: dict, b: dict) -> dict:
    """The chains {gamma: c} of the product of two sums of chains."""
    if a is _ONE_CHAIN or b is _ONE_CHAIN:
        return b if a is _ONE_CHAIN else a
    return _merge([(ga * gb, ca * cb) for ga, ca in a.items() for gb, cb in b.items()])


def _merge(pairs) -> dict:
    """{gamma: c} from (gamma, c) pairs, the c of one gamma added and a zero
    c dropped; raises when no chain is left (the term is 0) or past the
    limit."""
    out: dict = {}
    for g, c in pairs:
        out[g] = out.get(g, _QSQRT5.zero) + c
    out = {g: c for g, c in out.items() if not c.is_zero()}
    if not out:
        raise ValueError("the term is 0")
    _check_size(len(out))
    return out


def _chain_steps(ratio: TermRatio, ctx: Context):
    """[c_i], [gamma_i] (None for 1) and [fading_i] of a ratio's chains at
    the precision of `ctx`, fading when another chain's |gamma| is larger."""
    consts = [_qr_decimal(c, ctx) for c, _ in ratio.chains]
    gammas = [None if g == ONE else _qr_decimal(g, ctx) for _, g in ratio.chains]
    sizes = [Decimal(1) if g is None else g.copy_abs() for g in gammas]
    return consts, gammas, [size < max(sizes) for size in sizes]


def _split_chains(consts: list, gammas: list, t: Decimal, n: int, ctx: Context):
    """[u_i(n)] with u_i(n) = t(n) * c_i gamma_i^n / sum_j c_j gamma_j^n;
    None when that sum is 0."""
    if len(consts) == 1:
        return [t]
    parts = [c if g is None else ctx.multiply(c, ctx.power(g, n)) for c, g in zip(consts, gammas)]
    whole = functools.reduce(ctx.add, parts)
    if not whole:
        return None
    h = ctx.divide(t, whole)
    return [ctx.multiply(h, part) for part in parts]


def _qr_decimal(v: QuadRat, ctx: Context) -> Decimal:
    """a + b*sqrt5 at the precision of `ctx`."""
    a = ctx.divide(Decimal(v.a.numerator), Decimal(v.a.denominator))
    if not v.b:
        return a
    b = ctx.divide(Decimal(v.b.numerator), Decimal(v.b.denominator))
    return ctx.add(a, ctx.multiply(b, _const.sqrt5_decimal(ctx.prec)))


def _linear(p, index: str, env: Env):
    """(s, o), ints with p = s*index + o for the polynomial p from
    integer_poly, its other names bound by `env`; raises unless p is one."""
    if p is None:
        raise ValueError("not a polynomial")
    s = o = 0
    for m, c in p.items():
        v = c * math.prod([env[name] for name in m if name != index])
        degree = m.count(index)
        if degree == 0:
            o += v
        elif degree == 1:
            s += v
        elif v:
            raise ValueError(f"not linear in {index}")
    if s.denominator != 1 or o.denominator != 1:
        raise ValueError(f"not an integer linear form in {index}")
    return int(s), int(o)


def _binom_ratio(a, b):
    """binom(a(n+1), b(n+1))/binom(a(n), b(n)) for a = sa*n + oa, b = sb*n + ob:
    (a+1)...(a+sa) / ((b+1)...(b+sb) * (a-b+1)...(a-b+sa-sb))."""
    (sa, oa), (sb, ob) = a, b
    if not sa >= sb >= 0:
        raise ValueError("binom slopes must satisfy sa >= sb >= 0")
    _check_size(2 * sa)
    num = [(sa, oa + i) for i in range(1, sa + 1)]
    den = [(sb, ob + i) for i in range(1, sb + 1)]
    den += [(sa - sb, oa - ob + i) for i in range(1, sa - sb + 1)]
    return num, den, Fraction(1)


def _check_size(factors: int) -> None:
    if factors > RATIO_MAX_FACTORS:
        raise ValueError(f"a term ratio of {factors} factors is past the limit {RATIO_MAX_FACTORS}")
