"""Expression trees for closed forms and series terms.

Three evaluators walk the same tree: arbitrary-precision numeric, exact
rational (Fraction or None when the value is not rational), and exact
Q(sqrt5) (QuadRat or None).  A fourth, restricted evaluator puts an
expression into the one-radical form u*sqrt(v) with u, v in Q(sqrt5),
which is what the radical lemma checks need.

alpha and beta are primitive constants rather than spelled-out surds so
the exact Q(sqrt5) evaluator can recognise them; the numeric evaluator
expands them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from decimal import Context, Decimal
from fractions import Fraction

from . import exactnum
from .arbreal import constants as _const
from .arbreal import core as _core
from .arbreal import quadrature as _quad
from .errors import DomainError, SubstitutionError, UnboundVariableError
from .exactnum import ONE, QuadRat, qr_pow

CONSTANT_NAMES = ("pi", "sqrt5", "alpha", "beta", "lnalpha", "catalanG", "zeta3", "omega")
FUNCTION_NAMES = ("sqrt", "ln", "sin", "cos", "arcsin", "arctan")
SEQUENCE_ARITY = {"C": 1, "F": 1, "L": 1, "binom": 2}
QUAD_VAR = "x"


class Expr:
    __slots__ = ()

    def __str__(self) -> str:
        from .seriesdsl import format_expr

        return format_expr(self)


@dataclass(frozen=True)
class IntLit(Expr):
    value: int


@dataclass(frozen=True)
class RatLit(Expr):
    value: Fraction


@dataclass(frozen=True)
class Const(Expr):
    name: str


@dataclass(frozen=True)
class Var(Expr):
    name: str


@dataclass(frozen=True)
class Neg(Expr):
    arg: Expr


@dataclass(frozen=True)
class Fn(Expr):
    name: str
    arg: Expr


@dataclass(frozen=True)
class BinOp(Expr):
    op: str  # one of + - * /
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: Expr  # integer-valued expression or rational literal


@dataclass(frozen=True)
class SeqCall(Expr):
    name: str
    args: tuple


@dataclass(frozen=True)
class Quad(Expr):
    body: Expr  # in the bound variable QUAD_VAR
    lower: Expr
    upper: Expr


@dataclass(frozen=True)
class Clausen(Expr):
    arg: Expr


Env = dict  # variable name -> int


# the subexpression fields of each node type; None marks SeqCall, whose
# subexpressions are the tuple `args`
_CHILD_FIELDS = {
    IntLit: (), RatLit: (), Const: (), Var: (),
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
    return replace(e, **{f: fn(getattr(e, f)) for f in fields}) if fields else e


def free_vars(e: Expr) -> frozenset:
    if isinstance(e, Var):
        return frozenset((e.name,))
    if isinstance(e, Quad):  # the body's QUAD_VAR is bound
        return (free_vars(e.body) - {QUAD_VAR}) | free_vars(e.lower) | free_vars(e.upper)
    return frozenset().union(*map(free_vars, children(e)))


def substitute(e: Expr, name: str, value) -> Expr:
    """Capture-free substitution; `value` may be an int or an Expr."""
    if isinstance(value, int) and not isinstance(value, bool):
        value = IntLit(value)
    if isinstance(e, Var):
        return value if e.name == name else e
    if isinstance(e, Quad) and name == QUAD_VAR:
        raise SubstitutionError(f"{name!r} is bound by a quadrature node")
    return map_children(e, lambda child: substitute(child, name, value))


# ---------------------------------------------------------------- exact paths


def eval_exact_rational(e: Expr, env: Env):
    """Exact Fraction value, or None when the expression leaves Q."""
    if isinstance(e, IntLit):
        return Fraction(e.value)
    if isinstance(e, RatLit):
        return e.value
    if isinstance(e, Var):
        if e.name not in env:
            raise UnboundVariableError(e.name, e)
        return Fraction(env[e.name])
    if isinstance(e, Neg):
        v = eval_exact_rational(e.arg, env)
        return None if v is None else -v
    if isinstance(e, BinOp):
        l = eval_exact_rational(e.left, env)
        r = eval_exact_rational(e.right, env)
        if l is None or r is None:
            return None
        if e.op == "+":
            return l + r
        if e.op == "-":
            return l - r
        if e.op == "*":
            return l * r
        if e.op == "/":
            if r == 0:
                raise ZeroDivisionError(f"division by zero in {e}")
            return l / r
        raise ValueError(f"unknown operator {e.op!r}")
    if isinstance(e, Pow):
        ex = eval_exact_rational(e.exponent, env)
        if ex is None or ex.denominator != 1:
            return None
        base = eval_exact_rational(e.base, env)
        if base is None:
            return None
        if base == 0 and ex < 0:
            raise ZeroDivisionError(f"zero base with negative exponent in {e}")
        return base ** int(ex)
    if isinstance(e, SeqCall):
        args = []
        for a in e.args:
            v = eval_exact_rational(a, env)
            if v is None or v.denominator != 1:
                return None
            args.append(int(v))
        return Fraction(_sequence_int(e.name, args))
    return None  # Const, Fn, Quad, Clausen


def _sequence_int(name: str, args) -> int:
    if name == "C":
        return exactnum.catalan(args[0])
    if name == "F":
        return exactnum.fibonacci(args[0])
    if name == "L":
        return exactnum.lucas(args[0])
    if name == "binom":
        return exactnum.binomial(args[0], args[1])
    raise ValueError(f"unknown sequence {name!r}")


_QR_CONSTS = {
    "sqrt5": exactnum.SQRT5,
    "alpha": exactnum.ALPHA,
    "beta": exactnum.BETA,
}


def eval_exact_qsqrt5(e: Expr, env: Env):
    """Exact QuadRat value, or None when the expression leaves Q(sqrt5)."""
    if isinstance(e, Const):
        return _QR_CONSTS.get(e.name)
    if isinstance(e, (IntLit, RatLit, Var)):
        v = eval_exact_rational(e, env)
        return None if v is None else QuadRat.of(v)
    if isinstance(e, Neg):
        v = eval_exact_qsqrt5(e.arg, env)
        return None if v is None else -v
    if isinstance(e, BinOp):
        l = eval_exact_qsqrt5(e.left, env)
        r = eval_exact_qsqrt5(e.right, env)
        if l is None or r is None:
            return None
        if e.op == "+":
            return l + r
        if e.op == "-":
            return l - r
        if e.op == "*":
            return l * r
        if e.op == "/":
            return l / r
        raise ValueError(f"unknown operator {e.op!r}")
    if isinstance(e, Pow):
        ex = eval_exact_rational(e.exponent, env)
        if ex is None or ex.denominator != 1:
            return None
        base = eval_exact_qsqrt5(e.base, env)
        if base is None:
            return None
        return qr_pow(base, int(ex))
    if isinstance(e, SeqCall):
        v = eval_exact_rational(e, env)
        return None if v is None else QuadRat.of(v)
    return None


def eval_one_radical(e: Expr, env: Env):
    """Evaluate into the form u*sqrt(v) with u, v exact in Q(sqrt5).

    Returns (u, v) or None when the expression does not fit (nested
    radicals, sums of unlike radicals, transcendental parts).
    """
    exact = eval_exact_qsqrt5(e, env)
    if exact is not None:
        return (exact, ONE)
    if isinstance(e, Neg):
        r = eval_one_radical(e.arg, env)
        return None if r is None else (-r[0], r[1])
    if isinstance(e, Fn) and e.name == "sqrt":
        inner = eval_exact_qsqrt5(e.arg, env)
        return None if inner is None else (ONE, inner)
    if isinstance(e, BinOp):
        l = eval_one_radical(e.left, env)
        r = eval_one_radical(e.right, env)
        if l is None or r is None:
            return None
        if e.op == "*":
            return (l[0] * r[0], l[1] * r[1])
        if e.op == "/":
            return (l[0] / r[0], l[1] / r[1])
        if e.op in "+-":
            rs = (-r[0], r[1]) if e.op == "-" else r
            if l[0].is_zero():
                return rs
            if rs[0].is_zero():
                return l
            if l[1] == rs[1]:
                return (l[0] + rs[0], l[1])
            return None
    if isinstance(e, Pow):
        ex = eval_exact_rational(e.exponent, env)
        if ex is None or ex.denominator != 1:
            return None
        base = eval_one_radical(e.base, env)
        if base is None:
            return None
        k = int(ex)
        if k < 0:
            u, v = base
            if u.is_zero() or v.is_zero():
                raise ZeroDivisionError(f"zero base with negative exponent in {e}")
            base = (ONE / (u * v), v)  # 1/(u sqrt(v)) = sqrt(v)/(u v)
            k = -k
        u, v = base
        return (qr_pow(u, k) * qr_pow(v, k // 2), v if k % 2 else ONE)
    return None


# -------------------------------------------------------------- numeric path


class NumericSeqCache:
    """Incremental Decimal values for term-by-term series summation.

    Catalan numbers and binomials are carried as working-precision decimals
    through their one-step ratio recurrences, so a term at n = 10^5 costs
    O(1) decimal operations instead of exact 10^5-digit integers.  Literal
    powers are advanced by small-exponent steps for the same reason.
    """

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self._cat = [Decimal(1)]
        self._binom: dict = {}
        self._pow: dict = {}

    def catalan(self, n: int) -> Decimal:
        if n < 0:
            raise DomainError(f"catalan: n must be non-negative, got {n}")
        ctx = self.ctx
        cat = self._cat
        while len(cat) <= n:
            m = len(cat) - 1
            cat.append(ctx.divide(ctx.multiply(cat[-1], 2 * (2 * m + 1)), m + 2))
        return cat[n]

    def binom(self, a: int, b: int) -> Decimal:
        if b < 0 or b > a:
            return Decimal(0)
        cache = self._binom
        got = cache.get((a, b))
        if got is not None:
            return got
        # walk down the diagonal (a, b) -> (a-2, b-1) to a cached entry, an
        # edge or a small entry computed exactly, then step back up
        path = []
        while a > 400 and 0 < b < a and (a, b) not in cache:
            path.append((a, b))
            a, b = a - 2, b - 1
        val = cache.get((a, b))
        if val is None:
            val = cache[(a, b)] = self.ctx.plus(Decimal(exactnum.binomial(a, b)))
        for a, b in reversed(path):
            val = cache[(a, b)] = self.ctx.divide(self.ctx.multiply(val, a * (a - 1)), b * (a - b))
        return val

    def power(self, base: Fraction, exponent: int) -> Decimal:
        key = (base, exponent)
        got = self._pow.get(key)
        if got is not None:
            return got
        ctx = self.ctx
        base_dec = self._pow.get(base)
        if base_dec is None:
            base_dec = ctx.divide(Decimal(base.numerator), Decimal(base.denominator))
            self._pow[base] = base_dec
        for step in range(1, 9):
            prev = self._pow.get((base, exponent - step))
            if prev is not None:
                val = ctx.multiply(prev, ctx.power(base_dec, step))
                break
        else:
            val = ctx.power(base_dec, exponent)
        self._pow[key] = val
        return val


def _const_decimal(name: str, digits: int) -> Decimal:
    if name == "pi":
        return _core.const_pi(digits)
    if name == "sqrt5":
        return _const.sqrt5_decimal(digits)
    if name == "alpha":
        return _const.alpha_decimal(digits)
    if name == "beta":
        return _const.beta_decimal(digits)
    if name == "lnalpha":
        return _const.ln_alpha(digits)
    if name == "catalanG":
        return _const.const_catalan_g(digits)
    if name == "zeta3":
        return _const.const_zeta3(digits)
    if name == "omega":
        return _const.omega_decimal(digits)
    raise ValueError(f"unknown constant {name!r}")


class NumericEvaluator:
    """Tree walker bound to one working precision.

    Reused across the terms of a series so the context, the constant
    lookups and the sequence cache persist; `eval` returns values at the
    working precision (target digits plus guard), callers round.
    """

    def __init__(self, digits: int, seq_cache: NumericSeqCache | None = None):
        self.digits = digits
        self.w = digits + _core.guard_digits(digits)
        self.ctx = _core.context(self.w)
        self.seq = seq_cache

    def eval(self, e: Expr, env: Env, locals_: dict | None = None) -> Decimal:
        return self._ev(e, env, locals_ or {})

    def _ev(self, node: Expr, env: Env, locals_: dict) -> Decimal:
        ctx = self.ctx
        w = self.w
        if isinstance(node, IntLit):
            return ctx.plus(Decimal(node.value))
        if isinstance(node, RatLit):
            return ctx.divide(Decimal(node.value.numerator), Decimal(node.value.denominator))
        if isinstance(node, Const):
            return _const_decimal(node.name, w)
        if isinstance(node, Var):
            if node.name in env:
                return ctx.plus(Decimal(env[node.name]))
            if node.name in locals_:
                return locals_[node.name]
            raise UnboundVariableError(node.name, node)
        if isinstance(node, Neg):
            return ctx.minus(self._ev(node.arg, env, locals_))
        if isinstance(node, Fn):
            v = self._ev(node.arg, env, locals_)
            try:
                if node.name == "sqrt":
                    return _core.sqrt(v, w)
                if node.name == "ln":
                    return _core.ln(v, w)
                if node.name == "sin":
                    return _core.sin(v, w)
                if node.name == "cos":
                    return _core.cos(v, w)
                if node.name == "arcsin":
                    return _core.arcsin(v, w)
                if node.name == "arctan":
                    return _core.arctan(v, w)
            except DomainError as exc:
                raise DomainError(f"{exc} in {node}") from exc
            raise ValueError(f"unknown function {node.name!r}")
        if isinstance(node, BinOp):
            l = self._ev(node.left, env, locals_)
            r = self._ev(node.right, env, locals_)
            if node.op == "+":
                return ctx.add(l, r)
            if node.op == "-":
                return ctx.subtract(l, r)
            if node.op == "*":
                return ctx.multiply(l, r)
            if node.op == "/":
                if r == 0:
                    raise ZeroDivisionError(f"division by zero in {node}")
                return ctx.divide(l, r)
            raise ValueError(f"unknown operator {node.op!r}")
        if isinstance(node, Pow):
            ex = eval_exact_rational(node.exponent, env)
            if ex is None:
                raise DomainError(f"exponent is not an exact rational in {node}")
            if ex.denominator == 1:
                k = int(ex)
                if self.seq is not None and not locals_:
                    base_const = literal_fraction(node.base)
                    if base_const is not None:
                        return self.seq.power(base_const, k)
                return _core.pow_int(self._ev(node.base, env, locals_), k, w)
            base = self._ev(node.base, env, locals_)
            try:
                return _core.pow_rational(base, ex, w)
            except DomainError as exc:
                raise DomainError(f"{exc} in {node}") from exc
        if isinstance(node, SeqCall):
            args = []
            for a in node.args:
                v = eval_exact_rational(a, env)
                if v is None or v.denominator != 1:
                    raise DomainError(f"sequence argument is not an integer in {node}")
                args.append(int(v))
            if self.seq is not None:
                if node.name == "C":
                    return self.seq.catalan(args[0])
                if node.name == "binom":
                    return self.seq.binom(args[0], args[1])
            return ctx.plus(Decimal(_sequence_int(node.name, args)))
        if isinstance(node, Quad):
            lo = self._ev(node.lower, env, locals_)
            hi = self._ev(node.upper, env, locals_)

            def f(xv: Decimal) -> Decimal:
                inner = dict(locals_)
                inner[QUAD_VAR] = xv
                return self._ev(node.body, env, inner)

            return _quad.tanh_sinh(f, lo, hi, self.digits)
        if isinstance(node, Clausen):
            return _quad.clausen2(self._ev(node.arg, env, locals_), w)
        raise TypeError(f"not an expression: {node!r}")


def eval_numeric(e: Expr, env: Env, digits: int, seq_cache: NumericSeqCache | None = None) -> Decimal:
    """Evaluate to `digits` correct decimal digits (guard digits inside)."""
    evaluator = NumericEvaluator(digits, seq_cache)
    return _core.round_to(evaluator.eval(e, env), digits)


def literal_fraction(e: Expr):
    """Fraction value of a literal-only subtree, else None."""
    if isinstance(e, IntLit):
        return Fraction(e.value)
    if isinstance(e, RatLit):
        return e.value
    if isinstance(e, Neg):
        v = literal_fraction(e.arg)
        return None if v is None else -v
    if isinstance(e, BinOp) and e.op == "/":
        l = literal_fraction(e.left)
        r = literal_fraction(e.right)
        if l is None or r is None or r == 0:
            return None
        return l / r
    return None
