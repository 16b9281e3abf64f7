"""Series summation with sound tail control, exact checks, verification.

`sum_series` derives the term's ratio (expr.term_ratio) once per binding
and hands it to the evaluator and to an algebraic tail's expansion.  One
summation loop, `_terms`, serves both tails: it asks one NumericEvaluator
for t(start), t(start+1), ..., and the evaluator steps each term from the
last as Binet chains by that ratio, u_i(n+1) = u_i(n) * P(n)/Q(n) *
gamma_i, and evaluates the tree only for the first term, any term after a
zero t, P or Q, and every term of a term without a ratio.  The tails
differ in where they stop:

* geometric -- sum until |t_n| * rho/(1-rho) drops under the target,
  validating the declared ratio bound against every term pair; a violated
  bound is a hard TailBoundViolation, never a silent wrong answer.  The
  tail bound adds the rounding allowance of the stepped terms.
* algebraic -- the term must be hypergeometric (one chain, gamma = 1): its
  first N terms (400, or more when a factor of the ratio has a far root)
  are summed, and the tail t(N)*f(N) comes from the asymptotic expansion
  f(N) = sum_k c_k N^-k of T(N)/t(N), solved exactly from
  f(N) = 1 + R(N) f(N+1).  Its gap, |S(N) - S(N/2)| plus the last
  expansion term and the rounding, is an estimate, not a proved bound.

Exact kinds (finite, algebraic, radical) never compare floats: they reduce
to Fraction or QuadRat equality.  An algebraic or radical record whose side
leaves Q(sqrt5) has its sides compared as forms u*sqrt(v) by their
difference; only a failed row evaluates its sides, for the gap, at 20 digits.
A finite record keeps one running exact sum across its bindings.  An
integral or constant record without a series side is first tried exactly
in Q(sqrt2)[pi, 1/pi] (expr.eval_exact_pi), where a quadrature that is an
Euler Beta integral or a sine moment x^j sin(x)^m sin(x/2)^a cos(x/2)^b
on [0, pi/2] has its exact value: when both sides lie there, pi being
transcendental, they are equal iff their coefficients are, a proof, and
the row's strategy is "beta".  A series record whose rhs holds a
quadrature tries its rhs there too: an exact rhs is rounded once to the
working digits (expr.pi_poly_decimal), and the row's detail says so
(EXACT_RHS).  A Beta form that diverges is a ConvergenceError at once.
Any other such side is evaluated numerically, its quadratures by tanh-sinh.
`checker` is the one per-binding check behind `verify_identity` and
`fibcat eval`, and `exit_code` their one exit-code rule.  A numeric side
other than a series is evaluated by one walk of its tree
(expr.NumericEvaluator) at each binding.
"""

from __future__ import annotations

import itertools
import math
import time
from collections import defaultdict
from decimal import Decimal
from fractions import Fraction
from functools import partial

from . import expr
from .arbreal import core as _core
from .errors import ConvergenceError, TailBoundViolation, UnsupportedRecordError
from .exactnum import ONE, Radical
from .expr import (
    Clausen,
    Expr,
    NumericEvaluator,
    Quad,
    check_digits,
    children,
    eval_exact_pi,
    eval_exact_qsqrt5,
    eval_exact_rational,
    eval_numeric,
    eval_one_radical,
    free_vars,
    pi_poly_decimal,
)
from .seriesdsl import AlgebraicTail, FiniteSpec, GeometricTail, IdentityRecord, SeriesSpec
from .value import Value

GEOMETRIC_TERM_CAP = 10**6
ALGEBRAIC_TERM_CAP = 10**5
TAIL_TERMS = 400  # terms summed before an algebraic tail's expansion takes over
EXPANSION_ORDER_CAP = 40  # highest power of 1/N in that expansion

DIGITS_GEOMETRIC = 50
DIGITS_ALGEBRAIC = 10
DIGITS_INTEGRAL = 30
DIGITS_CONSTANT = 50
RADICAL_SIGN_DIGITS = 20
COMPARE_GUARD = 10  # both sides get this many digits beyond the pass threshold
EXACT_RHS = "rhs exact in Q(sqrt2)[pi, 1/pi]"  # the detail of a series row whose quadrature rhs ran none


class SumResult(Value):
    __slots__ = ("value", "terms_used", "tail_bound", "strategy")


class VerificationResult(Value):
    # binding: ((name, value), ...); status: pass | fail | error; strategy:
    # how a series lhs was summed, or "beta" for an exact quadrature (see
    # _pi_sides); tail_bound: its tail bound or gap estimate
    __slots__ = (
        "record_id", "binding", "kind", "status", "abs_diff", "digits_requested", "digits_achieved",
        "terms_used", "seconds", "detail", "strategy", "tail_bound",
    )
    _defaults = {"detail": "", "strategy": None, "tail_bound": None}

    def binding_text(self) -> str:
        return ",".join(f"{k}={v}" for k, v in self.binding)


class VerificationReport(Value):
    __slots__ = ("results",)

    @property
    def counts(self) -> dict:
        out = {"pass": 0, "fail": 0, "error": 0}
        for r in self.results:
            out[r.status] += 1
        return out

    def failures(self):
        return [r for r in self.results if r.status != "pass"]


class Sides(Value):
    """Both sides of one binding: Decimals with |lhs - rhs| in `diff`, or exact
    values (Fractions, QuadRats or forms u*sqrt(v)) with their verdict in
    `exact` and `diff` 0 on a match, else their gap to 20 digits or more.
    `terms`, `strategy` and `tail_bound` (the tail bound or algebraic-tail gap
    estimate) describe a series side; `detail` is a note for the row."""

    __slots__ = ("lhs", "rhs", "diff", "exact", "terms", "strategy", "tail_bound", "detail")
    _defaults = {"diff": None, "exact": None, "terms": None, "strategy": None, "tail_bound": None, "detail": ""}


class VerifyConfig(Value):
    """Knobs for a verification run.

    `digits` overrides the target for series (geometric and algebraic
    tails) and constants; integral records keep their own per-record
    targets, since their quadrature runs at a fixed 40 digits.
    `param_ranges` maps a parameter name to the (lo, hi) it is clipped to.
    """

    __slots__ = ("digits", "param_ranges")

    def __init__(self, digits: int | None = None, param_ranges: dict | None = None):
        check_digits(digits)
        super().__init__(digits, {} if param_ranges is None else param_ranges)


# ------------------------------------------------------------------ summation


def sum_series(spec: SeriesSpec, env: dict, tail, digits: int) -> SumResult:
    """Sum a series to `digits` with the given tail strategy."""
    evaluator = NumericEvaluator(digits)
    # derived once per binding, for the steps and an algebraic tail's expansion
    ratio = expr.term_ratio(spec.term, spec.index, env)
    evaluator.step(spec.term, spec.index, ratio)
    if isinstance(tail, GeometricTail):
        return _sum_geometric(spec, env, tail, evaluator)
    if isinstance(tail, AlgebraicTail):
        return _sum_algebraic(spec, env, evaluator, ratio)
    raise TypeError(f"unknown tail strategy {tail!r}")


def _terms(spec, env, evaluator):
    """t(start), t(start + 1), ...: the one loop of both tails, each term
    stepped from the last by the evaluator (NumericEvaluator.step)."""
    env, term, index, evaluate = dict(env), spec.term, spec.index, evaluator.eval
    for n in itertools.count(spec.start):
        env[index] = n
        yield evaluate(term, env)


def _rounding(evaluator, terms: int, size: Decimal) -> Decimal:
    """The rounding allowance of a sum of `terms` terms whose |t| add up to
    `size`: a stepped term carries up to 3 roundings of 5*10^-w per step."""
    return evaluator.ctx.multiply(Decimal(1).scaleb(-evaluator.w), 15 * terms * size)


def _sum_geometric(spec, env, tail, evaluator) -> SumResult:
    ctx = evaluator.ctx
    add, multiply = ctx.add, ctx.multiply
    rho = expr.to_decimal(tail.ratio, ctx)
    factor = ctx.divide(rho, ctx.subtract(1, rho))
    eps = Decimal(1).scaleb(-evaluator.digits)
    total = size = Decimal(0)  # the partial sum and the sum of |t(n)|
    prev = None  # |t(n-1)|
    for n, t in enumerate(_terms(spec, env, evaluator), spec.start):
        terms = n - spec.start + 1
        now = t.copy_abs()
        total, size = add(total, t), add(size, now)
        if prev is not None and n > tail.start and now > multiply(rho, prev):
            observed = ctx.divide(now, prev) if prev != 0 else Decimal("Infinity")
            raise TailBoundViolation(n - 1, observed, tail.ratio)
        bound = multiply(now, factor)
        if n >= tail.start and bound < eps:
            return SumResult(total, terms, add(bound, _rounding(evaluator, terms, size)), "geometric")
        if terms >= GEOMETRIC_TERM_CAP:
            raise ConvergenceError(
                f"geometric summation hit the {GEOMETRIC_TERM_CAP}-term cap", best=total, gap=bound
            )
        prev = now


def _sum_algebraic(spec, env, evaluator, ratio) -> SumResult:
    if ratio is None or [gamma for _, gamma in ratio.chains] != [ONE]:
        raise UnsupportedRecordError(f"an algebraic tail needs a hypergeometric term: {spec.term}")
    # the expansion point N lies 8x past every root of a factor of the ratio
    roots = [abs(Fraction(o, s)) for s, o in ratio.num + ratio.den] + [abs(z) for z in ratio.zeros]
    n_tail = max(max(spec.start, 0) + TAIL_TERMS, math.ceil(8 * max(roots, default=0)))
    terms = n_tail - spec.start
    if terms > ALGEBRAIC_TERM_CAP:
        raise ConvergenceError(f"algebraic tail needs {terms} terms, past the {ALGEBRAIC_TERM_CAP}-term cap")
    half = max(n_tail // 2, spec.start)
    ctx = evaluator.ctx
    total = size = Decimal(0)  # the partial sum and the sum of |t(n)|
    for n, t in zip(range(spec.start, n_tail + 1), _terms(spec, env, evaluator)):
        if n == half:
            half_total, half_t = total, t
        if n == n_tail:
            break
        total = ctx.add(total, t)
        size = ctx.add(size, t.copy_abs())

    # S(N) = sum_{n<N} t(n) + t(N) * f(N), f(N) = sum_k c_k N^-k up to two
    # terms in a row below 10^-w (some c_k vanish).  The gap estimate is
    # |S(N) - S(N/2)| (the same c_k at N/2) + the last term + rounding
    eps = Decimal(1).scaleb(-evaluator.w)
    f_tail = f_half = Decimal(0)
    last = [Decimal(1), Decimal(1)]
    for k, c in tail_coefficients(ratio):
        term, half_term = (expr.to_decimal(c * n**-k if k < 0 else c / n**k, ctx) for n in (n_tail, half))
        f_tail, f_half = ctx.add(f_tail, term), ctx.add(f_half, half_term)
        last = [last[1], ctx.multiply(term, t).copy_abs()]
        if max(last) < eps:
            break
    value = ctx.add(total, ctx.multiply(t, f_tail))
    rough = ctx.add(half_total, ctx.multiply(half_t, f_half))
    gap = ctx.add(ctx.add(ctx.subtract(value, rough).copy_abs(), max(last)), _rounding(evaluator, terms, size))
    return SumResult(value, terms, gap, "algebraic")


def tail_coefficients(ratio):
    """(k, c_k) for k = -1 or 0 upwards to EXPANSION_ORDER_CAP, with
    T(N)/t(N) ~ sum_k c_k N^-k for the tail T(N) = sum_{m>=N} t(m) of a term
    with the given TermRatio R.

    f = T/t satisfies f(N) = 1 + R(N) f(N+1), that is Q f(N) - P f(N+1) = Q
    with P, Q polynomials in N; expanding f(N+1) = sum_k c_k N^-k (1+1/N)^-k
    and matching powers of 1/N gives a triangular system over Q, solved on
    ints over one common denominator: c_k is c[k]/d and g_j is g[j]/d, and
    d takes the factor |pivot| at each step.
    With R(N) = L (1 - s/N + O(N^-2)) only L = 1 with s > 1 (then
    c_-1 = 1/(s-1)), |L| < 1, and L = -1 with s > 0 converge; the first
    step raises UnsupportedRecordError for any other ratio.
    """
    p, q = ratio.p, ratio.q  # highest power first; L and s come from their two leading coefficients
    lead = len(p) - len(q)
    limit = Fraction(p[0], q[0]) if lead == 0 else 0
    s = limit and Fraction((*q, 0)[1], q[0]) - Fraction((*p, 0)[1], p[0])
    if lead > 0 or abs(limit) > 1 or (limit == 1 and s <= 1) or (limit == -1 and s <= 0):
        raise UnsupportedRecordError(
            f"the series does not converge like an algebraic tail: t(n+1)/t(n) = {limit}*(1 - {s}/n + O(1/n^2))"
        )
    p = [0] * -lead + p
    shift = int(limit == 1)  # L = 1: f ~ N/(s-1), and c_m comes from the order m+1 equation
    d, c = 1, {}
    g = defaultdict(int)  # f(N+1) = sum_j g[j]/d N^-j over the c_k found so far
    for m in range(-shift, EXPANSION_ORDER_CAP + 1):
        e = m + shift
        g[e] = sum(ck * _binom_neg(k, e - k) for k, ck in c.items())
        known = sum(q[i] * c.get(e - i, 0) - p[i] * g[e - i] for i in range(len(q)))
        pivot = q[1] - p[1] + m * p[0] if shift else q[0] - p[0]
        # c_m = ((q_e d - known) / pivot) / d: every value takes the factor |pivot|
        scale = abs(pivot)
        c = {k: ck * scale for k, ck in c.items()}
        g = defaultdict(int, {j: gj * scale for j, gj in g.items()})
        c[m] = ((q[e] if e < len(q) else 0) * d - known) * (scale // pivot)
        d *= scale
        for j in range(m, e + 1):
            g[j] += c[m] * _binom_neg(m, j - m)
        yield m, Fraction(c[m], d)


def _binom_neg(k: int, r: int) -> int:
    """binom(-k, r), the coefficient of x^r in (1+x)^-k."""
    return math.comb(-k, r) if k <= 0 else (-1) ** r * math.comb(k + r - 1, r)


# ---------------------------------------------------------------- exact paths


class _FiniteSum:
    """binding -> Sides of a finite record, exact, with one running sum: a
    binding that keeps the lower bound and the values of the summand's other
    names, and does not lower the upper bound, extends the last sum; any
    other binding starts it again."""

    def __init__(self, record: IdentityRecord):
        if not isinstance(record.lhs, FiniteSpec):
            raise UnsupportedRecordError(f"{record.id}: not a finite record")
        self.record, spec = record, record.lhs
        self.others = sorted(free_vars(spec.summand) - {spec.index})
        self.key = self.upto = self.total = None

    def __call__(self, binding: dict, digits=None) -> Sides:
        spec = self.record.lhs
        lo = _exact_int(spec.lower, binding, "lower bound")
        hi = _exact_int(spec.upper, binding, "upper bound")
        key = (lo, [binding.get(name) for name in self.others])
        extend = key == self.key and hi >= self.upto
        upto, total = (self.upto, self.total) if extend else (lo - 1, Fraction(0))
        env = dict(binding)
        for k in range(upto + 1, hi + 1):
            env[spec.index] = k
            total += _exact_fraction(spec.summand, env, "summand")
        self.key, self.upto, self.total = key, max(upto, hi), total
        rhs = _exact_fraction(self.record.rhs, binding, "rhs")
        diff = expr.to_decimal(abs(total - rhs), _core.context(30))
        return Sides(total, rhs, diff=diff, exact=total == rhs, terms=max(hi - lo + 1, 0))


def _exact_fraction(e: Expr, env, what: str) -> Fraction:
    v = eval_exact_rational(e, env)
    if v is None:
        raise UnsupportedRecordError(f"{what} is not exactly rational: {e}")
    return v


def _exact_int(e: Expr, env, what: str) -> int:
    v = _exact_fraction(e, env, what)
    if v.denominator != 1:
        raise UnsupportedRecordError(f"{what} is not an integer: {e}")
    return int(v)


def _exact_sides(record: IdentityRecord, binding: dict, digits=None) -> Sides:
    """Sides of an algebraic or radical record: exact in Q(sqrt5) when both
    sides lie in it, else forms u*sqrt(v) (exactnum.Radical), equal iff their
    difference is the zero form; a difference of None, radicands that differ
    by no square in Q(sqrt5), is unequal, as u*sqrt(v) = t*sqrt(w) with u, t
    nonzero forces w/v = (u/t)^2.  A failed row's diff is the gap of the
    sides evaluated once each at RADICAL_SIGN_DIGITS."""
    sides = (record.lhs, record.rhs)
    lhs, rhs = (eval_exact_qsqrt5(side, binding) for side in sides)
    radical = lhs is None or rhs is None
    if radical:
        lhs, rhs = (eval_one_radical(side, binding) for side in sides)
        if lhs is None or rhs is None:
            raise UnsupportedRecordError(f"{record.id}: a side is no form u*sqrt(v) over Q(sqrt5)")
    ok = lhs - rhs == Radical.of(0) if radical else lhs == rhs
    values = () if ok else [eval_numeric(side, binding, RADICAL_SIGN_DIGITS) for side in sides]
    diff = Decimal(0) if ok else _core.context(30).subtract(*values).copy_abs()
    detail = "routed to radical check" if radical and record.kind == "algebraic" else ""
    return Sides(lhs, rhs, diff=diff, exact=ok, detail=detail)


def _pi_sides(record: IdentityRecord, binding: dict):
    """Sides of a non-series record when both sides are exact in
    Q(sqrt2)[pi, 1/pi] (a quadrature there is taken by Euler's Beta rule or
    as a sine moment), else None.  pi is transcendental, so the sides are
    equal iff their coefficients are; a failed row's diff is their gap to 30
    digits.  Both sides are tried whatever the other gives, so a Beta form
    that diverges on either side raises its ConvergenceError at once."""
    lhs = eval_exact_pi(record.lhs, binding)
    rhs = eval_exact_pi(record.rhs, binding)
    if lhs is None or rhs is None:
        return None
    ok = lhs == rhs
    diff = Decimal(0) if ok else pi_poly_decimal(lhs - rhs, 30).copy_abs()
    strategy = "beta" if _has_quadrature(record.lhs) or _has_quadrature(record.rhs) else None
    return Sides(lhs, rhs, diff=diff, exact=ok, strategy=strategy)


# -------------------------------------------------------------- verification


def _kind(record: IdentityRecord, config: VerifyConfig):
    """(target digits, sides), the one place that picks a path by the
    record's kind: `sides(binding, digits)` gives one binding's Sides,
    numeric kinds at `digits` working digits.  Exact kinds have no target;
    `config.digits` moves the target of series and constants, integrals
    keep their own."""
    kind = record.kind
    if kind == "finite":
        return None, _FiniteSum(record)
    if kind in ("algebraic", "radical"):
        return None, partial(_exact_sides, record)
    if kind == "series":
        default = DIGITS_ALGEBRAIC if isinstance(record.tail, AlgebraicTail) else DIGITS_GEOMETRIC
        target = config.digits or record.digits or default
    elif kind == "integral":
        target = record.digits or (DIGITS_ALGEBRAIC if isinstance(record.lhs, SeriesSpec) else DIGITS_INTEGRAL)
    elif kind == "constant":
        target = config.digits or record.digits or DIGITS_CONSTANT
    else:
        raise UnsupportedRecordError(f"{record.id}: unknown kind {kind!r}")
    return target, partial(_numeric_sides, record)


def _has_quadrature(e: Expr) -> bool:
    return isinstance(e, (Quad, Clausen)) or any(map(_has_quadrature, children(e)))


def bindings(record: IdentityRecord, config: VerifyConfig) -> list:
    """The record's parameter bindings, each range clipped to `config`."""
    if not record.params:
        return [{}]
    axes = []
    for name, lo, hi in record.params:
        olo, ohi = config.param_ranges.get(name, (lo, hi))
        lo2, hi2 = max(lo, olo), min(hi, ohi)
        axes.append([(name, v) for v in range(lo2, hi2 + 1)])
    return [dict(combo) for combo in itertools.product(*axes)]


def _diff_digits(diff: Decimal) -> int:
    if diff == 0:
        return 10**6  # resolved beyond working precision
    return -diff.adjusted() - 1


def evaluate_sides(record: IdentityRecord, binding: dict, digits: int | None = None) -> Sides:
    """Both sides of `record` at one binding, numeric kinds to `digits` digits
    (a series' quadrature rhs to at least DIGITS_INTEGRAL + COMPARE_GUARD),
    by default to the record's target plus COMPARE_GUARD, as `verify` does."""
    check_digits(digits)
    target, sides_of = _kind(record, VerifyConfig())
    return sides_of(binding, target + COMPARE_GUARD if digits is None and target is not None else digits)


def _numeric_sides(record: IdentityRecord, binding: dict, digits: int) -> Sides:
    """Sides of a series, integral or constant record at `digits` working
    digits: the series summed (first term and stepped terms) and each other
    side evaluated.  A record without a series side is first tried exactly
    in Q(sqrt2)[pi, 1/pi] (_pi_sides), and so is the quadrature rhs of a
    series record."""
    rhs, detail = None, ""
    if isinstance(record.lhs, SeriesSpec):
        summed = sum_series(record.lhs, binding, record.tail, digits)
        lhs, terms, strategy, tail_bound = summed.value, summed.terms_used, summed.strategy, summed.tail_bound
        if _has_quadrature(record.rhs):
            digits = max(digits, DIGITS_INTEGRAL + COMPARE_GUARD)
            exact = eval_exact_pi(record.rhs, binding)
            if exact is not None:
                rhs, detail = pi_poly_decimal(exact, digits), EXACT_RHS
    else:
        exact = _pi_sides(record, binding)
        if exact is not None:
            return exact
        lhs = eval_numeric(record.lhs, binding, digits)
        terms = strategy = tail_bound = None
    if rhs is None:
        rhs = eval_numeric(record.rhs, binding, digits)
    diff = _core.context(digits + 5).subtract(lhs, rhs).copy_abs()
    return Sides(lhs, rhs, diff=diff, terms=terms, strategy=strategy, tail_bound=tail_bound, detail=detail)


def verdict(sides: Sides, target: int | None):
    """(status, digits_achieved) of one binding's sides: exact sides by their
    exact verdict; numeric ones by |lhs - rhs| < 10^-target, after raising
    ConvergenceError when a series' tail bound or gap is not below it."""
    if sides.exact is not None:
        return ("pass" if sides.exact else "fail"), None
    tol = Decimal(1).scaleb(-target)
    achieved = min(_diff_digits(sides.diff), target + COMPARE_GUARD)
    if sides.tail_bound is not None:
        if sides.tail_bound >= tol:
            raise ConvergenceError(
                f"{sides.strategy} tail estimate {sides.tail_bound:.2E} is not below {tol:.0E}",
                best=sides.lhs, gap=sides.tail_bound,
            )
        achieved = min(achieved, _diff_digits(sides.tail_bound))
    return ("pass" if sides.diff < tol else "fail"), achieved


def checker(record: IdentityRecord, config: VerifyConfig | None = None, digits: int = 0):
    """binding -> (Sides or None, VerificationResult), the check of one
    binding behind both `verify` and `eval`.  Numeric sides are evaluated at
    the larger of `digits` and the target plus COMPARE_GUARD.  Any exception
    becomes an error row whose detail names it; the sides come with it when
    they were evaluated (a tail estimate not below the target)."""
    config = config or VerifyConfig()
    target, sides_of = _kind(record, config)
    working = None if target is None else max(digits, target + COMPARE_GUARD)

    def check(binding: dict):
        started = time.perf_counter()
        sides = achieved = None
        try:
            sides = sides_of(binding, working)
            status, achieved = verdict(sides, target)
            row, detail = sides, sides.detail
        except Exception as exc:  # downstream errors become rows, never crashes
            status, row, detail = "error", None, f"{type(exc).__name__}: {exc}"
        return sides, VerificationResult(
            record_id=record.id, binding=tuple(sorted(binding.items())), kind=record.kind, status=status,
            abs_diff=row and row.diff, digits_requested=target, digits_achieved=achieved,
            terms_used=row and row.terms, seconds=time.perf_counter() - started, detail=detail,
            strategy=row and row.strategy, tail_bound=row and row.tail_bound,
        )

    return check


def verify_identity(record: IdentityRecord, config: VerifyConfig | None = None):
    """Check one record over its parameter range; one result per binding."""
    config = config or VerifyConfig()
    check = checker(record, config)
    return [check(binding)[1] for binding in bindings(record, config)]


def exit_code(results) -> int:
    """The exit code of `fibcat verify` and `fibcat eval` over their rows:
    3 when a row failed to converge, else 1 when a row did not pass, else 0."""
    if any(r.status == "error" and r.detail.startswith(("ConvergenceError", "TailBoundViolation")) for r in results):
        return 3
    return int(any(r.status != "pass" for r in results))


def verify_all(records, config: VerifyConfig | None = None) -> VerificationReport:
    """Verify records in deterministic (id, binding) order."""
    config = config or VerifyConfig()
    results = []
    for record in sorted(records, key=lambda r: r.id):
        results.extend(verify_identity(record, config))
    return VerificationReport(tuple(results))
