"""Series summation with sound tail control, exact checks, verification.

Two summation regimes:

* geometric -- sum until |t_n| * rho/(1-rho) drops under the target,
  validating the declared ratio bound against every computed term pair; a
  violated bound is a hard TailBoundViolation, never a silent wrong answer.
* algebraic -- partial sums at geometrically spaced even term counts,
  Richardson-extrapolated against the record's declared exponent ladder
  (even counts keep alternating boundary series sign-coherent).  A
  hypergeometric term is summed by its ratio, t(n+1) = t(n)*P(n)/Q(n) with
  the integers P, Q from expr.term_ratio; the evaluator computes the first
  term, any term after a zero t, P or Q, and every term of other series.

Exact kinds (finite, algebraic, radical) never compare floats: they reduce
to Fraction or QuadRat equality, with radical records squared into Q(sqrt5)
first and their signs checked numerically at 20 digits.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction

from .arbreal import core as _core
from .errors import ConvergenceError, TailBoundViolation, UnsupportedRecordError
from .exactnum import qr_pow
from .expr import (
    Clausen,
    Expr,
    NumericEvaluator,
    NumericSeqCache,
    Quad,
    Var,
    children,
    eval_exact_qsqrt5,
    eval_exact_rational,
    eval_numeric,
    eval_one_radical,
    free_vars,
    term_ratio,
)
from .seriesdsl import AlgebraicTail, FiniteSpec, GeometricTail, IdentityRecord, SeriesSpec

GEOMETRIC_TERM_CAP = 10**6
ALGEBRAIC_TERM_CAP = 10**5
ANCHOR_BASE = 512  # even: keeps alternating boundary partial sums sign-coherent

DIGITS_GEOMETRIC = 50
DIGITS_ALGEBRAIC = 10
DIGITS_INTEGRAL = 30
DIGITS_CONSTANT = 50
RADICAL_SIGN_DIGITS = 20
COMPARE_GUARD = 10  # both sides get this many digits beyond the pass threshold


@dataclass(frozen=True)
class SumResult:
    value: Decimal
    terms_used: int
    tail_bound: Decimal
    strategy: str


@dataclass(frozen=True)
class VerificationResult:
    record_id: str
    binding: tuple  # ((name, value), ...)
    kind: str
    status: str  # pass | fail | error
    abs_diff: Decimal | None
    digits_requested: int | None
    digits_achieved: int | None
    terms_used: int | None
    seconds: float
    detail: str = ""

    def binding_text(self) -> str:
        return ",".join(f"{k}={v}" for k, v in self.binding)


@dataclass(frozen=True)
class VerificationReport:
    results: tuple

    @property
    def counts(self) -> dict:
        out = {"pass": 0, "fail": 0, "error": 0}
        for r in self.results:
            out[r.status] += 1
        return out

    def failures(self):
        return [r for r in self.results if r.status != "pass"]


@dataclass(frozen=True)
class Sides:
    """Both sides of one binding: Decimals with |lhs - rhs| in `diff`, or
    exact values (squares when `squared`) with their verdict in `exact`."""

    lhs: object
    rhs: object
    diff: Decimal | None = None
    exact: bool | None = None
    squared: bool = False
    terms: int | None = None
    strategy: str | None = None
    tail_bound: Decimal | None = None  # the series' tail bound or Richardson gap


@dataclass
class VerifyConfig:
    """Knobs for a verification run.

    `digits` overrides the target for fast-class records (geometric series
    and constants); algebraic-decay and integral records keep their own
    per-record targets, which is what direct desk-scale summation can
    honestly certify.
    """

    digits: int | None = None
    param_ranges: dict = field(default_factory=dict)


# ------------------------------------------------------------------ summation


def sum_series(
    spec: SeriesSpec,
    env: dict,
    tail,
    digits: int,
    force_terms: int | None = None,
) -> SumResult:
    """Sum a series to `digits` with the given tail strategy."""
    if isinstance(tail, GeometricTail):
        return _sum_geometric(spec, env, tail, digits, force_terms)
    if isinstance(tail, AlgebraicTail):
        return _sum_algebraic(spec, env, tail, digits)
    raise TypeError(f"unknown tail strategy {tail!r}")


def _sum_geometric(spec, env, tail, digits, force_terms) -> SumResult:
    evaluator = NumericEvaluator(digits, NumericSeqCache(_core.working_context(digits)))
    ctx = evaluator.ctx
    rho = ctx.divide(Decimal(tail.ratio.numerator), Decimal(tail.ratio.denominator))
    factor = ctx.divide(rho, ctx.subtract(1, rho))
    eps = Decimal(1).scaleb(-digits)
    env = dict(env)
    total = Decimal(0)
    prev = None
    n = spec.start
    terms = 0
    while True:
        env[spec.index] = n
        t = evaluator.eval(spec.term, env)
        total = ctx.add(total, t)
        terms += 1
        if prev is not None and n - 1 >= tail.start:
            if t.copy_abs() > ctx.multiply(rho, prev.copy_abs()):
                observed = ctx.divide(t, prev).copy_abs() if prev != 0 else Decimal("Infinity")
                raise TailBoundViolation(n - 1, observed, tail.ratio)
        bound = ctx.multiply(t.copy_abs(), factor)
        if n >= tail.start and bound < eps and (force_terms is None or terms >= force_terms):
            return SumResult(total, terms, bound, "geometric")
        if terms >= GEOMETRIC_TERM_CAP:
            raise ConvergenceError(
                f"geometric summation hit the {GEOMETRIC_TERM_CAP}-term cap", best=total, gap=bound
            )
        prev = t
        n += 1


def _sum_algebraic(spec, env, tail, digits) -> SumResult:
    evaluator = NumericEvaluator(digits, NumericSeqCache(_core.working_context(digits)))
    ctx = evaluator.ctx
    anchors = [ANCHOR_BASE << j for j in range(tail.order + 1)]
    if anchors[-1] > ALGEBRAIC_TERM_CAP:
        raise ConvergenceError(
            f"algebraic anchors exceed the {ALGEBRAIC_TERM_CAP}-terms-per-partial-sum cap"
        )
    ratio = term_ratio(spec.term, spec.index, env)
    env = dict(env)
    partials = []
    total = Decimal(0)
    n = spec.start
    count = 0
    t = p = q = 0  # t(n) and P(n), Q(n); a zero hands the next term to the evaluator
    for anchor in anchors:
        while count < anchor:
            if t and p and q:
                t = ctx.divide(ctx.multiply(t, p), q)
            else:
                env[spec.index] = n
                t = evaluator.eval(spec.term, env)
            total = ctx.add(total, t)
            if ratio is not None:
                p, q = ratio(n)
            n += 1
            count += 1
        partials.append(total)

    rows = [partials]
    for exponent in tail.ladder:
        prev = rows[-1]
        if len(prev) < 2:
            break
        f = _core.pow_rational(Decimal(2), -exponent, evaluator.w)
        fm1 = ctx.subtract(f, 1)
        rows.append(
            [
                ctx.add(prev[j + 1], ctx.divide(ctx.subtract(prev[j + 1], prev[j]), fm1))
                for j in range(len(prev) - 1)
            ]
        )
    value = rows[-1][-1]
    gap = ctx.subtract(rows[-1][-1], rows[-2][-1]).copy_abs() if len(rows) > 1 else Decimal(1)
    return SumResult(value, anchors[-1], gap, "algebraic")


# ---------------------------------------------------------------- exact paths


def finite_check(record: IdentityRecord, binding: dict):
    """Exact check of a finite-sum record at one binding of its parameters.

    Returns (ok, lhs, rhs) as Fractions.
    """
    spec = record.lhs
    if not isinstance(spec, FiniteSpec):
        raise UnsupportedRecordError(f"{record.id}: not a finite record")
    env = dict(binding)
    lo = _exact_int(spec.lower, env, "lower bound")
    hi = _exact_int(spec.upper, env, "upper bound")
    total = Fraction(0)
    kenv = dict(env)
    for k in range(lo, hi + 1):
        kenv[spec.index] = k
        total += _exact_fraction(spec.summand, kenv, "summand")
    rhs = _exact_fraction(record.rhs, env, "rhs")
    return total == rhs, total, rhs


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


def algebraic_check(record: IdentityRecord, binding: dict):
    """Exact pass/fail in Q(sqrt5); None values route to radical_check."""
    lhs = eval_exact_qsqrt5(record.lhs, binding)
    rhs = eval_exact_qsqrt5(record.rhs, binding)
    if lhs is None or rhs is None:
        return None
    return lhs == rhs, lhs, rhs


def radical_check(record: IdentityRecord, binding: dict, digits: int = RADICAL_SIGN_DIGITS):
    """Square both sides into Q(sqrt5) exactly, then match signs numerically."""
    left = eval_one_radical(record.lhs, binding)
    right = eval_one_radical(record.rhs, binding)
    if left is None or right is None:
        raise UnsupportedRecordError(
            f"{record.id}: sides do not square into Q(sqrt5)"
        )
    square_l = qr_pow(left[0], 2) * left[1]
    square_r = qr_pow(right[0], 2) * right[1]
    if square_l != square_r:
        return False, square_l, square_r
    lv = eval_numeric(record.lhs, binding, digits)
    rv = eval_numeric(record.rhs, binding, digits)
    return (lv > 0) == (rv > 0) and (lv < 0) == (rv < 0), square_l, square_r


# -------------------------------------------------------------- verification


def target_digits(record: IdentityRecord, config: VerifyConfig):
    """The digits a numeric row must reach to pass (None for exact kinds):
    `config.digits` moves the fast classes, the slow ones keep their own."""
    if record.kind == "series":
        if isinstance(record.tail, AlgebraicTail):
            return record.digits or DIGITS_ALGEBRAIC
        return config.digits or record.digits or DIGITS_GEOMETRIC
    if record.kind == "integral":
        if isinstance(record.lhs, SeriesSpec):
            return record.digits or DIGITS_ALGEBRAIC
        return record.digits or DIGITS_INTEGRAL
    if record.kind == "constant":
        return config.digits or record.digits or DIGITS_CONSTANT
    return None  # exact kinds


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
    (a series' quadrature rhs to at least DIGITS_INTEGRAL + COMPARE_GUARD)."""
    kind = record.kind
    if kind == "finite":
        ok, lhs, rhs = finite_check(record, binding)
        return Sides(lhs, rhs, exact=ok)
    if kind in ("algebraic", "radical"):
        checked = algebraic_check(record, binding) if kind == "algebraic" else None
        squared = checked is None
        ok, lhs, rhs = radical_check(record, binding) if squared else checked
        return Sides(lhs, rhs, exact=ok, squared=squared)
    if kind not in ("series", "integral", "constant"):
        raise UnsupportedRecordError(f"{record.id}: unknown kind {kind!r}")
    if isinstance(record.lhs, SeriesSpec):
        summed = sum_series(record.lhs, binding, record.tail, digits)
        lhs, terms, strategy, tail_bound = summed.value, summed.terms_used, summed.strategy, summed.tail_bound
        if _has_quadrature(record.rhs):
            digits = max(digits, DIGITS_INTEGRAL + COMPARE_GUARD)
    else:
        lhs, terms, strategy, tail_bound = eval_numeric(record.lhs, binding, digits), None, None, None
    rhs = eval_numeric(record.rhs, binding, digits)
    diff = _core.context(digits + 5).subtract(lhs, rhs).copy_abs()
    return Sides(lhs, rhs, diff=diff, terms=terms, strategy=strategy, tail_bound=tail_bound)


def _streamed_sides(record: IdentityRecord):
    """Sides for rising n of a finite record whose partial sums extend one
    term per n: the record's one parameter is the upper bound, the summand
    involves only the inner index and the lower bound is fixed.  None for
    other records (with a second parameter the bindings would not rise)."""
    if record.kind != "finite" or len(record.params) != 1:
        return None
    spec = record.lhs
    outer = record.params[0][0]
    if not (free_vars(spec.summand) <= {spec.index} and spec.upper == Var(outer) and not free_vars(spec.lower)):
        return None
    kenv = {}
    running = Fraction(0)
    base = upto = None

    def sides(binding):
        nonlocal running, base, upto
        n = binding[outer]
        if base is None:
            base = _exact_int(spec.lower, {}, "lower bound")
            upto = base - 1
        while upto < n:
            upto += 1
            kenv[spec.index] = upto
            running += _exact_fraction(spec.summand, kenv, "summand")
        rhs = _exact_fraction(record.rhs, {outer: n}, "rhs")
        return Sides(running, rhs, exact=running == rhs, terms=n - base + 1)

    return sides


def verify_identity(record: IdentityRecord, config: VerifyConfig | None = None):
    """Check one record over its parameter range; one result per binding."""
    config = config or VerifyConfig()
    digits = target_digits(record, config)
    streamed = _streamed_sides(record)
    out = []
    for binding in bindings(record, config):
        started = time.perf_counter()
        try:
            out.append(_verify_one(record, binding, digits, started, streamed))
        except Exception as exc:  # downstream errors become rows, never crashes
            out.append(
                _result(record, binding, "error", requested=digits, started=started, detail=f"{type(exc).__name__}: {exc}")
            )
    return out


def _result(record, binding, status, *, diff=None, requested=None, achieved=None, terms=None, started, detail=""):
    return VerificationResult(
        record_id=record.id,
        binding=tuple(sorted(binding.items())),
        kind=record.kind,
        status=status,
        abs_diff=diff,
        digits_requested=requested,
        digits_achieved=achieved,
        terms_used=terms,
        seconds=time.perf_counter() - started,
        detail=detail,
    )


def check_tail(sides: Sides, target: int) -> None:
    """Raise ConvergenceError when a series' tail bound or Richardson gap is
    not below 10^-target, the row's verification target."""
    tol = Decimal(1).scaleb(-target)
    if sides.tail_bound is not None and sides.tail_bound >= tol:
        raise ConvergenceError(
            f"{sides.strategy} tail estimate {sides.tail_bound:.2E} is not below {tol:.0E}",
            best=sides.lhs, gap=sides.tail_bound,
        )


def _verify_one(record, binding, digits, started, streamed):
    if streamed is not None:
        sides = streamed(binding)
    else:
        sides = evaluate_sides(record, binding, None if digits is None else digits + COMPARE_GUARD)
    if sides.exact is None:
        check_tail(sides, digits)
        achieved = min(_diff_digits(sides.diff), digits + COMPARE_GUARD)
        if sides.tail_bound is not None:
            achieved = min(achieved, _diff_digits(sides.tail_bound))
        return _result(
            record, binding, "pass" if sides.diff < Decimal(1).scaleb(-digits) else "fail",
            diff=sides.diff, requested=digits, achieved=achieved, terms=sides.terms, started=started,
        )
    if sides.exact:
        diff = Decimal(0)
    elif record.kind == "finite":
        diff = _fraction_gap(sides.lhs, sides.rhs)
    else:
        diff = _numeric_gap(record, binding)
    detail = "routed to radical check" if record.kind == "algebraic" and sides.squared else ""
    return _result(
        record, binding, "pass" if sides.exact else "fail",
        diff=diff, terms=sides.terms, started=started, detail=detail,
    )


def _numeric_gap(record, binding) -> Decimal:
    ctx = _core.context(30)
    return ctx.subtract(
        eval_numeric(record.lhs, binding, 20), eval_numeric(record.rhs, binding, 20)
    ).copy_abs()


def _fraction_gap(lhs: Fraction, rhs: Fraction) -> Decimal:
    gap = lhs - rhs
    ctx = _core.context(30)
    return ctx.divide(Decimal(gap.numerator), Decimal(gap.denominator)).copy_abs()


def verify_all(records, config: VerifyConfig | None = None) -> VerificationReport:
    """Verify records in deterministic (id, binding) order."""
    config = config or VerifyConfig()
    results = []
    for record in sorted(records, key=lambda r: r.id):
        results.extend(verify_identity(record, config))
    return VerificationReport(tuple(results))
