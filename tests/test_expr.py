import itertools
import math
import re
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fibcat import arbreal as ar
from fibcat import engine, exactnum
from fibcat import expr as expr_module
from fibcat.arbreal import core
from fibcat.errors import ConvergenceError, DomainError, UnboundVariableError
from fibcat.exactnum import PiPoly, QuadRat
from fibcat.expr import (
    BinOp,
    BoundVar,
    Const,
    Fn,
    IntLit,
    Neg,
    NumericEvaluator,
    Pow,
    Quad,
    RatLit,
    SeqCall,
    TermRatio,
    Var,
    children,
    eval_exact_pi,
    eval_exact_qsqrt5,
    eval_exact_rational,
    eval_numeric,
    eval_one_radical,
    free_vars,
    integer_poly,
    map_children,
    pi_poly_decimal,
    substitute,
    term_ratio,
)
from fibcat.poly import linear_product
from fibcat.seriesdsl import (
    AlgebraicTail,
    FiniteSpec,
    IdentityRecord,
    SeriesSpec,
    builtin_registry,
    format_expr,
    parse_expression,
)
from fibcat.seriesdsl import parse_expression as parse

CTX = core.context(80)


def test_eval_numeric_beta_surd():
    # hand-expansion oracle: -beta*sqrt5 = (5 - sqrt5)/2
    got = eval_numeric(parse("-beta*sqrt5"), {}, 30)
    want = CTX.divide(CTX.subtract(5, ar.sqrt5_decimal(60)), 2)
    assert CTX.subtract(got, want).copy_abs() < Decimal("1E-29")
    assert str(got).startswith("1.3819660112501051517954")


def test_eval_numeric_alpha_square_is_alpha_plus_one():
    got = eval_numeric(parse("alpha^2"), {}, 30)
    want = CTX.add(ar.alpha_decimal(60), 1)
    assert CTX.subtract(got, want).copy_abs() < Decimal("1E-28")
    assert str(got).startswith("2.6180339887")


def test_eval_numeric_pi_squared_over_18():
    # digits pinned through the independent pi route
    got = eval_numeric(parse("pi^2/18"), {}, 30)
    pi = ar.const_pi_check(45)
    want = CTX.divide(CTX.multiply(pi, pi), 18)
    assert CTX.subtract(got, want).copy_abs() < Decimal("1E-29")
    assert str(got).startswith("0.54831135561")


def test_eval_exact_rational_examples():
    assert eval_exact_rational(parse("(2^(2*n+1)/C(n) - 2)/3"), {"n": 2}) == Fraction(14, 3)
    assert eval_exact_rational(parse("binom(2*k,k)"), {"k": 3}) == 20
    assert eval_exact_rational(parse("sqrt5"), {}) is None
    assert eval_exact_rational(parse("sqrt(4)"), {}) is None
    with pytest.raises(ZeroDivisionError):
        eval_exact_rational(parse("1/(n-2)"), {"n": 2})
    with pytest.raises(UnboundVariableError):
        eval_exact_rational(parse("n+1"), {})


def test_eval_exact_qsqrt5_examples():
    # shifted power lemma instance: 3 alpha^2 - beta^5 = L(3) sqrt5 - L(1)
    lhs = eval_exact_qsqrt5(parse("3*alpha^2 - beta^5"), {})
    rhs = eval_exact_qsqrt5(parse("L(3)*sqrt5 - L(1)"), {})
    assert lhs == rhs
    assert eval_exact_qsqrt5(parse("alpha*beta"), {}) == QuadRat.of(-1)
    assert eval_exact_qsqrt5(parse("alpha^10"), {}) == QuadRat.of(Fraction(123, 2), Fraction(55, 2))
    assert eval_exact_qsqrt5(parse("pi"), {}) is None


def test_free_vars_and_substitute():
    assert free_vars(parse("C(n)/5^n")) == {"n"}
    assert substitute(parse("F(2*n+s)"), "s", 3) == parse("F(2*n+3)")
    assert free_vars(parse("quad(x^2*sin(x), 0, pi/2)")) == frozenset()
    assert free_vars(parse("quad(x^n, 0, z)")) == {"n", "z"}
    assert substitute(parse("x + quad(x^2, 0, x)"), "x", 5) == parse("5 + quad(x^2, 0, 5)")


@pytest.mark.parametrize(
    "text, binding, want",
    [
        ("quad(x, 0, 1)", {"x": 3}, "0.5"),  # the body's x is the bound variable, not the binding
        ("x + quad(x, 0, x)", {"x": 2}, "4"),  # outside the body x is the binding: 2 + 2
        ("quad(x^s, 0, 1)", {"s": 3}, "0.25"),
    ],
)
def test_a_binding_does_not_shadow_the_quadrature_variable(text, binding, want):
    for evaluate in (eval_numeric, _by_tanh_sinh):  # by the Beta rule, and by tanh-sinh
        got = evaluate(parse(text), binding, 20)
        assert abs(got - Decimal(want)) < Decimal("1E-19")


@pytest.mark.parametrize(
    "text, binding, message",
    [
        ("quad(x^x, 0, 1)", {"x": 3}, "exponent is not an exact rational in x\\^x"),
        ("quad(x^x, 0, 1)", {}, "exponent is not an exact rational in x\\^x"),
        ("quad(F(x), 0, 1)", {"x": 3}, "sequence argument is not an integer in F\\(x\\)"),
    ],
    ids=["exponent-x-bound", "exponent-x-unbound", "sequence-x-bound"],
)
def test_an_exponent_or_sequence_argument_that_reads_the_quadrature_variable_is_an_error(text, binding, message):
    with pytest.raises(DomainError, match=message):
        eval_numeric(parse(text), binding, 15)


def test_a_nested_quadrature_binds_its_bounds_to_the_outer_variable():
    e = parse("quad(quad(x, 0, x), 0, 1)")
    assert e == Quad(Quad(BoundVar(), IntLit(0), BoundVar()), IntLit(0), IntLit(1))
    assert abs(eval_numeric(e, {}, 20) - Decimal(1) / 6) < Decimal("1E-19")
    assert free_vars(e) == frozenset()
    text = format_expr(e)
    assert text == "quad(quad(x, 0, x), 0, 1)" and parse(text) == e


@pytest.mark.parametrize(
    "e, shown",
    [
        (BinOp("+", BoundVar(), IntLit(1)), "x + 1"),
        (Quad(IntLit(1), IntLit(0), BoundVar()), "quad(1, 0, x)"),  # a bound is outside its body
    ],
)
def test_the_quadrature_variable_outside_every_body_is_refused(e, shown):
    with pytest.raises(UnboundVariableError, match=re.escape(f"unbound variable 'x' in '{shown}'")):
        eval_numeric(e, {}, 10)


def test_a_stepping_evaluator_is_freed_when_dropped():
    # no reference cycle runs through a stepped term's closure, so the
    # evaluator and its caches go at once, not at the next cyclic collection
    import gc
    import weakref

    term = parse("C(n)*F(2*n+s)/4^n")
    evaluator = NumericEvaluator(20)
    evaluator.step(term, "n", term_ratio(term, "n", {"s": 1}))
    for n in range(5):
        evaluator.eval(term, {"n": n, "s": 1})
    gone = weakref.ref(evaluator)
    enabled = gc.isenabled()
    gc.disable()
    try:
        del evaluator
        assert gone() is None
    finally:
        if enabled:
            gc.enable()



def _nodes(e):
    yield e
    for child in children(e):
        yield from _nodes(child)


def _by_tanh_sinh(e, env, digits):
    """eval_numeric with the exact quadrature rules refused, so that every
    quadrature runs tanh-sinh: the oracle of the exact rules' tests."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(expr_module, "_exact_quad", lambda quad, env: None)
        return eval_numeric(e, env, digits)


@pytest.mark.parametrize("rid", ["s1.Cn.rep1", "s1.Cn.rep2", "s1.Cninv.rep", "s7.wallis.odd", "s7.wallis.even"])
def test_the_beta_rule_agrees_with_tanh_sinh_at_every_shipped_binding(rid):
    record = {r.id: r for r in builtin_registry()}[rid]
    (quad,) = [e for e in _nodes(record.rhs) if isinstance(e, Quad)]
    ((name, lo, hi),) = record.params
    for n in range(lo, hi + 1):
        exact = eval_exact_pi(quad, {name: n})
        value = pi_poly_decimal(exact, 60)
        gap = CTX.subtract(value, _by_tanh_sinh(quad, {name: n}, 40)).copy_abs()
        assert gap < value.scaleb(-39), (rid, n, str(exact), str(gap))


_SINE_MOMENT_RECORDS = ["s7.thm10", "s7.thm11", "s7.thm12", "s7.thm13", "s7.thm14"]


@pytest.mark.parametrize("rid", _SINE_MOMENT_RECORDS)
def test_the_sine_moment_rhs_agrees_with_tanh_sinh_at_every_shipped_binding(rid):
    record = {r.id: r for r in builtin_registry()}[rid]
    ((name, lo, hi),) = record.params
    exact_rows = 0
    for r in range(lo, hi + 1):
        exact = eval_exact_pi(record.rhs, {name: r})
        if exact is None:  # x^2/sin(x) at r = -1, x/sin(x) at r = 0
            assert (rid, r) in (("s7.thm12", -1), ("s7.thm13", 0))
            continue
        exact_rows += 1
        value = pi_poly_decimal(exact, 40)
        gap = CTX.subtract(value, _by_tanh_sinh(record.rhs, {name: r}, 40)).copy_abs()
        assert gap <= value.copy_abs().scaleb(-39), (rid, r, str(exact), str(gap))
    assert exact_rows == {"s7.thm12": 6, "s7.thm13": 5}.get(rid, hi - lo + 1)


@pytest.mark.parametrize(
    "text, binding, want",
    [
        ("quad(sin(x)^6, 0, pi/2)", {}, PiPoly.of(Fraction(5, 32), 1)),
        ("quad(x, 0, 1)", {"x": 3}, PiPoly.of(Fraction(1, 2))),  # the body's x, not the binding
        ("2*quad(sqrt(x)*(1 - x), 0, 1)/pi", {}, PiPoly.of(Fraction(8, 15), -1)),
    ],
)
def test_the_beta_rule_pinned_values(text, binding, want):
    assert eval_exact_pi(parse(text), binding) == want


@pytest.mark.parametrize(
    "text, want",
    [
        ("quad(sin(x)^4*sin(x/2), 0, pi/2)", "256/315 - 107/315*sqrt(2)"),
        ("quad(sin(x)^3*cos(x/2), 0, pi/2)", "32/35 - 9/35*sqrt(2)"),
        ("quad(x^2*sin(x)^5, 0, pi/2)", "-4144/3375 + 149/225*pi"),
        ("quad(x*sin(x)^3, 0, pi/2)", "7/9"),
        ("quad(x^2, 0, pi/2)", "1/24*pi^3"),
        ("quad(-3*x*cos(x/2)^3*sin(x/2), 0, pi/2)", "-3/4 - 3/32*pi"),
        ("quad(0*x*sin(x)^3, 0, pi/2)", "0"),
        ("quad(x*sin(x)^3, 0, 0)", "0"),
    ],
    ids=["sin4-sinhalf", "sin3-coshalf", "x2-sin5", "x-sin3", "x2", "x-cos3half-sinhalf", "zero", "empty"],
)
def test_the_sine_moment_pinned_values(text, want):
    value = eval_exact_pi(parse(text), {})
    assert str(value) == want and all(value.values())  # a zero coefficient is never kept


@given(
    j=st.integers(0, 2),
    m=st.integers(0, 8),
    half=st.sampled_from(["", "*sin(x/2)", "*cos(x/2)"]),
    r=st.fractions(max_denominator=50).filter(lambda r: r != 0 and abs(r) < 100),
)
@settings(max_examples=40, deadline=None)
def test_the_sine_moments_agree_with_tanh_sinh(j, m, half, r):
    e = parse(f"quad(({r})*x^{j}*sin(x)^{m}{half}, 0, pi/2)")
    exact = eval_exact_pi(e, {})
    assert exact is not None
    value, numeric = pi_poly_decimal(exact, 30), _by_tanh_sinh(e, {}, 30)
    assert abs(CTX.subtract(value, numeric)) <= value.copy_abs().scaleb(-29), (str(e), str(exact))


@pytest.mark.parametrize(
    "text",
    ["quad(x^(-1)*sqrt(4-x^2), 0, 2)", "quad(sin(x)^(-1), 0, pi/2)", "2*quad(x^3*(1-x)^(-3/2), 0, 1)"],
    ids=["B(0,3/2)", "B(0,1/2)", "B(4,-1/2)"],
)
def test_a_divergent_euler_form_raises_convergence_error(text):
    with pytest.raises(ConvergenceError, match="diverges"):
        eval_exact_pi(parse(text), {})
    # but not with r = 0, whose integrand is 0, nor on an empty interval
    assert eval_exact_pi(parse(text.replace("quad(", "quad(0*", 1)), {}) == PiPoly()
    assert eval_exact_pi(parse(re.sub(r", ([^,]*)\)$", ", 0)", text)), {}) == PiPoly()


def test_eval_numeric_takes_the_exact_quadrature_rules_before_tanh_sinh(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("tanh-sinh ran")

    monkeypatch.setattr(ar.quadrature, "tanh_sinh", refuse)
    with pytest.raises(ConvergenceError, match="diverges"):  # at once, not after 12 tanh-sinh levels
        eval_numeric(parse("quad(x^(-1)*sqrt(4-x^2), 0, 2)"), {}, 30)
    for text, binding in [("quad(x^2*sin(x)^5, 0, pi/2)", {}), ("n + 2*quad(sqrt(x)*(1 - x)^n, 0, 1)/pi", {"n": 3})]:
        e = parse(text)
        want = pi_poly_decimal(eval_exact_pi(e, binding), 40)
        assert abs(CTX.subtract(eval_numeric(e, binding, 40), want)) <= want.scaleb(-39), text
    monkeypatch.undo()
    # a body that fits no rule still runs tanh-sinh: x/sin(x), as in s7.lem7 and s7.thm13 at r = 0
    calls = []
    real = ar.quadrature.tanh_sinh
    monkeypatch.setattr(ar.quadrature, "tanh_sinh", lambda *args: calls.append(args) or real(*args))
    got = eval_numeric(parse("quad(x/sin(x), 0, pi/2)"), {}, 20)
    assert len(calls) == 1 and abs(got - Decimal("1.8319311883544380301")) < Decimal("1E-18")


@pytest.mark.parametrize(
    "text",
    [
        "quad(sqrt(2-x), 0, 2)",  # 2^(3/2) is irrational
        "quad(sqrt(4-x^2), 0, 1)",  # the bound misses the root 2
        "quad(sqrt(sin(x)), 0, pi/2)",  # G(3/4) is not taken exactly
        "quad(x/sin(x), 0, pi/2)",  # converges, but not a sine moment: x/sin(x) of s7.thm13 at r = 0
        "quad(x^2*sin(x)^(-1), 0, pi/2)",  # s7.thm12 at r = -1
        "quad(x/sin(x), 0, pi/6)",  # the Clausen rows
        "quad(x*sin(x)^3, 0, pi/3)",  # a sine moment on another interval
        "quad(x*cos(x), 0, pi/2)",  # cos(x) is not read
        "quad(sin(x)^(1/2)*cos(x/2), 0, pi/2)",  # not an integer power
        "quad(x*sin(x)^300, 0, pi/2)",  # past SINE_MOMENT_MAX_DEGREE
        "quad(x^x, 0, 1)",
        "quad(x^10001, 0, 1)",  # past BETA_MAX_EXPONENT
    ],
)
def test_the_beta_rule_leaves_other_quadratures_to_tanh_sinh(text):
    assert eval_exact_pi(parse(text), {"x": 3}) is None

def test_children_and_map_children():
    e = parse("F(2*n+s) + quad(x^n, 0, z)")
    seq, quad = children(e)
    assert children(seq) == seq.args
    assert [str(c) for c in children(quad)] == ["x^n", "0", "z"]
    assert children(parse("n")) == ()
    assert map_children(e, lambda c: c) == e
    assert str(map_children(parse("binom(n, s)"), lambda c: parse("k"))) == "binom(k, k)"
    with pytest.raises(TypeError):
        children(3)


def _registry_expressions():
    for record in builtin_registry():
        declared = {name for name, _, _ in record.params}
        lhs = record.lhs
        if isinstance(lhs, SeriesSpec):
            sides = [lhs.term]
            declared.add(lhs.index)
        elif isinstance(lhs, FiniteSpec):
            sides = [lhs.lower, lhs.upper, lhs.summand]
            declared.add(lhs.index)
        else:
            sides = [lhs]
        for e in sides + [record.rhs]:
            yield record.id, e, declared


def test_substitute_over_the_shipped_registry():
    checked = 0
    for rid, e, declared in _registry_expressions():
        for name in declared:
            assert name not in free_vars(substitute(e, name, 3)), (rid, name)
            checked += 1
        assert substitute(e, "absent", 3) == e, rid
    assert checked > 100


def test_eval_is_deterministic():
    e = parse("sqrt(alpha^3/sqrt5)*pi/5")
    a = eval_numeric(e, {}, 40)
    b = eval_numeric(e, {}, 40)
    assert str(a) == str(b)


def test_one_radical_evaluator():
    u, v = eval_one_radical(parse("sqrt(alpha)"), {})
    assert (u, v) == (QuadRat.of(1), QuadRat(Fraction(1, 2), Fraction(1, 2)))
    u, v = eval_one_radical(parse("alpha*sqrt(-beta)"), {})
    assert u == QuadRat(Fraction(1, 2), Fraction(1, 2))
    # sums of unlike radicals do not fit the one-radical form
    assert eval_one_radical(parse("sqrt(2) + sqrt(3)"), {}) is None
    # nested radicals do not fit either
    assert eval_one_radical(parse("sqrt(sqrt(alpha))"), {}) is None
    # zero is the form 0*sqrt(1), whatever radicand it came from
    assert eval_one_radical(parse("sqrt(n - 2)*sqrt(2)"), {"n": 2}) == (QuadRat.of(0), QuadRat.of(1))
    assert eval_one_radical(parse("sqrt(n - 2) + sqrt(3)"), {"n": 2}) == (QuadRat.of(1), QuadRat.of(3))


def test_numeric_domain_errors_point_at_subexpression():
    with pytest.raises(DomainError) as info:
        eval_numeric(parse("sqrt(1-n)"), {"n": 5}, 20)
    assert "sqrt(1 - n)" in str(info.value)
    with pytest.raises(UnboundVariableError):
        eval_numeric(parse("C(n)/5^n"), {}, 20)


@pytest.mark.parametrize("text", ["binom(n, 2)", "binom(n, -1)", "C(n)"])
def test_a_negative_sequence_index_is_a_domain_error_on_both_paths(text):
    with pytest.raises(DomainError, match="must be non-negative"):
        eval_numeric(parse(text), {"n": -2}, 20)
    with pytest.raises(DomainError, match="must be non-negative"):
        eval_exact_rational(parse(text), {"n": -2})


def _evaluator(digits):
    return NumericEvaluator(digits)


def test_compiled_errors_are_raised_at_the_failing_term():
    evaluator = _evaluator(20)
    e = parse("1/(n-2) + C(n/2)")
    assert evaluator.eval(e, {"n": 0}) == Decimal("0.5")  # -1/2 + C(0)
    with pytest.raises(ZeroDivisionError, match="division by zero in 1/\\(n - 2\\)"):
        evaluator.eval(e, {"n": 2})
    with pytest.raises(DomainError, match="sequence argument is not an integer in C\\(n/2\\)"):
        evaluator.eval(e, {"n": 3})
    assert evaluator.eval(e, {"n": 4}) == Decimal("2.5")  # 1/2 + C(2)
    with pytest.raises(UnboundVariableError):
        evaluator.eval(e, {"m": 4})
    # the parser refuses such an exponent; a hand-built tree reaches the check
    with pytest.raises(DomainError, match="exponent is not an exact rational"):
        evaluator.eval(Pow(IntLit(2), Fn("sqrt", Var("n"))), {"n": 4})


@pytest.mark.parametrize(
    "text, message",
    [
        ("(n-2)^(-2)", "zero base with negative exponent in (n - 2)^(-2)"),
        ("(n-2)^(-3/2)", "zero base with negative exponent in (n - 2)^(-3/2)"),
        ("(1/(n-2))^(-2)", "division by zero in 1/(n - 2)"),  # the base's own error
    ],
)
def test_a_zero_base_names_its_expression_on_both_paths(text, message):
    e = parse(text)
    with pytest.raises(ZeroDivisionError, match=re.escape(message)):
        eval_numeric(e, {"n": 2}, 20)
    if "/2" not in text:  # a rational power leaves Q
        with pytest.raises(ZeroDivisionError, match=re.escape(message)):
            eval_exact_rational(e, {"n": 2})


def test_one_evaluator_compiles_each_tree():
    shared, alone_a, alone_b = _evaluator(30), _evaluator(30), _evaluator(30)
    a, b = parse("C(n)/4^n"), parse("binom(2*n, n)*(1/3)^(n+1)*(n+1)")
    for n in (0, 1, 2, 7, 8):
        env = {"n": n}
        assert str(shared.eval(a, env)) == str(alone_a.eval(a, env))
        assert str(shared.eval(b, env)) == str(alone_b.eval(b, env))
    assert str(core.round_to(shared.eval(b, {"n": 1}), 30)) == str(eval_numeric(b, {"n": 1}, 30))
    got = _evaluator(25).eval(parse("quad(x^n*sin(x), 0, pi/2) + n"), {"n": 2})
    want = eval_numeric(parse("quad(x^2*sin(x), 0, pi/2) + 2"), {}, 25)
    assert str(core.round_to(got, 25)) == str(want)


_leaves = st.one_of(
    st.integers(-9, 9).map(IntLit),
    st.sampled_from(["n", "s"]).map(Var),
)


def _extend(children):
    return st.one_of(
        st.tuples(st.sampled_from("+-*"), children, children).map(
            lambda t: BinOp(t[0], t[1], t[2])
        ),
        children.map(Neg),
    )


_exprs = st.recursive(_leaves, _extend, max_leaves=10)


@settings(max_examples=500, deadline=None)
@given(_exprs, st.integers(-20, 20), st.integers(-20, 20))
def test_substitute_then_eval_equals_extended_env(e, n_val, s_val):
    substituted = substitute(substitute(e, "n", n_val), "s", s_val)
    direct = eval_exact_rational(substituted, {})
    via_env = eval_exact_rational(e, {"n": n_val, "s": s_val})
    assert direct == via_env


# exponents and sequence arguments stay small so the values stay small
_small_ints = st.one_of(
    st.integers(-3, 3).map(IntLit),
    st.just(Var("n")),
    st.just(BinOp("-", Var("n"), IntLit(2))),
    st.just(RatLit(Fraction(1, 2))),
)
_field_leaves = st.one_of(
    st.integers(-5, 5).map(IntLit),
    st.builds(lambda p, q: RatLit(Fraction(p, q)), st.integers(-5, 5), st.integers(2, 5)),
    st.just(Var("n")),
    st.sampled_from(["sqrt5", "alpha", "beta"]).map(Const),
    st.builds(lambda name, a: SeqCall(name, (a,)), st.sampled_from("CFL"), _small_ints),
    st.builds(lambda a, b: SeqCall("binom", (a, b)), _small_ints, _small_ints),
)
_field_exprs = st.recursive(
    _field_leaves,
    lambda sub: st.one_of(
        sub.map(Neg),
        st.builds(BinOp, st.sampled_from("+-*/"), sub, sub),
        st.builds(Pow, sub, _small_ints),
    ),
    max_leaves=12,
)


@settings(max_examples=500, deadline=None)
@given(_field_exprs, st.integers(0, 4))
def test_the_qsqrt5_walk_extends_the_rational_walk(e, n):
    try:
        q = eval_exact_rational(e, {"n": n})
    except (ZeroDivisionError, DomainError):
        return
    if q is not None:
        assert eval_exact_qsqrt5(e, {"n": n}) == QuadRat.of(q)


def _qr_decimal(q, ctx):
    def dec(f):
        return ctx.divide(Decimal(f.numerator), Decimal(f.denominator))

    return ctx.add(dec(q.a), ctx.multiply(dec(q.b), ar.sqrt5_decimal(ctx.prec)))


def _magnitude(q):
    return abs(float(q.a) + float(q.b) * 5**0.5)


@settings(max_examples=300, deadline=None)
@given(_field_exprs, st.integers(0, 4))
@example(parse("(3/4)^3 + 1/7"), 0)
@example(parse("C(6)*F(9) - L(4)^2"), 0)
@example(parse("binom(2*n,n)/(2*n+1)"), 5)
@example(parse("alpha^7 - beta^7"), 0)
@example(parse("(alpha^3 + beta^(-2))/sqrt5"), 0)
def test_exact_and_numeric_agree(e, n):
    # wherever the exact Q(sqrt5) value exists, the numeric walk rounds it
    # to the evaluator's precision, up to the rounding of the largest
    # value the walk meets on the way
    p, env = 30, {"n": n}
    try:
        exact = eval_exact_qsqrt5(e, env)
    except (ZeroDivisionError, DomainError):
        return
    if exact is None:
        return
    largest = max(_magnitude(eval_exact_qsqrt5(node, env)) for node in _nodes(e))
    unit = Decimal(1).scaleb(2 - p) * Decimal(max(1.0, largest))
    numeric = eval_numeric(e, env, p)
    assert CTX.subtract(numeric, _qr_decimal(exact, core.context(p + 40))).copy_abs() < unit


def test_one_radical_forms_agree_with_the_numeric_values_on_the_registry():
    ctx, checked = core.context(50), 0
    for record in builtin_registry():
        if record.kind not in ("algebraic", "radical"):
            continue
        axes = [[(name, v) for v in range(lo, hi + 1)] for name, lo, hi in record.params]
        for binding in map(dict, itertools.product(*axes)):
            for side in (record.lhs, record.rhs):
                form = eval_one_radical(side, binding)
                if form is None:
                    continue
                u, v = (_qr_decimal(q, ctx) for q in form)
                value = ctx.multiply(u, ar.sqrt(v, 50))
                numeric = eval_numeric(side, binding, 30)
                unit = Decimal(1).scaleb(max(value.adjusted(), 0) - 29)
                assert ctx.subtract(numeric, value).copy_abs() < unit, (record.id, binding)
                checked += 1
    assert checked > 1000


@pytest.mark.parametrize(
    "text",
    ["sqrt(alpha)^3", "(2*sqrt(3))^(-3)", "sqrt(5)^2/sqrt(2)", "-sqrt(alpha + 1)*sqrt(alpha)/alpha",
     "sqrt(sqrt(7)^2)", "3*sqrt(beta^2) - sqrt(beta^2)", "(sqrt(2)/alpha)^(-2)"],
)
def test_one_radical_rules_agree_with_the_numeric_value(text):
    ctx = core.context(50)
    u, v = (_qr_decimal(q, ctx) for q in eval_one_radical(parse(text), {}))
    value = ctx.multiply(u, ar.sqrt(v, 50))
    assert ctx.subtract(eval_numeric(parse(text), {}, 40), value).copy_abs() < Decimal("1E-38")


@settings(max_examples=300, deadline=None)
@given(_field_exprs, st.integers(0, 4))
def test_the_radical_forms_extend_the_qsqrt5_walk(e, n):
    # inside Q(sqrt5) a form is (value, 1), zero as (0, 1)
    try:
        exact = eval_exact_qsqrt5(e, {"n": n})
    except (ZeroDivisionError, DomainError):
        return
    if exact is not None:
        assert eval_one_radical(e, {"n": n}) == (exact, exactnum.ONE)


_positive_qsqrt5 = st.builds(
    QuadRat.of,
    st.fractions(-5, 5, max_denominator=3),
    st.fractions(-3, 3, max_denominator=3),
).filter(lambda q: q.sign() > 0)


def _literal(q):
    """The expression a + b*sqrt5 of a QuadRat."""
    return BinOp("+", RatLit(q.a), BinOp("*", RatLit(q.b), Const("sqrt5")))


_roots = _positive_qsqrt5.map(lambda q: Fn("sqrt", _literal(q)))
_radical_exprs = st.recursive(
    _roots,
    lambda sub: st.one_of(
        sub.map(Neg),
        st.builds(BinOp, st.sampled_from("*/"), sub, sub),
        st.builds(Pow, sub, st.integers(-3, 3).map(IntLit)),
    ),
    max_leaves=6,
)


@settings(max_examples=300, deadline=None)
@given(_radical_exprs)
@example(parse("(sqrt(2)/sqrt(9 - 4*sqrt5))^(-3)"))
def test_radical_products_quotients_and_powers_agree_with_the_numeric_value(e):
    # a power's a + b*sqrt5 may have far larger a and b than its value:
    # |a + b*sqrt5| * |a - b*sqrt5| is a nonzero norm, at least 1/(den a * den b)^2,
    # so taking u and v with twice as many more digits as a and b have loses nothing
    form = eval_one_radical(e, {})
    ctx = core.context(40 + 2 * sum(len(str(f)) for q in form for f in (q.a, q.b)))
    u, v = (_qr_decimal(q, ctx) for q in form)
    value = ctx.multiply(u, ar.sqrt(v, ctx.prec))
    # no sum is formed past the leaves, so the numeric walk is good relative to the value
    assert ctx.subtract(eval_numeric(e, {}, 30), value).copy_abs() <= value.copy_abs().scaleb(-26)


@settings(max_examples=200, deadline=None)
@given(_roots, _roots, st.sampled_from("+-"))
def test_a_sum_of_radicals_is_a_form_iff_their_radicands_differ_by_a_square(a, b, op):
    form = eval_one_radical(BinOp(op, a, b), {})
    (_, v), (_, w) = eval_one_radical(a, {}), eval_one_radical(b, {})
    if exactnum.qr_sqrt(w / v) is None:
        assert form is None
    else:
        assert form is not None


def _squares_and_signs(lhs, rhs) -> bool:
    """The rule the difference rule replaced, kept as an oracle: u*sqrt(v) =
    t*sqrt(w), v and w > 0, iff u^2 v = t^2 w and u, t have one sign."""
    (u, v), (t, w) = lhs, rhs
    return exactnum.qr_pow(u, 2) * v == exactnum.qr_pow(t, 2) * w and u.sign() == t.sign()


@settings(max_examples=200, deadline=None)
@given(_radical_exprs, _radical_exprs, _positive_qsqrt5, st.sampled_from(["other", "same", "negated"]))
def test_radical_sides_are_equal_iff_their_difference_is_the_zero_form(a, b, s, rhs_of):
    # rhs is b, or a (or -a) times sqrt(s^2)/s: the same value in an unlike form
    if rhs_of != "other":
        b = BinOp("/", BinOp("*", a if rhs_of == "same" else Neg(a), Fn("sqrt", _literal(s * s))), _literal(s))
    sides = engine.evaluate_sides(IdentityRecord("t.pair", "radical", "p", a, b, ()), {})
    assert sides.exact == _squares_and_signs(eval_one_radical(a, {}), eval_one_radical(b, {}))
    assert sides.exact == (rhs_of == "same") or rhs_of == "other"


@settings(max_examples=200, deadline=None)
@given(_positive_qsqrt5, _positive_qsqrt5, _positive_qsqrt5, st.sampled_from("+-"))
@example(QuadRat.of(2), QuadRat.of(2), QuadRat.of(1), "+")
@example(QuadRat.of(5), QuadRat.of(Fraction(1, 2), Fraction(1, 2)), QuadRat.of(1), "-")
def test_a_sum_of_like_radicals_agrees_with_the_numeric_value(v, s, c, op):
    # c*sqrt(v) op sqrt(v*s^2): the second radicand is the first times a square
    e = BinOp(op, BinOp("*", _literal(c), Fn("sqrt", _literal(v))), Fn("sqrt", _literal(v * s * s)))
    form = eval_one_radical(e, {})
    assert form is not None and (form[1] == v or form == (QuadRat.of(0), exactnum.ONE))
    ctx = core.context(40 + 2 * sum(len(str(f)) for q in form for f in (q.a, q.b)))
    u, root = _qr_decimal(form[0], ctx), ar.sqrt(_qr_decimal(v, ctx), ctx.prec)
    value = ctx.multiply(u, root)
    # the sum may cancel, so the numeric walk is good to 30 digits of its terms
    scale = ctx.multiply(ctx.add(_qr_decimal(c, ctx).copy_abs(), _qr_decimal(s, ctx)), root)
    assert ctx.subtract(eval_numeric(e, {}, 30), value).copy_abs() <= scale.scaleb(-28)


@pytest.mark.parametrize(
    "text, form",
    [
        ("sqrt(8) + sqrt(2)", (QuadRat.of(Fraction(3, 2)), QuadRat.of(8))),
        ("sqrt(2)*sqrt(2)*sqrt(3) + sqrt(3)", (QuadRat.of(Fraction(3, 2)), QuadRat.of(12))),
        ("sqrt(alpha^2*sqrt5) - alpha*sqrt(sqrt5)", (QuadRat.of(0), QuadRat.of(1))),
        ("2^(1/2)*2^(1/2)", (QuadRat.of(1), QuadRat.of(4))),
        ("5^(1/2)", (QuadRat.of(1), QuadRat.of(5))),
        ("alpha^(3/2)", (exactnum.ALPHA, exactnum.ALPHA)),
        ("4^(-3/2)", (QuadRat.of(Fraction(1, 16)), QuadRat.of(4))),  # 1/16*sqrt(4) = 1/8
    ],
)
def test_like_radicals_and_half_integer_powers_are_forms(text, form):
    assert eval_one_radical(parse(text), {}) == form


def test_half_integer_powers_keep_the_sqrt_rule_checks():
    assert eval_one_radical(parse("sqrt(2)^(1/2)"), {}) is None  # a nested radical
    assert eval_one_radical(parse("2^(1/3)"), {}) is None
    # outside the radical forms a half-integer exponent leaves the field
    assert eval_exact_qsqrt5(parse("4^(1/2)"), {}) is None
    with pytest.raises(DomainError, match=re.escape("sqrt of negative value -2 in (-2)^(3/2)")):
        eval_one_radical(parse("(-2)^(3/2)"), {})
    with pytest.raises(ZeroDivisionError, match=re.escape("zero base with negative exponent in (n - 2)^(-1/2)")):
        eval_one_radical(parse("(n-2)^(-1/2)"), {"n": 2})


def test_the_evaluator_and_eval_numeric_agree_on_sequences_and_powers():
    d, evaluator = 30, NumericEvaluator(30)
    for text, exact in [
        ("C(n)", lambda n: core.context(d + 5).plus(Decimal(exactnum.catalan(n)))),
        ("binom(2*n, n)", lambda n: core.context(d + 5).plus(Decimal(exactnum.binomial(2 * n, n)))),
        ("4^(2*n+2)", lambda n: core.context(d + 5).plus(Decimal(4 ** (2 * n + 2)))),
    ]:
        e = parse(text)
        for n in range(1001):  # the evaluator steps from n to n + 1
            stepped = core.round_to(evaluator.eval(e, {"n": n}), d)
            if n % 25 == 0:
                want = exact(n)
                assert stepped == eval_numeric(e, {"n": n}, d), (text, n)
                assert CTX.subtract(stepped, want).copy_abs() <= Decimal(1).scaleb(want.adjusted() + 1 - d)


def _series_rows():
    """(record, binding) of every shipped series binding."""
    for record in builtin_registry():
        if isinstance(record.lhs, SeriesSpec):
            axes = [[(name, v) for v in range(lo, hi + 1)] for name, lo, hi in record.params]
            for binding in map(dict, itertools.product(*axes)):
                yield record, binding


def test_term_ratio_is_the_exact_ratio_on_every_series_row():
    # t(n+1)/t(n) = P(n)/Q(n) * g(n+1)/g(n), g(n) = sum c*gamma^n over the
    # chains (g = 1 for a term without F or L), exactly in Q(sqrt5); an n
    # where t, P, Q or g is 0 is skipped.  The 407 rows are the 399 that
    # are not as printed and 8 that are, 2 of them algebraic-tail rows
    rows = list(_series_rows())
    assert len(rows) == 407 and sum(not record.as_printed for record, _ in rows) == 399
    assert sum(isinstance(record.tail, AlgebraicTail) for record, _ in rows) == 51
    checked = 0
    for record, binding in rows:
        spec = record.lhs
        ratio = term_ratio(spec.term, spec.index, binding)
        assert ratio is not None, record.id

        def g(n):
            return sum((c * exactnum.qr_pow(gamma, n) for c, gamma in ratio.chains), QuadRat.of(0))

        for n in [*range(spec.start, spec.start + 6), 1000]:
            t0, t1 = (eval_exact_qsqrt5(spec.term, {**binding, spec.index: m}) for m in (n, n + 1))
            p, q = ratio(n)
            g0, g1 = g(n), g(n + 1)
            if t0.is_zero() or not p or not q or g0.is_zero():
                continue
            assert t1 * QuadRat.of(q) * g0 == t0 * QuadRat.of(p) * g1, (record.id, binding, n)
            checked += 1
    # 44 skips where F(s*n + o) vanishes (t = g = 0), 33 at the zeros (P = Q = 0)
    assert checked == 7 * 407 - 44 - 33


@pytest.mark.parametrize(
    "term, ratios",
    [
        ("C(n)", {0: (1, 1), 1: (2, 1), 4: (42, 14)}),
        ("(-1)^(n-1)*n/4^n", {1: (-2, 4), 2: (-3, 8)}),
        ("(n-3)/(n+1)^3", {2: (0, 1), 4: (2 * 125, 216)}),
        ("binom(2*n+r, n)/2^(2*n)", {0: (5, 4), 3: (330, 84 * 4)}),
    ],
)
def test_term_ratio_values(term, ratios):
    ratio = term_ratio(parse_expression(term), "n", {"r": 3})
    for n, (p, q) in ratios.items():
        got = ratio(n)
        assert Fraction(*got) == Fraction(p, q), (term, n, got)


def test_term_ratio_exposes_its_cancelled_factors():
    # C(n+1)/(4 C(n)) = (2n+1)(2n+2)(n+1) / (4 (n+1)(n+1)(n+2)): one n+1 cancels
    ratio = term_ratio(parse_expression("C(n)/4^n"), "n", {})
    assert sorted(ratio.num) == [(2, 1), (2, 2)] and sorted(ratio.den) == [(1, 1), (1, 2)]
    assert ratio.const == Fraction(1, 4) and ratio.zeros == {-1}
    ratio = term_ratio(parse_expression("(n-3)/(n-3)"), "n", {})
    assert (ratio.num, ratio.den, ratio.const, ratio.zeros) == ((), (), 1, {2, 3})


def test_term_ratio_splits_fibonacci_and_lucas_into_binet_chains():
    alpha, beta, sqrt5 = exactnum.ALPHA, exactnum.BETA, exactnum.SQRT5
    ratio = term_ratio(parse_expression("C(n)*F(2*n+1)/4^n"), "n", {})
    assert set(ratio.chains) == {(alpha / sqrt5, alpha * alpha), (-beta / sqrt5, beta * beta)}
    assert Fraction(*ratio(3)) == Fraction(exactnum.catalan(4), 4 * exactnum.catalan(3))
    ratio = term_ratio(parse_expression("L(n+s)"), "n", {"s": 2})
    assert set(ratio.chains) == {(alpha * alpha, alpha), (beta * beta, beta)} and ratio(7) == (1, 1)
    # (alpha^n - beta^n)^2/5: three chains, alpha*beta = -1 in the middle one
    ratio = term_ratio(parse_expression("F(n)^2"), "n", {})
    assert dict((g, c) for c, g in ratio.chains) == {
        alpha * alpha: QuadRat.of(Fraction(1, 5)), QuadRat.of(-1): QuadRat.of(Fraction(-2, 5)),
        beta * beta: QuadRat.of(Fraction(1, 5)),
    }
    # F(n - 3) = 0 at n = 3: the step from 2 is left to the evaluator
    ratio = term_ratio(parse_expression("F(n-3)/4^n"), "n", {})
    assert ratio.zeros == {2} and ratio(2) == (0, 0) and ratio(4) == (1, 4)
    # a sum of chains with one gamma merges: F(n - n) = 0, F(1 + n - n) = 1
    assert term_ratio(parse_expression("F(n-n)"), "n", {}) is None
    assert term_ratio(parse_expression("F(1+n-n)*2^n"), "n", {}).chains == ((QuadRat.of(1), QuadRat.of(1)),)


@pytest.mark.parametrize(
    "term",
    [
        "4^n/F(n)",  # a Fibonacci divisor is not a sum of Binet chains
        "F(n)^(-2)",
        "n*n*n - 3*n*n + 2*n",  # reads 0, 0, 0 at n = 0, 1, 2 but is not linear
        "sqrt(n)",
        "2^(n*n)",
        "n^n",
        "binom(n, 2*n)",  # slopes sa < sb
        "C(-n)",
        "(n+s)/2",  # s is unbound
        "(n+1)^100000",  # past RATIO_MAX_FACTORS: left to the evaluator
        "binom(1000*n, n)",
        "2^(1000*n)",
    ],
)
def test_term_ratio_refuses_what_it_cannot_derive(term):
    assert term_ratio(parse_expression(term), "n", {}) is None


# the subset integer_poly reads: literals, names, negation, + - * and
# division by a nonzero literal
_nonzero_literals = st.one_of(
    st.integers(1, 9).map(IntLit),
    st.builds(lambda p, q: RatLit(Fraction(p, q)), st.integers(-5, 5).filter(bool), st.integers(2, 5)),
)
_poly_exprs = st.recursive(
    st.one_of(
        st.integers(-9, 9).map(IntLit),
        st.builds(lambda p, q: RatLit(Fraction(p, q)), st.integers(-5, 5), st.integers(2, 5)),
        st.sampled_from(["n", "s"]).map(Var),
    ),
    lambda sub: st.one_of(
        sub.map(Neg),
        st.builds(BinOp, st.sampled_from("+-*"), sub, sub),
        st.builds(lambda a, b: BinOp("/", a, b), sub, _nonzero_literals),
    ),
    max_leaves=10,
)


def _poly_value(p, env):
    value = Fraction(0)
    for monomial, c in p.items():
        for name in monomial:
            c *= env[name]
        value += c
    return value


@settings(max_examples=300, deadline=None)
@given(_poly_exprs, st.integers(-20, 20), st.integers(-20, 20))
@example(parse("n/3*3"), 4, 0)  # integral, with an inexact Decimal step
def test_the_one_polynomial_reading_agrees_with_the_exact_walk(e, n, s):
    env = {"n": n, "s": s}
    p = integer_poly(e)
    assert p is not None
    value = eval_exact_rational(e, env)
    assert _poly_value(p, env) == value
    if all(c.denominator == 1 for c in p.values()):
        assert NumericEvaluator(20).eval(e, env) == value
    if max((m.count("n") for m, c in p.items() if c), default=0) <= 1:
        t0, t1 = (eval_exact_rational(e, {"n": k, "s": s}) for k in (0, 1))
        if (t1 - t0).denominator == 1 and t0.denominator == 1:
            assert expr_module._linear(p, "n", {"s": s}) == (t1 - t0, t0)
        else:
            with pytest.raises(ValueError):
                expr_module._linear(p, "n", {"s": s})


def _coefficient_value(coefficients, x):
    return sum(a * x**d for d, a in enumerate(reversed(coefficients)))


@settings(max_examples=200, deadline=None)
@given(_poly_exprs, _poly_exprs, st.integers(-20, 20), st.integers(-20, 20))
def test_poly_arithmetic_agrees_with_fraction_evaluation(a, b, n, s):
    env = {"n": n, "s": s}
    pa, pb = integer_poly(a), integer_poly(b)
    va, vb = eval_exact_rational(a, env), eval_exact_rational(b, env)
    assert _poly_value(pa + pb, env) == va + vb
    assert _poly_value(pa - pb, env) == va - vb
    assert _poly_value(pa * pb, env) == va * vb
    # a difference keeps every monomial, so a name that cancels is still read
    assert (pa - pa).keys() == pa.keys() and not any((pa - pa).values())
    for name, other in (("n", "s"), ("s", "n")):
        coefficients = pa.coefficients(name, {other: env[other]})
        assert _coefficient_value(coefficients, env[name]) == va
        if any(other in m for m in pa):
            with pytest.raises(KeyError):
                pa.coefficients(name, {})


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(st.integers(-9, 9).filter(bool), st.integers(-20, 20)), max_size=8),
    st.integers(-9, 9).filter(bool),
    st.fractions(-30, 30, max_denominator=7),
)
def test_linear_product_agrees_with_multiplying_its_factors(factors, c, x):
    coefficients = linear_product(factors, c)
    assert len(coefficients) == len(factors) + 1
    want = c * math.prod(s * x + o for s, o in factors)
    assert _coefficient_value(coefficients, x) == want
    ratio = TermRatio(tuple(factors), (), Fraction(c), frozenset(), ())
    if x.denominator == 1:  # TermRatio evaluates P by Horner's rule
        assert ratio(int(x)) == (want, 1)


def test_a_cancelled_name_is_still_read():
    e = parse("n - n")
    assert integer_poly(e) == {("n",): 0}
    with pytest.raises(UnboundVariableError):
        eval_numeric(e, {}, 10)
    assert eval_numeric(e, {"n": 5}, 10) == 0
    with pytest.raises(UnboundVariableError):
        eval_numeric(parse("2^(n - n)"), {}, 10)


def test_a_constant_base_keeps_its_value_under_an_integer_and_a_rational_power():
    evaluator = NumericEvaluator(30)
    assert core.round_to(evaluator.eval(parse("(4 - 1)^2"), {}), 30) == 9
    root = core.round_to(evaluator.eval(parse("(4 - 1)^(5/2)"), {}), 30)
    assert root == core.round_to(ar.sqrt(Decimal(243), 40), 30)
    assert integer_poly(parse("(4 - 1)^2")) is None and integer_poly(parse("quad(x, 0, 1)").body) is None
