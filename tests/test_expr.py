from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fibcat import arbreal as ar
from fibcat.arbreal import core
from fibcat.errors import DomainError, SubstitutionError, UnboundVariableError
from fibcat.exactnum import QuadRat
from fibcat.expr import (
    BinOp,
    IntLit,
    Neg,
    Var,
    children,
    eval_exact_qsqrt5,
    eval_exact_rational,
    eval_numeric,
    eval_one_radical,
    free_vars,
    map_children,
    substitute,
)
from fibcat.seriesdsl import FiniteSpec, SeriesSpec, builtin_registry
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
    with pytest.raises(SubstitutionError):
        substitute(parse("quad(x^2, 0, 1)"), "x", 3)


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


def test_exact_and_numeric_agree():
    cases = [
        ("(3/4)^3 + 1/7", {}),
        ("C(6)*F(9) - L(4)^2", {}),
        ("binom(2*k,k)/(2*k+1)", {"k": 5}),
        ("alpha^7 - beta^7", {}),
        ("(alpha^3 + beta^(-2))/sqrt5", {}),
    ]
    p = 30
    for text, env in cases:
        e = parse(text)
        numeric = eval_numeric(e, env, p)
        exact = eval_exact_rational(e, env)
        if exact is None:
            q = eval_exact_qsqrt5(e, env)
            assert q is not None
            ctx = core.context(p + 20)
            exact_dec = ctx.add(
                ctx.divide(Decimal(q.a.numerator), Decimal(q.a.denominator)),
                ctx.multiply(
                    ctx.divide(Decimal(q.b.numerator), Decimal(q.b.denominator)),
                    ar.sqrt5_decimal(p + 20),
                ),
            )
        else:
            ctx = core.context(p + 20)
            exact_dec = ctx.divide(Decimal(exact.numerator), Decimal(exact.denominator))
        assert CTX.subtract(numeric, exact_dec).copy_abs() < Decimal(1).scaleb(-p + 2)


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


def test_numeric_domain_errors_point_at_subexpression():
    with pytest.raises(DomainError) as info:
        eval_numeric(parse("sqrt(1-n)"), {"n": 5}, 20)
    assert "sqrt(1 - n)" in str(info.value)
    with pytest.raises(UnboundVariableError):
        eval_numeric(parse("C(n)/5^n"), {}, 20)


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
