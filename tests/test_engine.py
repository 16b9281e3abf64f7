import functools
import itertools
from decimal import Decimal
from fractions import Fraction

import pytest

from fibcat import arbreal as ar
from fibcat import cli, engine, exactnum, expr
from fibcat.arbreal import core
from fibcat.errors import ConvergenceError, TailBoundViolation
from fibcat.exactnum import Radical
from fibcat.expr import BinOp, NumericEvaluator, RatLit, term_ratio
from fibcat.seriesdsl import (
    AlgebraicTail,
    GeometricTail,
    builtin_registry,
    format_expr,
    parse_expression,
    parse_registry,
    parse_tail,
)

CTX = core.context(80)


@pytest.fixture(scope="module")
def records():
    return {r.id: r for r in builtin_registry()}


def spec_of(records, rid):
    return records[rid].lhs


def test_sum_geometric_gf_value(records):
    record = records["s2.G.z15"]
    res = engine.sum_series(record.lhs, {}, record.tail, 40)
    want = engine.eval_numeric(record.rhs, {}, 50)
    assert res.strategy == "geometric"
    assert CTX.subtract(res.value, want).copy_abs() < Decimal("1E-40")
    assert res.tail_bound < Decimal("1E-40")


def test_sum_geometric_euler_value(records):
    record = records["s5.Y.euler"]
    res = engine.sum_series(record.lhs, {}, record.tail, 40)
    pi = ar.const_pi(60)
    want = CTX.divide(CTX.multiply(pi, pi), 18)
    assert CTX.subtract(res.value, want).copy_abs() < Decimal("1E-40")


def test_sum_algebraic_boundary_value(records):
    record = records["s2.Gt.pi2"]
    res = engine.sum_series(record.lhs, {}, record.tail, 10)
    assert res.strategy == "algebraic"
    assert CTX.subtract(res.value, Decimal(2)).copy_abs() < Decimal("1E-10")
    assert res.terms_used <= 10**5


def test_algebraic_extrapolation_is_stable(records):
    # the last inter-row Richardson gap must sit below the class target
    for rid in ("s2.Gt.pi2", "s4.Wt.pi2", "s5.Y.z4", "s7.thm13.r0"):
        record = records[rid]
        res = engine.sum_series(record.lhs, {}, record.tail, 10)
        assert res.tail_bound < Decimal("1E-10"), (rid, str(res.tail_bound))


def test_tail_bound_violation_is_raised_not_wrong(records):
    record = records["s2.G.z15"]
    bad_tail = GeometricTail(Fraction(1, 2), 1)  # true term ratio tends to 4/5
    with pytest.raises(TailBoundViolation) as info:
        engine.sum_series(record.lhs, {}, bad_tail, 30)
    assert info.value.n >= 1
    assert info.value.observed > Fraction(1, 2)


def test_geometric_tail_soundness_all_shipped(records):
    # a 40-digit sum, which takes more terms, must lie within the reported
    # tail bound of the 20-digit sum, for every shipped geometric record
    for record in records.values():
        if not isinstance(record.tail, GeometricTail) or record.kind != "series":
            continue
        binding = {name: (lo + hi) // 2 for name, lo, hi in record.params}
        first = engine.sum_series(record.lhs, binding, record.tail, 20)
        closer = engine.sum_series(record.lhs, binding, record.tail, 40)
        assert closer.terms_used > first.terms_used, record.id
        moved = CTX.subtract(first.value, closer.value).copy_abs()
        assert moved <= first.tail_bound, record.id


def _exact(record, binding):
    sides = engine.evaluate_sides(record, binding)
    return sides.exact, sides.lhs, sides.rhs


def test_finite_check_contract_values(records):
    ok, lhs, rhs = _exact(records["s7.id1"], {"n": 2})
    assert ok and lhs == rhs == Fraction(14, 3)
    ok, lhs, rhs = _exact(records["s7.id2"], {"n": 1})
    assert ok and lhs == rhs == Fraction(4, 3)
    ok, lhs, rhs = _exact(records["s7.parker"], {"n": 2})
    assert ok and lhs == rhs == Fraction(5, 3)


def test_algebraic_check_lemma_instances(records):
    for rid, r in (("s2.lem4.plus", 3), ("s6.lem6.plus", 0), ("s4.lem5.plus", 0)):
        sides = engine.evaluate_sides(records[rid], {"r": r})
        assert sides.exact and sides.lhs == sides.rhs and isinstance(sides.lhs, exactnum.QuadRat), rid
        assert sides.diff == 0 and sides.detail == "", rid


def test_algebraic_routes_to_radical_when_not_representable(records):
    record = records["s2.lem4.plus"]
    surd = record.replace(rhs=parse_expression("sqrt((alpha*F(r-2) + F(r+1))^2)"))
    sides = engine.evaluate_sides(surd, {"r": 2})
    # the forms 2 and 1*sqrt(4) differ by the zero form
    assert (sides.lhs, sides.rhs) == (Radical.of(2), Radical(exactnum.ONE, exactnum.QuadRat.of(4)))
    assert sides.exact and sides.detail == "routed to radical check"
    results = engine.verify_identity(surd, engine.VerifyConfig(param_ranges={"r": (2, 2)}))
    assert results[0].status == "pass"
    assert "radical" in results[0].detail


def test_radical_check_lemma_and_sign_control(records):
    for rid in ("s2.lem3.sqrt.alpha", "s2.lem3.sqrt.alpha.sqrt5"):
        sides = engine.evaluate_sides(records[rid], {})
        assert isinstance(sides.lhs, Radical) and sides.lhs - sides.rhs == Radical.of(0), rid
        assert sides.exact and sides.lhs**2 == sides.rhs**2 and sides.detail == "", rid
    corrupted = records["s2.lem3.sqrt.alpha"].replace(rhs=parse_expression("-(alpha*sqrt(-beta))"))
    sides = engine.evaluate_sides(corrupted, {})
    # the squares agree and the signs do not: the difference is 2 lhs, not zero
    assert sides.lhs**2 == sides.rhs**2 and sides.lhs - sides.rhs == Radical.of(2) * sides.lhs
    assert not sides.exact


def test_a_radical_record_inside_q_sqrt5_is_compared_exactly(records):
    binet = records["s1.binet.F"]
    record = binet.replace(id="t.radical", kind="radical")
    sides = engine.evaluate_sides(record, {"r": 4})
    assert (sides.exact, type(sides.lhs), sides.diff) == (True, exactnum.QuadRat, 0)
    assert sides.lhs == sides.rhs == engine.evaluate_sides(binet, {"r": 4}).lhs
    off = record.replace(rhs=BinOp("+", record.rhs, RatLit(Fraction(1, 10**6))))
    sides = engine.evaluate_sides(off, {"r": 4})
    assert (sides.exact, type(sides.lhs)) == (False, exactnum.QuadRat)
    assert abs(sides.diff - Decimal("1E-6")) < Decimal("1E-18")  # the gap at RADICAL_SIGN_DIGITS


def test_a_radical_division_by_zero_names_the_expression():
    record = _record('id = "t.pole" kind = "radical" paper = "p" lhs = "sqrt(alpha)/(r-2)" rhs = "1" params = "r=2"')
    (row,) = engine.verify_identity(record)
    assert row.status == "error"
    assert row.detail == "ZeroDivisionError: division by zero in sqrt(alpha)/(r - 2)"


def test_failed_radical_row_evaluates_each_side_once(records, monkeypatch):
    corrupted = records["s2.lem3.sqrt.alpha"].replace(rhs=parse_expression("-(alpha*sqrt(-beta))"))
    calls, evaluate = [], engine.eval_numeric

    def counting(e, env, digits):
        calls.append(digits)
        return evaluate(e, env, digits)

    monkeypatch.setattr(engine, "eval_numeric", counting)
    (row,) = engine.verify_identity(corrupted)
    assert row.status == "fail"
    assert calls == [engine.RADICAL_SIGN_DIGITS] * 2  # the gap's values, one per side
    lhs = evaluate(corrupted.lhs, {}, engine.RADICAL_SIGN_DIGITS)
    assert row.abs_diff == core.context(30).subtract(lhs, -lhs).copy_abs()
    assert str(row.abs_diff) == "2.5440392990281379286"  # 2*sqrt(alpha) at 20 digits


def test_the_radical_rows_are_decided_without_a_numeric_value(records, monkeypatch):
    def refused(*args):
        raise AssertionError("a passing radical row evaluated a side numerically")

    monkeypatch.setattr(engine, "eval_numeric", refused)
    for rid in ("s2.lem3.sqrt.alpha", "s2.lem3.sqrt.alpha.sqrt5"):
        (row,) = engine.verify_identity(records[rid])
        assert (row.status, row.abs_diff) == ("pass", 0), rid


def test_a_negative_radicand_is_an_error_row_that_names_it():
    (row,) = engine.verify_identity(_record('id = "t.neg" kind = "radical" paper = "p" lhs = "sqrt(-alpha)" rhs = "alpha"'))
    assert row.status == "error"
    assert row.detail == "DomainError: sqrt of negative value -1/2 - 1/2*sqrt5 in sqrt(-alpha)"


@pytest.mark.parametrize(
    "lhs, rhs",
    [
        ("sqrt(8) + sqrt(2)", "3*sqrt(2)"),
        ("sqrt(2)*sqrt(2)*sqrt(3) + sqrt(3)", "3*sqrt(3)"),
        ("sqrt(alpha^2*sqrt5) - alpha*sqrt(sqrt5)", "0"),
        ("2^(1/2)*2^(1/2)", "2"),
        ("5^(1/2)", "sqrt5"),
        ("alpha^(3/2)", "alpha*sqrt(alpha)"),
    ],
)
def test_like_radicals_and_half_integer_powers_pass(lhs, rhs):
    (row,) = engine.verify_identity(_record(f'id = "t.r" kind = "radical" paper = "p" lhs = "{lhs}" rhs = "{rhs}"'))
    assert (row.status, row.abs_diff) == ("pass", 0), row.detail


def test_a_half_integer_power_of_a_negative_base_is_an_error_row_that_names_it():
    (row,) = engine.verify_identity(_record('id = "t.neg" kind = "radical" paper = "p" lhs = "(-alpha)^(1/2)" rhs = "1"'))
    assert row.status == "error"
    assert row.detail == "DomainError: sqrt of negative value -1/2 - 1/2*sqrt5 in (-alpha)^(1/2)"


def test_a_sum_of_radicals_whose_square_leaves_q_sqrt5_stays_an_error_row():
    # 2 + sqrt2 is no form u*sqrt(v): its square 6 + 4*sqrt2 is not in Q(sqrt5)
    record = _record('id = "t.out" kind = "radical" paper = "p" lhs = "sqrt(2)*sqrt(2) + sqrt(2)" rhs = "2 + sqrt(2)"')
    (row,) = engine.verify_identity(record)
    assert (row.status, row.detail) == ("error", "UnsupportedRecordError: t.out: a side is no form u*sqrt(v) over Q(sqrt5)")
    (row,) = engine.verify_identity(record.replace(lhs=parse_expression("sqrt(2) + sqrt(3)")))
    assert row.status == "error"


def test_verify_identity_euler_at_50(records):
    res = engine.verify_identity(records["s5.Y.euler"])
    assert len(res) == 1 and res[0].status == "pass"
    assert res[0].abs_diff < Decimal("1E-50")
    assert res[0].digits_requested == 50


def test_verify_identity_algebraic_particular(records):
    res = engine.verify_identity(records["s7.thm12.r0"])
    assert res[0].status == "pass"
    assert res[0].digits_achieved >= 10
    assert res[0].terms_used <= 10**5


def test_verify_identity_printed_misses_first_term(records):
    res = engine.verify_identity(records["s2.G2t.sqrt2.printed"])
    assert res[0].status == "fail"
    assert CTX.subtract(res[0].abs_diff, 1).copy_abs() < Decimal("1E-10")


def test_verify_all_ordering_and_empty():
    empty = engine.verify_all([])
    assert empty.results == () and empty.counts == {"pass": 0, "fail": 0, "error": 0}


def test_verify_all_deterministic(records):
    subset = [records[rid] for rid in ("s5.Y.euler", "s1.binet.F", "s7.parker")]
    config = engine.VerifyConfig(param_ranges={"r": (-5, 5), "n": (1, 20)})
    one = engine.verify_all(subset, config)
    two = engine.verify_all(subset, config)

    def strip(report):
        return [r.replace(seconds=0.0) for r in report.results]

    assert strip(one) == strip(two)
    ids = [r.record_id for r in one.results]
    assert ids == sorted(ids)


def test_param_subrange_filter(records):
    res = engine.verify_identity(
        records["s2.thm.CF"], engine.VerifyConfig(param_ranges={"s": (-2, 2)})
    )
    assert [dict(r.binding)["s"] for r in res] == [-2, -1, 0, 1, 2]
    assert all(r.status == "pass" for r in res)


def test_errors_become_rows_not_crashes(records):
    record = records["s5.Y.euler"]
    divergent = record.replace(tail=GeometricTail(Fraction(1, 5), 1))
    res = engine.verify_identity(divergent)
    assert res[0].status == "error"
    assert "TailBoundViolation" in res[0].detail


def test_geometric_term_cap_convergence_error(monkeypatch):
    # ratio declared just under one forces an astronomical term budget; the
    # cap is lowered so the sum stops after 1000 terms instead of 10^6
    monkeypatch.setattr(engine, "GEOMETRIC_TERM_CAP", 1000)
    record = next(r for r in builtin_registry() if r.id == "s2.Gt.pi2")
    slow = parse_tail("geometric ratio=999999/1000000 from=1")
    with pytest.raises(ConvergenceError, match="hit the 1000-term cap"):
        engine.sum_series(record.lhs, {}, slow, 50)


def test_perturbed_rhs_fails(records):
    bump = RatLit(Fraction(1, 10**6))
    for rid in ("s2.G.z15", "s5.Y.euler", "s1.lem1.sin.pi10"):
        record = records[rid]
        hurt = record.replace(rhs=BinOp("+", record.rhs, bump))
        res = engine.verify_identity(hurt)
        assert all(r.status == "fail" for r in res), rid


def test_binom_and_catalan_far_out_are_the_exact_integers_rounded_once():
    evaluator = NumericEvaluator(30)

    def rounded_once(n):
        return evaluator.ctx.plus(Decimal(n))

    far = evaluator.eval(parse_expression("binom(2*m, m)"), {"m": 10000})
    assert far == rounded_once(exactnum.binomial(20000, 10000))
    assert str(expr.eval_numeric(parse_expression("binom(20000, 10000)"), {}, 30)) == str(
        core.round_to(Decimal(exactnum.binomial(20000, 10000)), 30)
    )
    assert evaluator.eval(parse_expression("binom(1000, 3)"), {}) == Decimal(166167000)
    edges = [evaluator.eval(parse_expression(f"binom(500, {b})"), {}) for b in (0, 500)]
    assert edges == [1, 1]
    cold = evaluator.eval(parse_expression("C(n)"), {"n": 20000})
    assert cold == rounded_once(exactnum.catalan(20000))
    assert expr.eval_numeric(parse_expression("C(20000)"), {}, 30) == core.round_to(
        Decimal(exactnum.catalan(20000)), 30
    )


def test_evaluate_sides_numeric_and_exact(records):
    sides = engine.evaluate_sides(records["s2.G.z15"], {}, 30)
    assert sides.exact is None and sides.strategy == "geometric" and sides.terms > 0
    assert sides.diff < Decimal("1E-29")
    sides = engine.evaluate_sides(records["s7.id1"], {"n": 3}, None)
    assert (sides.exact, sides.lhs, sides.rhs) == (True, Fraction(118, 15), Fraction(118, 15))
    sides = engine.evaluate_sides(records["s2.lem3.sqrt.alpha"], {})
    assert isinstance(sides.lhs, Radical) and sides.exact


@pytest.mark.parametrize("rid", ["s2.G.z15", "s1.lem1.sin.pi10", "s7.wallis.odd", "s7.thm10", "s7.lem7.pi6"])
def test_evaluate_sides_defaults_to_the_working_digits_of_verify(records, rid):
    record = records[rid]
    binding = engine.bindings(record, engine.VerifyConfig())[0]
    assert engine.evaluate_sides(record, binding) == engine.checker(record)(binding)[0]


@pytest.mark.parametrize("digits", [-60, -5, 0])
def test_digits_below_one_are_refused(records, digits):
    # -5 made the misprint pass (tolerance 10^5), -60 gave error rows, 0 meant 50
    with pytest.raises(ValueError, match="at least 1"):
        engine.VerifyConfig(digits=digits)
    with pytest.raises(ValueError, match="at least 1"):
        engine.evaluate_sides(records["s2.G2t.pi3.printed"], {}, digits)


@pytest.mark.parametrize("digits", [-5, 0])
def test_sum_series_and_eval_numeric_refuse_digits_below_one(records, digits):
    # sum_series at 0 digits returned 0.5 after one term; eval_numeric raised
    # the decimal module's own "valid range for prec"
    euler = records["s5.Y.euler"]
    with pytest.raises(ValueError, match="^digits must be at least 1"):
        engine.sum_series(euler.lhs, {}, euler.tail, digits)
    with pytest.raises(ValueError, match="^digits must be at least 1"):
        engine.eval_numeric(parse_expression("pi"), {}, digits)


def _record(text):
    parsed = parse_registry("[identity]\n" + text)
    assert not parsed.problems
    return parsed.records[0]


@pytest.mark.parametrize("params", ["n=0..2 s=1..2", "s=1..2 n=0..2"])
def test_finite_record_with_two_parameters(params):
    record = _record(
        f'id = "t.two" kind = "finite" paper = "p" index = "k" lower = "0" upper = "n"\n'
        f'term = "s" rhs = "s*(n+1)" params = "{params}"'
    )
    rows = engine.verify_identity(record)
    assert sorted(r.binding for r in rows) == sorted(
        (("n", n), ("s", s)) for n in range(3) for s in (1, 2)
    )
    assert [r.status for r in rows] == ["pass"] * 6, [r.detail for r in rows]
    ok, lhs, rhs = _exact(record, {"n": 2, "s": 2})
    assert ok and lhs == rhs == 6


def test_a_parameter_named_x_leaves_a_quadrature_body_alone():
    record = _record('id = "t.quad" kind = "integral" paper = "p" lhs = "quad(x, 0, 1)" rhs = "1/2" params = "x=3"')
    (row,) = engine.verify_identity(record)
    assert row.status == "pass", row.detail


def _deep_record(digits):
    # 1/(n+1)^2 to `digits` digits: the expansion's gap estimate bottoms out near 1e-81
    return _record(
        'id = "t.deep" kind = "series" paper = "p" index = "n" start = 0\n'
        f'term = "1/(n+1)^2" tail = "algebraic" rhs = "pi^2/6" digits = {digits}'
    )


def test_tail_gap_above_the_target_is_a_convergence_error():
    record = _deep_record(100)
    assert Decimal("1E-100") < engine.evaluate_sides(record, {}, 110).tail_bound < Decimal("1E-60")
    (row,) = engine.verify_identity(record)
    assert row.status == "error" and row.detail.startswith("ConvergenceError: algebraic tail estimate")
    assert row.detail.endswith("is not below 1E-100")


def test_digits_achieved_is_capped_by_the_tail_gap():
    record = _deep_record(80)
    gap = engine.evaluate_sides(record, {}, 90).tail_bound
    assert Decimal("1E-82") < gap < Decimal("1E-80")
    (row,) = engine.verify_identity(record)
    assert row.status == "pass" and row.abs_diff < Decimal("1E-85")
    assert row.digits_achieved == 81  # the gap's digits, below the diff's and target + guard


# sums taken with the first tree-walking evaluator, which walked every
# term; the stepped sums must give them digit for digit
def test_compiled_sums_match_the_tree_walker(records):
    record = records["s7.thm14"]
    res = engine.sum_series(record.lhs, {"r": 2}, record.tail, 20)
    # the tree walker's 65,536-term Richardson value, good to about 21 digits
    walked = Decimal("0.086953857420690623459230667577682")
    rhs = engine.eval_numeric(record.rhs, {"r": 2}, 40)
    assert res.terms_used == 400
    assert CTX.subtract(res.value, walked).copy_abs() < Decimal("1E-21")
    assert CTX.subtract(res.value, rhs).copy_abs() < Decimal("1E-30")
    record = records["s2.G.z15"]
    res = engine.sum_series(record.lhs, {}, record.tail, 60)
    assert res.terms_used == 585
    assert str(res.value) == (
        "1.381966011250105151795413165634361882279690820194237137864550977274789427851"
    )
    rhs = engine.eval_numeric(records["s7.thm10"].rhs, {"r": 2}, 40)
    assert str(rhs) == "0.008206011438920170546912423218080279997240"


def _series_record(term, tail="algebraic", start=0):
    return _record(
        f'id = "t.term" kind = "series" paper = "p" index = "n" start = {start}\n'
        f'term = "{term}" tail = "{tail}" rhs = "1"'
    )


def test_ratio_sum_through_a_zero_matches_the_direct_sum():
    # t(3) = 0: P(2) = 0 hands t(3) and then t(4) to the evaluator;
    # (n-3)/(n+1)^3 = 1/(n+1)^2 - 4/(n+1)^3 sums to zeta(2) - 4 zeta(3)
    record = _series_record("(n-3)/(n+1)^3", "algebraic")
    res = engine.sum_series(record.lhs, {}, record.tail, 20)
    want = engine.eval_numeric(parse_expression("pi^2/6 - 4*zeta3"), {}, 40)
    assert CTX.subtract(res.value, want).copy_abs() < Decimal("1E-28")
    assert res.terms_used == 400


@pytest.mark.parametrize(
    "term, shown",
    [
        ("1/((n-5)*(n+1)^2)", "1/((n - 5)*(n + 1)^2)"),
        ("(n-3)/(n-3)", "(n - 3)/(n - 3)"),  # the cancelled factor still hands n = 3 over
    ],
)
def test_a_pole_after_the_first_term_is_still_an_error_row(term, shown):
    record = _series_record(term, "algebraic")
    (row,) = engine.verify_identity(record)
    assert (row.status, row.detail) == ("error", f"ZeroDivisionError: division by zero in {shown}")


# ------------------------------------------------------------- the stepping loop


def _per_term_sum(spec, binding, digits, terms):
    """The first `terms` terms, each evaluated from its tree."""
    evaluator = NumericEvaluator(digits)  # never told the index: nothing is stepped
    total = Decimal(0)
    for n in range(spec.start, spec.start + terms):
        total = evaluator.ctx.add(total, evaluator.eval(spec.term, {**binding, spec.index: n}))
    return total


@pytest.mark.parametrize(
    "rid, binding, chains",
    [
        ("s2.G.z15", {}, 1),  # hypergeometric
        ("s2.thm.CF", {"s": -10}, 2),  # one F: F(2n - 10) = 0 at n = 5
        ("s2.thm.CF", {"s": 0}, 2),
        ("s2.thm.CF", {"s": 10}, 2),
        ("s2.thm.CL", {"s": 0}, 2),  # one L
        ("s3.sqF", {}, 3),  # F(n)^2
        ("s3.sqL", {}, 3),  # L(n)^2
    ],
)
def test_stepped_sums_match_per_term_sums(records, rid, binding, chains):
    spec, digits = records[rid].lhs, 50
    assert len(term_ratio(spec.term, spec.index, binding).chains) == chains
    res = engine.sum_series(spec, binding, records[rid].tail, digits)
    direct = _per_term_sum(spec, binding, digits, res.terms_used)
    assert CTX.subtract(res.value, direct).copy_abs() < Decimal(1).scaleb(-(digits + 5)), rid
    # the declared rounding allowance sits in the bound, far below the target
    assert Decimal(0) < res.tail_bound < Decimal(1).scaleb(-digits)


def test_one_evaluator_sums_a_binding_again_alike(records):
    # the second sum starts again from its first term with every chain, the
    # beta chain dropped during the first sum included
    record, binding = records["s2.thm.CF"], {"s": 3}
    spec = record.lhs
    alone = engine.sum_series(spec, binding, record.tail, 50)
    evaluator = NumericEvaluator(50)

    def stepped_sum():
        terms = itertools.islice(engine._terms(spec, binding, evaluator), alone.terms_used)
        return functools.reduce(evaluator.ctx.add, terms, Decimal(0))

    sums = []
    for _ in range(2):  # the evaluator stepped over the binding again
        evaluator.step(spec.term, spec.index, term_ratio(spec.term, spec.index, binding))
        sums += [stepped_sum(), stepped_sum()]  # and its terms read again without a new step
    assert sums == [alone.value] * 4


def test_a_zero_term_hands_the_next_term_to_the_evaluator():
    # t(0) = t(1) = 0: stepping from a zero would give 0 for ever;
    # sum binom(n, 2) x^n = x^2/(1 - x)^3 = 3/8 at x = 1/3
    record = _series_record("binom(n,2)/3^n", "geometric ratio=7/10 from=3")
    res = engine.sum_series(record.lhs, {}, record.tail, 40)
    assert CTX.subtract(res.value, Decimal("0.375")).copy_abs() < Decimal("1E-40")
    direct = _per_term_sum(record.lhs, {}, 40, res.terms_used)
    assert CTX.subtract(res.value, direct).copy_abs() < Decimal("1E-45")


def test_a_term_without_a_ratio_is_evaluated_term_by_term():
    record = _series_record("1/(2^n+1)", "geometric ratio=2/3")
    assert term_ratio(record.lhs.term, "n", {}) is None
    res = engine.sum_series(record.lhs, {}, record.tail, 30)
    assert res.value == _per_term_sum(record.lhs, {}, 30, res.terms_used)
    assert res.tail_bound < Decimal("1E-30")


def test_an_algebraic_tail_refuses_a_fibonacci_term():
    (row,) = engine.verify_identity(_series_record("F(n)/(n+1)^2/4^n"))
    assert row.status == "error"
    assert row.detail.startswith("UnsupportedRecordError: an algebraic tail needs a hypergeometric term")


# ------------------------------------------------------- asymptotic algebraic tail


@pytest.mark.parametrize(
    "term, closed_form",
    [("1/(n+1)^2", "pi^2/6"), ("(-1)^n/(n+1)", "ln(2)"), ("1/((n+1)*(n+2))", "1")],
)
def test_algebraic_tail_closed_forms_at_40_digits(term, closed_form):
    record = _series_record(term)
    res = engine.sum_series(record.lhs, {}, record.tail, 40)
    want = engine.eval_numeric(parse_expression(closed_form), {}, 60)
    assert CTX.subtract(res.value, want).copy_abs() < Decimal("1E-40"), str(res.value)
    assert res.tail_bound < Decimal("1E-40") and res.terms_used == 400


def test_algebraic_tail_far_offset_sums_past_its_factors():
    # 1/(n+1000)^2 from n = 1: its ratio's factors n+1000 and n+1001 move the
    # expansion point out to 8 * 1001
    record = _series_record("1/(n+1000)^2", start=1)
    res = engine.sum_series(record.lhs, {}, record.tail, 40)
    ctx = core.context(70)
    head = Decimal(0)
    for k in range(1, 1001):
        head = ctx.add(head, ctx.divide(1, k * k))
    want = ctx.subtract(engine.eval_numeric(parse_expression("pi^2/6"), {}, 60), head)
    assert res.terms_used == 8008 - 1
    assert CTX.subtract(res.value, want).copy_abs() < Decimal("1E-40")


def _coefficients(term, count):
    ratio = term_ratio(parse_expression(term), "n", {})
    return dict(itertools.islice(engine.tail_coefficients(ratio), count))


def test_tail_coefficients_lead_terms():
    # R = 1 - s/n + ...: c_-1 = 1/(s-1)
    assert _coefficients("1/(n+1)^2", 1) == {-1: 1}  # s = 2
    assert _coefficients("C(n)/4^n", 1) == {-1: 2}  # s = 3/2
    assert _coefficients("1/(n+1)^4", 1) == {-1: Fraction(1, 3)}
    # R -> -1: c_0 = 1/2; R -> 1/4: c_0 = 1/(1 - 1/4)
    assert _coefficients("(-1)^n/(n+1)", 1) == {0: Fraction(1, 2)}
    assert _coefficients("1/((n+1)*4^n)", 1) == {0: Fraction(4, 3)}
    # f(N) = T(N)/t(N) = N + 2 exactly for 1/((n+1)(n+2))
    assert _coefficients("1/((n+1)*(n+2))", 4) == {-1: 1, 0: 2, 1: 0, 2: 0}


@pytest.mark.parametrize(
    "term",
    ["1/(n+1)", "(-1)^n", "(-1)^n*(n+1)", "2^n/(n+1)^2", "1/(n*n+1)"],
)
def test_series_without_a_summable_tail_are_unsupported_rows(term):
    (row,) = engine.verify_identity(_series_record(term))
    assert row.status == "error" and row.detail.startswith("UnsupportedRecordError"), row.detail


def test_algebraic_tail_past_the_term_cap_is_a_convergence_error():
    record = _series_record("1/(n+1000000)^2")
    with pytest.raises(ConvergenceError, match="term cap"):
        engine.sum_series(record.lhs, {}, record.tail, 20)


def test_algebraic_tail_soundness_all_shipped(records, monkeypatch):
    # summing twice as many terms before the expansion must move the sum by
    # less than the reported gap, for every shipped algebraic-tail binding
    sums = [
        (record, binding, engine.sum_series(record.lhs, binding, record.tail, 20))
        for record in records.values()
        if isinstance(record.tail, AlgebraicTail)
        for binding in engine.bindings(record, engine.VerifyConfig())
    ]
    monkeypatch.setattr(engine, "TAIL_TERMS", 2 * engine.TAIL_TERMS)
    for record, binding, first in sums:
        double = engine.sum_series(record.lhs, binding, record.tail, 20)
        assert double.terms_used == 2 * first.terms_used, (record.id, binding)
        moved = CTX.subtract(first.value, double.value).copy_abs()
        assert moved <= first.tail_bound < Decimal("1E-20"), (record.id, binding)
    assert len(sums) == 51


def test_digits_moves_algebraic_series_but_not_integrals(records):
    config = engine.VerifyConfig(digits=40, param_ranges={"r": (0, 0), "n": (0, 0)})

    def target(rid):
        (row,) = engine.verify_identity(records[rid], config)
        return row.digits_requested

    assert target("s2.Gt.pi2") == 40
    assert target("s7.thm13") == engine.DIGITS_ALGEBRAIC
    assert target("s7.wallis.odd") == engine.DIGITS_INTEGRAL


def test_rows_carry_strategy_and_tail_bound(records):
    (row,) = engine.verify_identity(records["s2.Gt.pi2"])
    assert row.strategy == "algebraic" and Decimal(0) < row.tail_bound < Decimal("1E-10")
    (row,) = engine.verify_identity(records["s2.G.z15"])
    assert row.strategy == "geometric" and row.tail_bound < Decimal("1E-50")
    row = engine.verify_identity(records["s7.id1"], engine.VerifyConfig(param_ranges={"n": (2, 2)}))[0]
    assert row.strategy is None and row.tail_bound is None
    row = engine.verify_identity(records["s1.Cn.rep1"], engine.VerifyConfig(param_ranges={"n": (2, 2)}))[0]
    assert (row.status, row.strategy, row.tail_bound, row.digits_achieved, row.abs_diff) == ("pass", "beta", None, None, 0)
    assert cli._result_json(row)["strategy"] == "beta"


def _rewritten(record, side, old, new):
    text = format_expr(getattr(record, side))
    assert old in text, text
    return record.replace(**{side: parse_expression(text.replace(old, new))})


@pytest.mark.parametrize(
    "rid, side, old, new, gap_at_1",
    [
        ("s1.Cn.rep1", "rhs", "/(2*pi)", "/pi", "1"),
        ("s1.Cn.rep2", "rhs", "x^(2*n)", "x^(2*n + 2)", "1"),
        ("s7.wallis.even", "lhs", "pi*binom(2*n, n)/2^(2*n + 1)", "2^(2*n)/((2*n + 1)*binom(2*n, n))",
         "0.118731496730781642948994179153"),
    ],
)
def test_a_wrong_beta_identity_fails_by_proof(records, rid, side, old, new, gap_at_1):
    rows = engine.verify_identity(_rewritten(records[rid], side, old, new))
    assert len(rows) == 21
    # x^(2n+2) in place of x^(2n) is C(n+1) for C(n): right at n = 0 only
    wrong = rows[1:] if rid == "s1.Cn.rep2" else rows
    for row in wrong:
        assert (row.status, row.strategy, row.digits_achieved) == ("fail", "beta", None), row
        assert row.abs_diff > 0
    assert str(rows[1].abs_diff) == gap_at_1



@pytest.mark.parametrize(
    "lhs, rhs",
    [
        ("quad(sqrt(2-x), 0, 2)", "4*sqrt(2)/3"),
        ("quad(sqrt(4-x^2), 0, 1)", "sqrt(3)/2 + pi/3"),
        ("quad(x*cos(x), 0, pi/2)", "pi/2 - 1"),
    ],
)
def test_a_quadrature_outside_the_beta_rule_stays_on_tanh_sinh(lhs, rhs):
    (row,) = engine.verify_identity(_record(f'id = "t.q" kind = "integral" paper = "p" lhs = "{lhs}" rhs = "{rhs}"'))
    assert (row.status, row.strategy, row.digits_achieved) == ("pass", None, 40), row


def _no_tanh_sinh(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("tanh-sinh ran")

    monkeypatch.setattr(ar.quadrature, "tanh_sinh", refuse)


@pytest.mark.parametrize(
    "rhs, status",
    [("-4144/3375 + 149*pi/225", "pass"), ("-4144/3375 + 149*pi/225 + 1/10^40", "fail")],
    ids=["right", "off-by-1e-40"],
)
def test_a_sine_moment_integral_row_is_decided_exactly(monkeypatch, rhs, status):
    _no_tanh_sinh(monkeypatch)
    text = f'id = "t.q" kind = "integral" paper = "p" lhs = "quad(x^2*sin(x)^5, 0, pi/2)" rhs = "{rhs}"'
    (row,) = engine.verify_identity(_record(text))
    assert (row.status, row.strategy, row.digits_achieved) == (status, "beta", None), row
    assert str(row.abs_diff) == ("0" if status == "pass" else "1E-40")


def test_a_quadrature_with_a_zero_coefficient_is_exactly_zero(monkeypatch):
    _no_tanh_sinh(monkeypatch)
    zero = "quad(0*x*sin(x)^3, 0, pi/2)"
    (row,) = engine.verify_identity(_record(f'id = "t.q" kind = "integral" paper = "p" lhs = "{zero}" rhs = "0"'))
    assert (row.status, row.strategy, str(row.abs_diff)) == ("pass", "beta", "0"), row
    series = 'index = "n" start = 1 term = "1/n^2" tail = "algebraic"'
    (row,) = engine.verify_identity(_record(f'id = "t.s" kind = "integral" paper = "p" {series} rhs = "pi^2/6 + {zero}"'))
    assert (row.status, row.detail) == ("pass", engine.EXACT_RHS), row


def test_the_sine_moment_series_rows_take_no_quadrature(monkeypatch, records):
    _no_tanh_sinh(monkeypatch)
    config = engine.VerifyConfig(param_ranges={"r": (2, 2)})
    for rid in ("s7.thm10", "s7.thm11", "s7.thm12", "s7.thm13", "s7.thm14"):
        (row,) = engine.verify_identity(records[rid], config)
        assert (row.status, row.strategy, row.detail) == ("pass", "algebraic", engine.EXACT_RHS), row
        assert row.digits_achieved >= engine.DIGITS_ALGEBRAIC
        assert engine.EXACT_RHS in cli._report_text(engine.VerificationReport((row,)))
        assert cli._result_json(row)["detail"] == engine.EXACT_RHS


def test_a_series_row_with_a_quadrature_outside_both_rules_keeps_tanh_sinh(records):
    config = engine.VerifyConfig(param_ranges={"r": (0, 0)})
    (row,) = engine.verify_identity(records["s7.thm13"], config)  # x/sin(x)
    assert (row.status, row.detail) == ("pass", ""), row


@pytest.mark.parametrize(
    "lhs",
    ["quad(x^(-1)*sqrt(4-x^2), 0, 2)", "quad(sin(x)^(-1), 0, pi/2)"],
    ids=["B(0,3/2)", "B(0,1/2)"],
)
def test_a_divergent_euler_form_is_a_convergence_error_row_at_once(monkeypatch, lhs):
    _no_tanh_sinh(monkeypatch)
    rows = engine.verify_identity(_record(f'id = "t.d" kind = "integral" paper = "p" lhs = "{lhs}" rhs = "1"'))
    assert rows[0].status == "error" and rows[0].detail.startswith("ConvergenceError: "), rows[0]
    assert "diverges" in rows[0].detail and engine.exit_code(rows) == 3
    # a series record whose rhs is such a quadrature gives the same row
    series = 'index = "n" start = 1 term = "1/n^2" tail = "algebraic"'
    text = f'id = "t.s" kind = "integral" paper = "p" {series} rhs = "{lhs}"'
    (row,) = engine.verify_identity(_record(text))
    assert row.status == "error" and row.detail.startswith("ConvergenceError: ") and "diverges" in row.detail


def test_a_divergent_euler_form_on_the_rhs_fails_at_once_beside_a_numeric_lhs(monkeypatch):
    # x/sin(x) lies outside Q(sqrt2)[pi, 1/pi]; the rhs is still read there first
    _no_tanh_sinh(monkeypatch)
    sides = 'lhs = "quad(x/sin(x), 0, pi/2)" rhs = "quad(sin(x)^(-1), 0, pi/2)"'
    text = f'id = "t.d" kind = "integral" paper = "p" digits = 5 {sides}'
    rows = engine.verify_identity(_record(text))
    assert rows[0].status == "error" and rows[0].detail.startswith("ConvergenceError: "), rows[0]
    assert "Euler Beta form B(0, 1/2)" in rows[0].detail and engine.exit_code(rows) == 3


def test_an_algebraic_tail_derives_its_term_ratio_once_per_binding(monkeypatch, records):
    # and so does a geometric tail: sum_series derives it for both
    calls = []
    real = expr.term_ratio

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(expr, "term_ratio", counted)
    for rid, name in (("s7.thm13", "r"), ("s2.thm.CF", "s")):
        calls.clear()
        rows = engine.verify_identity(records[rid], engine.VerifyConfig(param_ranges={name: (1, 3)}))
        assert [row.status for row in rows] == ["pass"] * 3, rid
        assert [args[2] for args in calls] == [{name: 1}, {name: 2}, {name: 3}], rid


def test_verdict_of_exact_and_numeric_sides():
    assert engine.verdict(engine.Sides(1, 1, exact=True), None) == ("pass", None)
    assert engine.verdict(engine.Sides(1, 2, exact=False), None) == ("fail", None)
    one = Decimal(1)
    assert engine.verdict(engine.Sides(one, one, diff=Decimal("1E-15")), 10) == ("pass", 14)
    assert engine.verdict(engine.Sides(one, one, diff=Decimal("1E-5")), 10) == ("fail", 4)
    gapped = engine.Sides(one, one, diff=Decimal(0), strategy="algebraic", tail_bound=Decimal("1E-12"))
    assert engine.verdict(gapped, 10) == ("pass", 11)
    with pytest.raises(ConvergenceError, match="algebraic tail estimate 1.00E-12 is not below 1E-12"):
        engine.verdict(gapped, 12)
