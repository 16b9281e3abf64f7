import dataclasses
from decimal import Decimal
from fractions import Fraction

import pytest

from fibcat import arbreal as ar
from fibcat import engine
from fibcat.arbreal import core
from fibcat.errors import ConvergenceError, TailBoundViolation
from fibcat.expr import BinOp, RatLit
from fibcat.seriesdsl import GeometricTail, builtin_registry, parse_expression, parse_tail

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
    # doubling the number of terms must move the sum by less than the
    # reported tail bound, for every shipped geometric record
    for record in records.values():
        if not isinstance(record.tail, GeometricTail) or record.kind != "series":
            continue
        binding = {name: (lo + hi) // 2 for name, lo, hi in record.params}
        first = engine.sum_series(record.lhs, binding, record.tail, 20)
        double = engine.sum_series(
            record.lhs, binding, record.tail, 20, force_terms=2 * first.terms_used
        )
        moved = CTX.subtract(first.value, double.value).copy_abs()
        assert moved <= first.tail_bound, record.id


def test_finite_check_contract_values(records):
    ok, lhs, rhs = engine.finite_check(records["s7.id1"], 2)
    assert ok and lhs == rhs == Fraction(14, 3)
    ok, lhs, rhs = engine.finite_check(records["s7.id2"], 1)
    assert ok and lhs == rhs == Fraction(4, 3)
    ok, lhs, rhs = engine.finite_check(records["s7.parker"], 2)
    assert ok and lhs == rhs == Fraction(5, 3)


def test_algebraic_check_lemma_instances(records):
    ok, lhs, rhs = engine.algebraic_check(records["s2.lem4.plus"], {"r": 3})
    assert ok and lhs == rhs
    ok, _, _ = engine.algebraic_check(records["s6.lem6.plus"], {"r": 0})
    assert ok
    ok, _, _ = engine.algebraic_check(records["s4.lem5.plus"], {"r": 0})
    assert ok


def test_algebraic_routes_to_radical_when_not_representable(records):
    record = records["s2.lem4.plus"]
    surd = dataclasses.replace(record, rhs=parse_expression("sqrt((alpha*F(r-2) + F(r+1))^2)"))
    assert engine.algebraic_check(surd, {"r": 2}) is None
    results = engine.verify_identity(surd, engine.VerifyConfig(param_ranges={"r": (2, 2)}))
    assert results[0].status == "pass"
    assert "radical" in results[0].detail


def test_radical_check_lemma_and_sign_control(records):
    ok, sq_l, sq_r = engine.radical_check(records["s2.lem3.sqrt.alpha"], {})
    assert ok and sq_l == sq_r
    ok, _, _ = engine.radical_check(records["s2.lem3.sqrt.alpha.sqrt5"], {})
    assert ok
    corrupted = dataclasses.replace(
        records["s2.lem3.sqrt.alpha"], rhs=parse_expression("-(alpha*sqrt(-beta))")
    )
    ok, sq_l, sq_r = engine.radical_check(corrupted, {})
    assert sq_l == sq_r and not ok  # squares agree, signs disagree


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
        return [dataclasses.replace(r, seconds=0.0) for r in report.results]

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
    divergent = dataclasses.replace(record, tail=GeometricTail(Fraction(1, 5), 1))
    res = engine.verify_identity(divergent)
    assert res[0].status == "error"
    assert "TailBoundViolation" in res[0].detail


def test_geometric_term_cap_convergence_error():
    # ratio declared just under one forces an astronomical term budget
    record = next(r for r in builtin_registry() if r.id == "s2.Gt.pi2")
    slow = parse_tail("geometric ratio=999999/1000000 from=1")
    with pytest.raises((ConvergenceError, TailBoundViolation)):
        engine.sum_series(record.lhs, {}, slow, 50)


def test_perturbed_rhs_fails(records):
    bump = RatLit(Fraction(1, 10**6))
    for rid in ("s2.G.z15", "s5.Y.euler", "s1.lem1.sin.pi10"):
        record = records[rid]
        hurt = dataclasses.replace(record, rhs=BinOp("+", record.rhs, bump))
        res = engine.verify_identity(hurt)
        assert all(r.status == "fail" for r in res), rid


def test_cold_binom_far_out_matches_the_stepwise_warm_up():
    from fibcat.expr import NumericSeqCache

    cold = NumericSeqCache(core.working_context(30))
    warm = NumericSeqCache(core.working_context(30))
    for m in range(0, 10001):
        warm.binom(2 * m, m)
    assert cold.binom(20000, 10000) == warm.binom(20000, 10000)
    assert str(cold.binom(20000, 10000)) == str(warm.binom(20000, 10000))
    # a diagonal that meets the edge b = 0 above the exact cutoff
    assert cold.binom(1000, 3) == Decimal(166167000)
    assert cold.binom(500, 0) == cold.binom(500, 500) == 1


def test_evaluate_sides_numeric_and_exact(records):
    sides = engine.evaluate_sides(records["s2.G.z15"], {}, 30)
    assert sides.exact is None and sides.strategy == "geometric" and sides.terms > 0
    assert sides.diff < Decimal("1E-29")
    sides = engine.evaluate_sides(records["s7.id1"], {"n": 3}, None)
    assert (sides.exact, sides.lhs, sides.rhs) == (True, Fraction(118, 15), Fraction(118, 15))
    assert engine.evaluate_sides(records["s2.lem3.sqrt.alpha"], {}).squared
