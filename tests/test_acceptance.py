"""Acceptance suite: one test per criterion, each printing a PASS line.

The heavyweight shared piece is a single full verification run over the
shipped registry (as-printed records included); criteria then assert
against its rows.  Run with -s to watch the per-criterion lines.
"""

from decimal import Decimal
from fractions import Fraction

import pytest

from fibcat import arbreal as ar
from fibcat import engine
from fibcat.arbreal import core
from fibcat.errors import TailBoundViolation
from fibcat.expr import BinOp, RatLit
from fibcat.seriesdsl import AlgebraicTail, GeometricTail, builtin_registry

CTX = core.context(80)


@pytest.fixture(scope="module")
def records():
    return {r.id: r for r in builtin_registry()}


@pytest.fixture(scope="module")
def full_report():
    return engine.verify_all(builtin_registry())


def rows_for(report, wanted_ids):
    return [r for r in report.results if r.record_id in wanted_ids]


def test_criterion_1_geometric_class(records, full_report):
    """Every series record strictly inside its disk verifies at 50 digits,
    |lhs - rhs| < 1e-50, whole class under five minutes."""
    wanted = {
        r.id for r in records.values()
        if r.kind == "series" and isinstance(r.tail, GeometricTail) and not r.as_printed
    }
    rows = rows_for(full_report, wanted)
    assert len(rows) >= 300  # parameterized theorems expand to 21 bindings each
    bad = [r for r in rows if r.status != "pass" or not r.abs_diff < Decimal("1E-50")]
    assert not bad, [(r.record_id, r.binding, str(r.abs_diff)) for r in bad[:5]]
    elapsed = sum(r.seconds for r in rows)
    assert elapsed < 300.0, f"geometric class took {elapsed:.1f}s"
    print(f"criterion 1 geometric class: PASS ({len(rows)} checks, {elapsed:.1f}s)")


def test_criterion_2_algebraic_class(records, full_report):
    """Boundary and slow series reach ten digits within 1e5 terms per sum:
    every corrected algebraic-tail record, at every binding."""
    wanted = {
        r.id for r in records.values() if isinstance(r.tail, AlgebraicTail) and not r.as_printed
    }
    rows = rows_for(full_report, wanted)
    assert {r.record_id for r in rows} == wanted and len(rows) == 49
    for r in rows:
        assert r.status == "pass", (r.record_id, r.detail)
        assert r.abs_diff < Decimal("1E-10"), (r.record_id, str(r.abs_diff))
        assert r.digits_achieved >= 10, r.record_id
        assert r.terms_used <= 10**5, r.record_id
    print(f"criterion 2 algebraic-decay class: PASS ({len(rows)} values)")


def test_criterion_3_finite_exact_suite(records, full_report):
    """The four finite identities hold with exact rational equality to n=300
    in under ten seconds."""
    wanted = {"s7.id1", "s7.id2", "s7.parker", "s7.witula"}
    rows = rows_for(full_report, wanted)
    assert len(rows) == 301 + 300 + 301 + 300
    assert all(r.status == "pass" for r in rows)
    elapsed = sum(r.seconds for r in rows)
    assert elapsed < 10.0, f"finite suite took {elapsed:.2f}s"
    print(f"criterion 3 finite/exact suite: PASS ({len(rows)} checks, {elapsed:.2f}s)")


def test_criterion_4_exact_qsqrt5_suite(records, full_report):
    """Surd lemmas and the Binet identities hold exactly over [-50, 50]."""
    parameterized = {
        "s1.binet.F", "s1.binet.L", "s2.lem4.plus", "s2.lem4.minus",
        "s4.lem5.plus", "s4.lem5.minus", "s6.lem6.plus", "s6.lem6.minus",
    }
    radical = {"s2.lem3.sqrt.alpha", "s2.lem3.sqrt.alpha.sqrt5"}
    rows = rows_for(full_report, parameterized)
    assert len(rows) == len(parameterized) * 101
    assert all(r.status == "pass" for r in rows)
    rrows = rows_for(full_report, radical)
    assert len(rrows) == 2 and all(r.status == "pass" for r in rrows)
    print(f"criterion 4 exact Q(sqrt5) suite: PASS ({len(rows) + len(rrows)} checks)")


def test_criterion_5_integral_suite(records, full_report):
    """The integral representations of C(n) and 1/C(n) and both sine-moment
    identities for n <= 20, decided exactly by Euler's Beta rule (equal
    Laurent polynomials in pi), and the Clausen identity at 20 digits, its
    x/sin(x) side by tanh-sinh and its Cl2 values by their Bernoulli series."""
    reps = {"s1.Cn.rep1", "s1.Cn.rep2", "s1.Cninv.rep", "s7.wallis.odd", "s7.wallis.even"}
    rows = rows_for(full_report, reps)
    assert len(rows) == 5 * 21
    for r in rows:
        assert r.status == "pass", (r.record_id, r.binding, r.detail)
        assert r.abs_diff < Decimal("1E-30"), (r.record_id, r.binding, str(r.abs_diff))
        assert (r.strategy, r.abs_diff, r.digits_achieved) == ("beta", 0, None), (r.record_id, r.binding)
    clausen = rows_for(full_report, {"s7.lem7.pi6", "s7.lem7.pi4", "s7.lem7.pi2"})
    assert len(clausen) == 3
    for r in clausen:
        assert r.status == "pass" and r.abs_diff < Decimal("1E-20"), r.record_id
    print(f"criterion 5 integral suite: PASS ({len(rows) + len(clausen)} checks)")


def test_criterion_5_sine_moment_rhs_taken_exactly(full_report):
    """28 of the 30 rows of s7.thm10-thm14 take their sine-moment rhs
    exactly in Q(sqrt2)[pi, 1/pi] and say so; x^2/sin(x) (thm12, r = -1)
    and x/sin(x) (thm13, r = 0) stay on tanh-sinh.  All 30 pass."""
    rows = rows_for(full_report, {"s7.thm10", "s7.thm11", "s7.thm12", "s7.thm13", "s7.thm14"})
    assert len(rows) == 30 and all(r.status == "pass" for r in rows)
    on_tanh_sinh = {(r.record_id, r.binding) for r in rows if r.detail != engine.EXACT_RHS}
    assert on_tanh_sinh == {("s7.thm12", (("r", -1),)), ("s7.thm13", (("r", 0),))}
    assert {r.detail for r in rows} == {engine.EXACT_RHS, ""}


def test_criterion_6_constant_cross_checks():
    """pi, G, zeta(3) and ln(alpha) from two independent in-module routes
    agree to 50 digits."""
    pairs = [
        ("pi", ar.const_pi(50), ar.const_pi_check(50)),
        ("G", ar.const_catalan_g(50), ar.catalan_g_check(50)),
        ("zeta3", ar.const_zeta3(50), ar.zeta3_check(50)),
        ("ln alpha", ar.ln_alpha(50), ar.ln_alpha_check(50)),
    ]
    for name, a, b in pairs:
        gap = CTX.subtract(a, b).copy_abs()
        assert gap < Decimal("1E-49"), (name, str(gap))
    print("criterion 6 constant cross-checks: PASS (4 constants, 50 digits)")


def test_criterion_7_misprint_ledger(records, full_report):
    """Index-start variants miss exactly the n=0 term; the shift and sign
    variants fail while their corrected readings pass; all named."""
    start_shift = {"s2.G2t.sqrt2.printed", "s2.G2t.pi3.printed", "s2.G2t.pi6.printed"}
    for rid in start_shift:
        row = rows_for(full_report, {rid})[0]
        assert row.status == "fail"
        assert CTX.subtract(row.abs_diff, 1).copy_abs() < Decimal("1E-10"), rid
    cf_printed = rows_for(full_report, {"s2.ex.CF0.printed"})[0]
    cf_s2 = rows_for(full_report, {"s2.ex.CF0.s2read"})[0]
    assert cf_printed.status == "fail" and cf_s2.status == "pass"
    printed_ids = {r.id for r in records.values() if r.as_printed}
    named = {r.record_id for r in full_report.results if r.record_id in printed_ids}
    assert named == printed_ids  # the report names each variant
    for rid in printed_ids:
        assert rows_for(full_report, {rid})[0].status == "fail", rid
    corrected = {
        "s2.G2t.sqrt2", "s2.G2t.pi3", "s2.G2t.pi6", "s2.ex.CF0", "s2.ex.CL0",
        "s2.ex2.C2L0", "s2.ex2.C2oF1", "s2.lem2.ratio", "s7.thm12.rm1",
    }
    for rid in corrected:
        assert all(r.status == "pass" for r in rows_for(full_report, {rid})), rid
    print(f"criterion 7 misprint ledger: PASS ({len(printed_ids)} as-printed variants fail)")


def test_criterion_8_negative_controls(records):
    """A 1e-6 perturbation of any rhs flips the record to fail; an
    undersized declared ratio raises TailBoundViolation, not a wrong sum."""
    bump = RatLit(Fraction(1, 10**6))
    additive = {
        "s2.G.z15": {},
        "s3.thm.F": {"s": (1, 1)},
        "s5.Y.euler": {},
        "s2.Gt.pi2": {},
        "s1.lem1.sin.pi10": {},
        "s7.parker": {"n": (1, 4)},
        "s1.binet.F": {"r": (0, 3)},
        "s7.wallis.odd": {"n": (0, 2)},
        "s7.thm13.r0": {},
        "s3.fcot.z1": {},
    }
    for rid, ranges in additive.items():
        record = records[rid]
        hurt = record.replace(rhs=BinOp("+", record.rhs, bump))
        config = engine.VerifyConfig(param_ranges={k: v for k, v in ranges.items()})
        rows = engine.verify_identity(hurt, config)
        assert rows and all(r.status == "fail" for r in rows), rid
    # radical records must stay in one-radical form: perturb multiplicatively
    record = records["s2.lem3.sqrt.alpha"]
    scale = BinOp("+", RatLit(Fraction(1)), bump)
    hurt = record.replace(rhs=BinOp("*", record.rhs, scale))
    rows = engine.verify_identity(hurt)
    assert all(r.status == "fail" for r in rows)

    declared_low = records["s2.G.z15"].replace(tail=GeometricTail(Fraction(1, 2), 1))
    with pytest.raises(TailBoundViolation):
        engine.sum_series(declared_low.lhs, {}, declared_low.tail, 30)
    rows = engine.verify_identity(declared_low)
    assert rows[0].status == "error" and "TailBoundViolation" in rows[0].detail
    print("criterion 8 negative controls: PASS (11 perturbations + ratio violation)")
