import csv
import io
import json
from decimal import ROUND_FLOOR, Context, localcontext
from fractions import Fraction

import pytest

from fibcat import cli, engine
from fibcat.cli import main
from fibcat.seriesdsl import GeometricTail, builtin_registry, parse_registry


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_list_finite(capsys):
    code, out, _ = run(capsys, "list", "--kind", "finite")
    assert code == 0
    ids = [line.split()[0] for line in out.strip().splitlines()[:-1]]
    assert ids == ["s7.id1", "s7.id2", "s7.parker", "s7.witula"]


def test_list_is_sorted_and_skips_printed_by_default(capsys):
    code, out, _ = run(capsys, "list")
    assert code == 0
    ids = [line.split()[0] for line in out.strip().splitlines()[:-1]]
    assert ids == sorted(ids)
    assert not any(i.endswith(".printed") for i in ids)
    code, out, _ = run(capsys, "list", "--include-printed")
    ids = [line.split()[0] for line in out.strip().splitlines()[:-1]]
    assert any(i.endswith(".printed") for i in ids)


def test_verify_single_record_exit_zero(capsys):
    code, out, _ = run(capsys, "verify", "--id", "s5.Y.euler")
    assert code == 0
    assert "summary: 1 pass, 0 fail, 0 error" in out


def test_verify_prints_an_exact_zero_gap_as_zero(capsys):
    code, out, _ = run(capsys, "verify", "--id", "s7.wallis.odd", "--param", "n=3")
    assert code == 0
    line = out.splitlines()[0]
    assert line.startswith("PASS  s7.wallis.odd") and line.endswith(" diff=0"), line
    # a nonzero gap keeps its three decimals
    code, out, _ = run(capsys, "verify", "--id", "s2.G2t.pi3.printed")
    assert " diff=1.000E+0" in out


def test_verify_printed_glob_exit_one(capsys):
    code, out, _ = run(capsys, "verify", "--id", "s2.G2t.pi3.printed")
    assert code == 1
    assert "FAIL" in out


def test_a_binding_of_x_is_not_read_inside_a_quadrature_body(capsys, tmp_path):
    # the integral of x^x over [0, 1] is 0.7834..., not the 1/4 of x^3
    reg = tmp_path / "xx.reg"
    reg.write_text(
        '[identity]\nid = "t.xx" kind = "integral" paper = "p"\n'
        'lhs = "quad(x^x, 0, 1)" rhs = "1/4" params = "x=3"\n'
    )
    code, out, _ = run(capsys, "verify", "--registry", str(reg), "--id", "t.xx")
    assert code == 1
    assert out.startswith("ERROR t.xx") and "exponent is not an exact rational in x^x" in out
    assert "summary: 0 pass, 0 fail, 1 error" in out


def test_verify_json_round_trips(capsys, tmp_path):
    out_path = tmp_path / "r.json"
    code, _, _ = run(
        capsys, "verify", "--id", "s1.binet.*", "--param", "r=-3..3",
        "--report", "json", "--out", str(out_path),
    )
    assert code == 0
    rows = json.loads(out_path.read_text())
    assert len(rows) == 14
    assert {row["status"] for row in rows} == {"pass"}
    assert rows[0]["id"] == "s1.binet.F"
    assert rows[0]["strategy"] is None and rows[0]["tail_bound"] is None


def test_verify_csv_header_contract(capsys):
    code, out, _ = run(capsys, "verify", "--id", "s6.X.z1", "--report", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["id", "binding", "kind", "status", "digits_requested",
                       "digits_achieved", "terms", "seconds"]
    assert rows[1][0] == "s6.X.z1" and rows[1][3] == "pass"


def test_verify_repeat_is_deterministic_modulo_seconds(capsys):
    def body():
        code, out, _ = run(capsys, "verify", "--id", "s2.Gt.pi?", "--report", "csv")
        assert code == 0
        return [row[:-1] for row in csv.reader(io.StringIO(out))]

    assert body() == body()


def test_corrupt_registry_exits_two(capsys, tmp_path):
    bad = tmp_path / "extra.reg"
    bad.write_text('[identity]\nid = "x"\nkind = "serieses"\npaper = "p"\nrhs = "1"\n')
    code, _, err = run(capsys, "list", "--registry", str(bad))
    assert code == 2
    assert "serieses" in err or "kind" in err


def test_registry_with_a_typod_key_exits_two(capsys, tmp_path):
    reg = tmp_path / "typo.reg"
    reg.write_text('[identity]\nid = "t.typo" kind = "constant" paper = "p"\nlhs = "1" rhs = "1" digit = 60\n')
    code, out, err = run(capsys, "list", "--registry", str(reg))
    assert code == 2 and out == ""
    assert "line 1: record 't.typo': constant records take no key 'digit'" in err


@pytest.mark.parametrize(
    "lhs",
    ["(" * 300 + "1" + ")" * 300, "+".join(["1"] * 3001), "-" * 1000 + "1"],
    ids=["parentheses", "long-sum", "minus-signs"],
)
def test_too_deep_expression_exits_two(capsys, tmp_path, lhs):
    reg = tmp_path / "deep.reg"
    reg.write_text(f'[identity]\nid = "t.deep" kind = "constant" paper = "p"\nlhs = "{lhs}" rhs = "1"\n')
    code, out, err = run(capsys, "verify", "--registry", str(reg))
    assert code == 2
    assert out == ""
    assert "record 't.deep'" in err and "deeper than 100 levels" in err


def test_missing_registry_exits_two(capsys):
    code, _, err = run(capsys, "verify", "--registry", "/nonexistent/path.reg")
    assert code == 2
    assert "cannot read" in err


def test_registry_that_is_not_utf8_exits_two(capsys, tmp_path):
    reg = tmp_path / "latin1.reg"
    reg.write_bytes('[identity]\nid = "t.caf\xe9"\n'.encode("latin-1"))
    code, out, err = run(capsys, "list", "--registry", str(reg))
    assert code == 2
    assert out == ""
    assert err.startswith(f"fibcat: cannot read registry {reg}: ") and "codec can't decode" in err


def test_eval_compares_a_radical_record_inside_q_sqrt5_exactly(capsys, tmp_path):
    reg = tmp_path / "binet.reg"
    reg.write_text(
        '[identity]\nid = "t.binet" kind = "radical" paper = "p"\n'
        'lhs = "(alpha^r - beta^r)/sqrt5" rhs = "F(r)" params = "r=4"\n'
    )
    code, out, _ = run(capsys, "eval", "--registry", str(reg), "--id", "t.binet")
    assert code == 0
    assert out.splitlines()[1:] == ["  lhs = 3", "  rhs = 3", "  exact match: True"]


def test_eval_series(capsys):
    code, out, _ = run(capsys, "eval", "--id", "s2.G.z15", "--digits", "30")
    assert code == 0
    assert out.count("1.3819660112501051517954") == 2
    assert "terms" in out


def test_eval_with_param_binding(capsys):
    code, out, _ = run(capsys, "eval", "--id", "s6.thm.F", "--param", "s=1", "--digits", "30")
    assert code == 0
    assert "at s=1" in out
    assert "|lhs - rhs| = " in out


@pytest.mark.parametrize(
    "argv, last_lines",
    [
        (["s7.id1", "--param", "n=3"], ["  exact match: True"]),
        (["s1.binet.F", "--param", "r=2"], ["  exact match: True"]),
        (
            ["s2.lem3.sqrt.alpha"],
            ["  lhs = sqrt(1/2 + 1/2*sqrt5)", "  rhs = (1/2 + 1/2*sqrt5)*sqrt(-1/2 + 1/2*sqrt5)", "  exact match: True"],
        ),
        (["s7.lem7.pi2"], ["  |lhs - rhs| = ", "  verdict: pass"]),
        (["s1.Cn.rep1", "--param", "n=2"], ["  lhs = 2", "  rhs = 2", "  exact match: True"]),
        (["s1.G3.compact"], ["  |lhs - rhs| = ", "  verdict: pass"]),
    ],
    ids=["finite", "algebraic", "radical", "integral", "integral-exact", "constant"],
)
def test_eval_each_kind(capsys, argv, last_lines):
    code, out, _ = run(capsys, "eval", "--id", *argv)
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith(argv[0])
    assert len(lines) > len(last_lines)
    for line, start in zip(lines[-len(last_lines):], last_lines):
        assert line.startswith(start)


@pytest.mark.parametrize(
    "record, digits, code, verdict",
    [("s2.G2t.pi3.printed", "20", 1, "fail"), ("s2.G.z15", "10", 0, "pass")],
)
def test_eval_gives_the_verdict_of_verify(capsys, record, digits, code, verdict):
    got, out, _ = run(capsys, "eval", "--id", record, "--digits", digits)
    assert got == code
    assert out.splitlines()[-1] == f"  verdict: {verdict}"
    assert run(capsys, "verify", "--id", record, "--digits", digits)[0] == code


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "--id", "nope*"], "nothing to check"),
        (["verify", "--id", "s1.binet.F", "--param", "r=5..1"], "empty parameter range 'r=5..1'"),
        (["verify", "--id", "s5.Y.euler", "--param", "zz=1..2"], "parameter zz"),
        (["eval", "--id", "s1.binet.F", "--param", "r=5..1"], "empty parameter range 'r=5..1'"),
        (["eval", "--id", "s5.Y.euler", "--param", "zz=1"], "parameter zz"),
        # read as a registry reads `params`, so none of the lemmas' rows is
        # skipped unsaid
        (["verify", "--id", "s2.lem[34]*", "--param", "r=5..2"], "empty parameter range 'r=5..2'"),
        (["verify", "--id", "s2.lem[34]*", "--param", "r=1..2", "--param", "r=7"], "repeated parameter 'r'"),
        (["verify", "--id", "s2.lem[34]*", "--param", "r=1..x"], "'r=1..x': bounds must be integers"),
    ],
)
def test_vacuous_run_exits_two(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert message in err


def test_param_declared_by_one_selected_record_is_accepted(capsys):
    # s6.X.z1 has no parameters; the two lemmas declare r
    code, out, _ = run(capsys, "verify", "--id", "s6.[Xl]*", "--param", "r=1", "--report", "csv")
    assert code == 0
    assert [row[:2] for row in csv.reader(io.StringIO(out))][1:] == [
        ["s6.X.z1", ""], ["s6.lem6.minus", "r=1"], ["s6.lem6.plus", "r=1"],
    ]


def test_eval_reports_the_tail_gap_against_verifys_target(capsys, tmp_path):
    # 1/(n+1)^2 to 100 digits: the expansion's gap estimate stays near 1e-81
    reg = tmp_path / "deep.reg"
    reg.write_text(
        '[identity]\nid = "t.deep" kind = "series" paper = "p" index = "n" start = 0\n'
        'term = "1/(n+1)^2" tail = "algebraic" rhs = "pi^2/6" digits = 100\n'
    )
    code, out, _ = run(capsys, "eval", "--registry", str(reg), "--id", "t.deep", "--digits", "100")
    assert code == 3
    assert "(400 terms, algebraic tail estimate " in out
    last = out.splitlines()[-1]
    assert last.startswith("  ConvergenceError: algebraic tail estimate ") and last.endswith(" is not below 1E-100")
    code, out, _ = run(capsys, "verify", "--registry", str(reg), "--id", "t.deep")
    assert code == 3 and last.strip() in out


def test_digits_moves_algebraic_series(capsys):
    code, out, _ = run(capsys, "verify", "--id", "s2.Gt.pi2", "--digits", "40", "--report", "json")
    (row,) = json.loads(out)
    assert code == 0 and row["status"] == "pass" and row["digits_achieved"] >= 40
    assert row["strategy"] == "algebraic" and float(row["tail_bound"]) < 1e-40
    code, out, _ = run(capsys, "verify", "--id", "s7.thm12.rm1.printed", "--digits", "30")
    assert code == 1 and "FAIL" in out


def test_eval_unknown_id_exits_two(capsys):
    code, _, err = run(capsys, "eval", "--id", "missing")
    assert code == 2
    assert "missing" in err


def test_eval_without_id_is_a_usage_error(capsys):
    code, out, err = run(capsys, "eval", "--digits", "20")
    assert code == 2 and out == ""
    assert "eval needs --id ID (an exact record id)" in err


def test_unknown_flag_exits_two(capsys):
    with pytest.raises(SystemExit) as info:
        main(["verify", "--frobnicate"])
    assert info.value.code == 2


def test_eval_reports_a_binding_that_raises_and_goes_on(capsys, tmp_path):
    reg = tmp_path / "pole.reg"
    reg.write_text(
        '[identity]\nid = "t.pole" kind = "algebraic" paper = "p"\n'
        'lhs = "1/(r-2)" rhs = "1/(r-2)" params = "r=1..3"\n'
    )
    code, out, _ = run(capsys, "eval", "--registry", str(reg), "--id", "t.pole")
    assert code == 1
    lines = out.splitlines()
    assert [line for line in lines if not line.startswith("  ")] == [
        "t.pole at r=1  (algebraic)", "t.pole at r=2  (algebraic)", "t.pole at r=3  (algebraic)",
    ]
    at_r2 = lines[lines.index("t.pole at r=2  (algebraic)") + 1]
    assert at_r2 == "  ZeroDivisionError: division by zero in 1/(r - 2)"
    assert lines[-1] == "  exact match: True"
    code, out, _ = run(capsys, "verify", "--registry", str(reg), "--id", "t.pole")
    assert code == 1 and "ZeroDivisionError: division by zero in 1/(r - 2)" in out


_DEEP = (  # 1/(n+1)^2 to 100 digits: a ConvergenceError row, its tail estimate in the detail
    '[identity]\nid = "t.deep" kind = "series" paper = "p" index = "n" start = 0\n'
    'term = "1/(n+1)^2" tail = "algebraic" rhs = "pi^2/6" digits = 100\n'
)


def test_rows_and_reports_do_not_read_the_callers_decimal_context(capsys, tmp_path):
    # a caller at 3 digits rounding down, printing a lower-case e, used to
    # get other tail bounds and other text and JSON reports
    shipped = {r.id: r for r in builtin_registry()}
    euler = shipped["s5.Y.euler"]
    records = [shipped[rid] for rid in ("s1.G1.z12", "s2.thm.CF", "s7.thm12", "s7.thm12.rm1.printed", "s1.Cn.rep1")]
    records += parse_registry(_DEEP).records
    records.append(euler.replace(id="t.violated", tail=GeometricTail(Fraction(1, 5), 1)))
    reg = tmp_path / "deep.reg"
    reg.write_text(_DEEP)

    def outputs():
        report = engine.verify_all(records)
        rows = [r.replace(seconds=0) for r in report.results]
        as_json = [{k: v for k, v in row.items() if k != "seconds"} for row in json.loads(cli._report_json(report))]
        as_csv = [row[:-1] for row in csv.reader(io.StringIO(cli._report_csv(report)))]
        main(["eval", "--registry", str(reg), "--id", "t.deep", "--digits", "100"])
        return rows, cli._report_text(report), as_json, as_csv, capsys.readouterr().out

    default = outputs()
    with localcontext(Context(prec=3, rounding=ROUND_FLOOR, capitals=0)):
        skewed = outputs()
    rows, text = default[:2]
    assert {r.status for r in rows} == {"pass", "fail", "error"}
    assert "ERROR t.deep" in text and "ConvergenceError: algebraic tail estimate" in text
    assert "ERROR t.violated" in text and "TailBoundViolation" in text
    assert skewed == default
