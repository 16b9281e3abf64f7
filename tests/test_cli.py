import csv
import io
import json

import pytest

from fibcat.cli import main


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


def test_verify_printed_glob_exit_one(capsys):
    code, out, _ = run(capsys, "verify", "--id", "s2.G2t.pi3.printed")
    assert code == 1
    assert "FAIL" in out


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


def test_missing_registry_exits_two(capsys):
    code, _, err = run(capsys, "verify", "--registry", "/nonexistent/path.reg")
    assert code == 2
    assert "cannot read" in err


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
    "argv, last_line",
    [
        (["s7.id1", "--param", "n=3"], "  exact match: True"),
        (["s1.binet.F", "--param", "r=2"], "  exact match: True"),
        (["s2.lem3.sqrt.alpha"], "  exact match (squares and signs): True"),
        (["s1.Cn.rep1", "--param", "n=2"], "  |lhs - rhs| = "),
        (["s1.G3.compact"], "  |lhs - rhs| = "),
    ],
    ids=["finite", "algebraic", "radical", "integral", "constant"],
)
def test_eval_each_kind(capsys, argv, last_line):
    code, out, _ = run(capsys, "eval", "--id", *argv)
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith(argv[0])
    assert lines[-1].startswith(last_line)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify", "--id", "nope*"], "nothing to check"),
        (["verify", "--id", "s1.binet.F", "--param", "r=5..1"], "nothing to check"),
        (["verify", "--id", "s5.Y.euler", "--param", "zz=1..2"], "parameter zz"),
        (["eval", "--id", "s1.binet.F", "--param", "r=5..1"], "nothing to check"),
        (["eval", "--id", "s5.Y.euler", "--param", "zz=1"], "parameter zz"),
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


def test_eval_unknown_id_exits_two(capsys):
    code, _, err = run(capsys, "eval", "--id", "missing")
    assert code == 2
    assert "missing" in err


def test_unknown_flag_exits_two(capsys):
    with pytest.raises(SystemExit) as info:
        main(["verify", "--frobnicate"])
    assert info.value.code == 2
