import importlib.util
import json
import re
import time
from fractions import Fraction
from pathlib import Path

import pytest

from fibcat.expr import BinOp, RatLit
from fibcat.seriesdsl import builtin_registry

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_full_verification.py"
_spec = importlib.util.spec_from_file_location("run_full_verification", _SCRIPT)
script = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(script)

_IDS = ("s2.ex.CF0.printed", "s2.ex.CF0", "s7.id1")


@pytest.fixture
def small_registry(monkeypatch):
    """Give the script only the records named in _IDS, s7.id1 cut to n <= 3."""
    records = [r for r in builtin_registry() if r.id in _IDS]
    records = [r.replace(params=(("n", 1, 3),)) if r.id == "s7.id1" else r for r in records]
    monkeypatch.setattr(script, "builtin_registry", lambda: records)
    return records


def test_writes_the_three_reports(small_registry, tmp_path, capsys):
    assert script.main([str(tmp_path / "out")]) == 0
    out = capsys.readouterr().out
    assert "5 checks in " in out and "4 pass, 1 fail, 0 error" in out
    assert "['s2.ex.CF0.printed']" in out
    rows = json.loads((tmp_path / "out" / "report.json").read_text())
    assert [(r["id"], r["status"]) for r in rows][:2] == [("s2.ex.CF0", "pass"), ("s2.ex.CF0.printed", "fail")]
    assert (tmp_path / "out" / "report.txt").exists() and (tmp_path / "out" / "report.csv").exists()


def test_prints_the_row_seconds_of_each_class(small_registry, tmp_path, capsys):
    assert script.main([str(tmp_path / "out")]) == 0
    lines = capsys.readouterr().out.splitlines()
    at = lines.index("row seconds by class:")
    table = {line[:25].strip(): line[25:].split() for line in lines[at + 1 : at + 1 + len(script.CLASSES)]}
    assert list(table) == list(script.CLASSES)
    rows = {name: int(cells[0]) for name, cells in table.items()}
    assert rows == {
        "finite": 3, "algebraic/radical": 0, "geometric series": 2, "algebraic-tail series": 0,
        "integrals": 0, "constants": 0,
    }
    assert all(cells[1::2] == ["rows", "s"] and float(cells[2]) >= 0 for cells in table.values())


def test_prints_the_registry_parse_above_the_row_seconds(small_registry, tmp_path, monkeypatch, capsys):
    def slow_registry():
        time.sleep(0.05)
        return small_registry

    monkeypatch.setattr(script, "builtin_registry", slow_registry)
    assert script.main([str(tmp_path / "out")]) == 0
    lines = capsys.readouterr().out.splitlines()
    at = lines.index("row seconds by class:")
    match = re.fullmatch(r"registry parsed in (\d+\.\d{3}) s", lines[at - 1])
    assert match and 0.05 <= float(match[1]) < 5


def test_outdir_defaults_to_verification_out(small_registry, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert script.main([]) == 0
    assert (tmp_path / "verification_out" / "report.json").exists()


def test_an_unexpected_failure_exits_one(small_registry, monkeypatch, tmp_path, capsys):
    bump = RatLit(Fraction(1, 10**6))
    records = [r.replace(rhs=BinOp("+", r.rhs, bump)) if r.id == "s2.ex.CF0" else r for r in small_registry]
    monkeypatch.setattr(script, "builtin_registry", lambda: records)
    assert script.main([str(tmp_path / "out")]) == 1
    assert "UNEXPECTED failures:\n  s2.ex.CF0" in capsys.readouterr().out


@pytest.mark.parametrize("argv, code", [(["--help"], 0), (["--bogus"], 2), (["a", "b"], 2)])
def test_help_and_bad_arguments_run_nothing(small_registry, tmp_path, monkeypatch, argv, code):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(script.engine, "verify_all", lambda *a: pytest.fail("the registry ran"))
    with pytest.raises(SystemExit) as exc:
        script.main(argv)
    assert exc.value.code == code
    assert list(tmp_path.iterdir()) == []
