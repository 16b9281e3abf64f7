import importlib.util
import json
from pathlib import Path

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_reports.py"
_spec = importlib.util.spec_from_file_location("compare_reports", _SCRIPT)
compare_reports = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_reports)

ROW = {
    "id": "s2.G.z15", "binding": "", "kind": "series", "status": "pass",
    "digits_requested": 50, "digits_achieved": 60, "abs_diff": "1E-61",
    "terms": 585, "seconds": 0.01, "detail": "",
}


def _write(path, rows):
    path.write_text(json.dumps(rows))
    return str(path)


def test_reports_differing_only_in_seconds_agree(tmp_path, capsys):
    old = _write(tmp_path / "old.json", [ROW, dict(ROW, binding="s=1")])
    new = _write(tmp_path / "new.json", [dict(ROW, seconds=9.0), dict(ROW, binding="s=1", seconds=0.0)])
    assert compare_reports.main([old, new]) == 0
    assert "2 rows identical" in capsys.readouterr().out


def test_any_other_difference_exits_one(tmp_path, capsys):
    old = _write(tmp_path / "old.json", [ROW, dict(ROW, binding="s=1")])
    new = _write(tmp_path / "new.json", [dict(ROW, status="fail"), dict(ROW, binding="s=2")])
    assert compare_reports.main([old, new]) == 1
    out = capsys.readouterr().out
    assert "s2.G.z15 [] status: 'pass' -> 'fail'" in out
    assert "s2.G.z15 [s=2] only in NEW" in out and "s2.G.z15 [s=1] only in OLD" in out
    swapped = _write(tmp_path / "swapped.json", [dict(ROW, binding="s=1"), ROW])
    assert compare_reports.main([old, swapped]) == 1
    assert compare_reports.main([old, str(tmp_path / "absent.json")]) == 2


def test_an_empty_report_is_not_a_match(tmp_path, capsys):
    empty = _write(tmp_path / "empty.json", [])
    one = _write(tmp_path / "one.json", [ROW])
    assert compare_reports.main([empty, empty]) == 2
    assert "holds no rows" in capsys.readouterr().err
    assert compare_reports.main([one, empty]) == 2
    assert compare_reports.main([empty, one]) == 2


def test_a_repeated_row_is_refused(tmp_path, capsys):
    old = _write(tmp_path / "old.json", [ROW, dict(ROW, binding="s=1")])
    twice = _write(tmp_path / "twice.json", [ROW, dict(ROW, status="fail"), dict(ROW, binding="s=1")])
    assert compare_reports.main([old, twice]) == 2
    assert "holds 1 row(s) twice or more, first s2.G.z15 []" in capsys.readouterr().err
    assert compare_reports.main([twice, old]) == 2
