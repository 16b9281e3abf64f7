import importlib.util
from fractions import Fraction
from pathlib import Path

import pytest

from fibcat.expr import BinOp, RatLit
from fibcat.seriesdsl import builtin_registry

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "probe_misprints.py"
_spec = importlib.util.spec_from_file_location("probe_misprints", _SCRIPT)
probe = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(probe)

_PAIR = ("s2.ex.CF0.printed", "s2.ex.CF0")


def _registry(monkeypatch, change=lambda r: r, ids=_PAIR):
    """Give the script only the records named in ids, each passed through change."""
    records = [change(r) for r in builtin_registry() if r.id in ids]
    monkeypatch.setattr(probe, "builtin_registry", lambda: records)


def test_shipped_misprints_fail_and_their_siblings_pass(capsys):
    assert probe.main([]) == 0
    out = capsys.readouterr().out
    assert out.count("  as printed : fail") == 9 and out.count("  corrected  : pass") == 9
    assert "PROBLEM" not in out


def test_a_sibling_with_a_perturbed_rhs_fails_the_probe(monkeypatch, capsys):
    bump = RatLit(Fraction(1, 10**6))
    _registry(monkeypatch, lambda r: r if r.as_printed else r.replace(rhs=BinOp("+", r.rhs, bump)))
    assert probe.main([]) == 1
    assert "PROBLEM: s2.ex.CF0 does not pass" in capsys.readouterr().out


def test_a_missing_sibling_fails_the_probe(monkeypatch, capsys):
    _registry(monkeypatch, ids=_PAIR[:1])
    assert probe.main([]) == 1
    assert "PROBLEM: s2.ex.CF0.printed has no corrected sibling s2.ex.CF0" in capsys.readouterr().out


def test_a_misprint_that_passes_fails_the_probe(monkeypatch, capsys):
    fixed = {r.id: r for r in builtin_registry()}["s2.ex.CF0"]
    _registry(monkeypatch, lambda r: fixed.replace(id=r.id, as_printed=True) if r.as_printed else r)
    assert probe.main([]) == 1
    assert "PROBLEM: s2.ex.CF0.printed does not fail" in capsys.readouterr().out


def test_probing_nothing_is_not_a_success(monkeypatch, capsys):
    _registry(monkeypatch, ids=_PAIR[1:])
    assert probe.main([]) == 1
    assert "no as-printed record to probe" in capsys.readouterr().out


def test_an_argument_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        probe.main(["s2.ex.CF0.printed"])
    assert exc.value.code == 2
