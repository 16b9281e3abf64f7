import importlib.util
from decimal import Decimal
from pathlib import Path

from fibcat import arbreal as ar
from fibcat.arbreal import core

_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "crosscheck_constants.py"
_spec = importlib.util.spec_from_file_location("crosscheck_constants", _SCRIPT)
crosscheck = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(crosscheck)


def test_routes_agree_at_fifty_digits(capsys):
    assert crosscheck.main(["50"]) == 0
    assert "below 1E-49" in capsys.readouterr().out


def test_a_route_off_by_1e_40_fails(monkeypatch, capsys):
    route = ar.zeta3_check
    monkeypatch.setattr(ar, "zeta3_check", lambda d: core.context(d).add(route(d), Decimal("1e-40")))
    assert crosscheck.main(["50"]) == 1
    assert "NOT below 1E-49" in capsys.readouterr().out
