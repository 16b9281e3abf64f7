import importlib.util
from decimal import Decimal
from pathlib import Path

import pytest

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


def test_a_clausen_route_off_by_1e_40_fails_its_row(monkeypatch, capsys):
    series = ar.clausen2
    monkeypatch.setattr(ar, "clausen2", lambda t, d: core.context(d).add(series(t, d), Decimal("1e-40")))
    assert crosscheck.main(["50"]) == 1
    lines = capsys.readouterr().out.splitlines()
    row = next(i for i, line in enumerate(lines) if line.startswith("Cl2(pi/3)"))
    assert lines[row + 1].split()[:2] == ["tanh-sinh", "integral"]
    assert Decimal(lines[row + 2].split()[-1]) == Decimal("1e-40")
    assert "NOT below 1E-49" in lines[-1]


@pytest.mark.parametrize(
    "argv, message",
    [(["abc"], "invalid int value: 'abc'"), (["0"], "at least 1"), (["-3"], "at least 1"), (["5", "6"], "unrecognized")],
)
def test_a_bad_argument_exits_two_before_computing(monkeypatch, capsys, argv, message):
    monkeypatch.setattr(ar, "const_pi", lambda d: pytest.fail("computed a constant"))
    with pytest.raises(SystemExit) as info:
        crosscheck.main(argv)
    assert info.value.code == 2
    assert message in capsys.readouterr().err


def test_help_exits_zero_and_computes_nothing(monkeypatch, capsys):
    monkeypatch.setattr(ar, "const_pi", lambda d: pytest.fail("computed a constant"))
    with pytest.raises(SystemExit) as info:
        crosscheck.main(["--help"])
    assert info.value.code == 0
    assert "usage:" in capsys.readouterr().out
