"""The shared base of the value classes (fibcat.value.Value)."""

import os
import pickle
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

import fibcat
from fibcat import engine
from fibcat.exactnum import QuadRat
from fibcat.expr import BinOp, BoundVar, Clausen, Const, Fn, IntLit, Neg, Pow, Quad, RatLit, SeqCall, Var
from fibcat.seriesdsl import (
    AlgebraicTail,
    FiniteSpec,
    GeometricTail,
    IdentityRecord,
    ParsedRegistry,
    RegistryProblem,
    SeriesSpec,
)
from fibcat.value import Value

N = Var("n")

# every value class: (class, a value's arguments, a change that replace makes)
EXAMPLES = [
    (IntLit, (2,), {"value": 3}),
    (RatLit, (Fraction(1, 2),), {"value": Fraction(2)}),
    (Const, ("pi",), {"name": "sqrt5"}),
    (Var, ("n",), {"name": "s"}),
    (BoundVar, (), {}),
    (Neg, (N,), {"arg": IntLit(1)}),
    (Fn, ("sqrt", N), {"name": "ln"}),
    (BinOp, ("+", N, IntLit(1)), {"op": "*"}),
    (Pow, (N, IntLit(2)), {"exponent": IntLit(3)}),
    (SeqCall, ("F", (N,)), {"name": "L"}),
    (Quad, (BoundVar(), IntLit(0), N), {"upper": IntLit(1)}),
    (Clausen, (N,), {"arg": Const("pi")}),
    (GeometricTail, (Fraction(1, 4), 1), {"start": 2}),
    (AlgebraicTail, (), {}),
    (SeriesSpec, ("n", 0, N), {"start": 1}),
    (FiniteSpec, ("k", IntLit(0), N, Var("k")), {"index": "j"}),
    (IdentityRecord, ("t.id", "algebraic", "p", N, N, (("n", 0, 3),)), {"note": "changed"}),
    (RegistryProblem, (3, "t.id", "bad"), {"line": 4}),
    (ParsedRegistry, ([], []), {"problems": ["one"]}),
    (engine.SumResult, (Decimal(1), 5, Decimal("1E-50"), "geometric"), {"terms_used": 6}),
    (
        engine.VerificationResult,
        ("t.id", (("n", 1),), "series", "pass", Decimal(0), 50, 60, 7, 0.5),
        {"seconds": 0.0},
    ),
    (engine.VerificationReport, ((),), {"results": ("row",)}),
    (engine.Sides, (Decimal(1), Decimal(1)), {"diff": Decimal(0)}),
    (engine.VerifyConfig, (30, {"n": (1, 2)}), {"digits": 40}),
    (QuadRat, (Fraction(1, 2), Fraction(1, 2)), {"b": Fraction(-1, 2)}),
]
IDS = [cls.__name__ for cls, _, _ in EXAMPLES]


def test_every_value_class_is_covered():
    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    fibcat_classes = {c for c in subclasses(Value) if c.__module__.startswith("fibcat.") and c.__slots__}
    fibcat_classes |= {BoundVar, AlgebraicTail}  # the classes without fields
    assert fibcat_classes == {cls for cls, _, _ in EXAMPLES}
    assert len(EXAMPLES) == 25


@pytest.mark.parametrize("cls, args, changes", EXAMPLES, ids=IDS)
def test_equal_values_compare_and_hash_equal(cls, args, changes):
    a, b = cls(*args), cls(*args)
    assert a is not b and a == b and not a != b
    if cls not in (engine.VerifyConfig, ParsedRegistry):  # they hold a dict or lists
        assert hash(a) == hash(b)
    if changes:
        assert a.replace(**changes) != a


@pytest.mark.parametrize("cls, args, changes", EXAMPLES, ids=IDS)
def test_construction_by_position_and_by_keyword(cls, args, changes):
    value = cls(*args)
    fields = dict(zip(cls.__slots__, args))
    assert cls(**fields) == value
    assert not hasattr(value, "__dict__")
    shown = ", ".join(f"{k}={getattr(value, k)!r}" for k in cls.__slots__)
    assert repr(value) == f"{cls.__name__}({shown})"
    with pytest.raises(TypeError):
        cls(*[None] * (len(cls.__slots__) + 1))
    with pytest.raises(TypeError, match="nonesuch"):
        cls(*args, nonesuch=1)
    assert pickle.loads(pickle.dumps(value)) == value


@pytest.mark.parametrize("cls, args, changes", EXAMPLES, ids=IDS)
def test_assignment_is_refused(cls, args, changes):
    value = cls(*args)
    for name in [*cls.__slots__, "other"]:
        with pytest.raises(AttributeError):
            setattr(value, name, 1)
    for name in cls.__slots__:
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert value == cls(*args)


@pytest.mark.parametrize("cls, args, changes", EXAMPLES, ids=IDS)
def test_replace_returns_a_new_value(cls, args, changes):
    value = cls(*args)
    changed = value.replace(**changes)
    assert changed is not value and type(changed) is cls
    for name in cls.__slots__:
        assert getattr(changed, name) == changes.get(name, getattr(value, name))
    assert value == cls(*args)  # the original is unchanged
    with pytest.raises(TypeError):
        value.replace(nonesuch=1)


def test_values_of_different_classes_differ():
    assert Neg(N) != Clausen(N) and hash(Neg(N)) != hash(Clausen(N))
    assert IntLit(2) != RatLit(Fraction(2)) and hash(IntLit(2)) != hash(RatLit(Fraction(2)))
    assert Const("pi") != Var("pi")
    assert BoundVar() == BoundVar() and BoundVar() != AlgebraicTail()
    assert QuadRat.of(1) != Fraction(1) and IntLit(1) != 1
    assert len({Neg(N), Clausen(N), Neg(N)}) == 2


def test_defaults_are_those_of_the_fields():
    record = IdentityRecord("t.id", "constant", "p", N, N, ())
    assert (record.tail, record.as_printed, record.note, record.digits) == (None, False, "", None)
    row = engine.VerificationResult("t.id", (), "constant", "pass", None, None, None, None, 0.0)
    assert (row.detail, row.strategy, row.tail_bound) == ("", None, None)
    sides = engine.Sides(1, 1)
    assert (sides.diff, sides.exact, sides.terms, sides.detail) == (None, None, None, "")
    assert engine.VerifyConfig().digits is None
    # a mutable default is a fresh object per value
    config, registry = engine.VerifyConfig(), ParsedRegistry()
    assert config.param_ranges == {} and config.param_ranges is not engine.VerifyConfig().param_ranges
    assert registry.records == registry.problems == [] and registry.records is not ParsedRegistry().records
    with pytest.raises(TypeError, match="missing the argument 'rhs'"):
        IdentityRecord("t.id", "constant", "p", N)


def test_replace_still_refuses_var_x_in_a_quadrature_body():
    quad = Quad(BoundVar(), IntLit(0), N)
    with pytest.raises(ValueError, match="a quadrature body reads Var"):
        quad.replace(body=BinOp("*", BoundVar(), Var("x")))
    with pytest.raises(ValueError, match="a quadrature body reads Var"):
        Quad(body=Var("x"), lower=IntLit(0), upper=IntLit(1))
    assert quad.replace(upper=Var("x")).upper == Var("x")  # a bound is outside the body


def test_a_value_class_names_its_slots():
    with pytest.raises(TypeError, match="names no __slots__"):

        class Loose(Value):
            pass


def test_import_and_registry_load_run_no_dataclass_code():
    # a fresh interpreter: what `fibcat verify` pays before it checks a row
    src = str(Path(fibcat.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import sys; before = 'dataclasses' in sys.modules; import fibcat; "
        "records = fibcat.builtin_registry(); print(before, 'dataclasses' in sys.modules, len(records))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    before, after, records = out.stdout.split()
    if before == "True":
        pytest.skip("this interpreter imports dataclasses before any program runs")
    assert (after, records) == ("False", "136")
