"""Every function the benchmark traces exists, and every name in the
constant and sequence tables reaches a working function, so a renamed or
mistyped name fails here and not only as `tracer_missing` in a benchmark
record.  `perfbench/layers.py` is only read: no wrapper is installed."""

import importlib
import importlib.util
from decimal import Decimal
from pathlib import Path

import pytest

from fibcat import exactnum
from fibcat.arbreal import constants
from fibcat.expr import CONSTANTS, SEQUENCES

_LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"
_spec = importlib.util.spec_from_file_location("perfbench_layers", _LAYERS)
layers = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(layers)

_TARGETS = [t for targets in layers.LAYERS.values() for t in targets] + [layers.SUM_SERIES]


@pytest.mark.parametrize("target", _TARGETS)
def test_every_traced_target_resolves(target):
    module_name, _, attr = target.partition(":")
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def _traced_names(layer):
    return {target.rpartition(":")[2] for target in layers.LAYERS[layer]}


@pytest.mark.parametrize("name", sorted(CONSTANTS))
def test_every_constant_is_computed_and_traced(name):
    function = CONSTANTS[name]
    assert isinstance(getattr(constants, function)(20), Decimal)
    assert function in _traced_names("arbreal.constants")


@pytest.mark.parametrize("name", sorted(SEQUENCES))
def test_every_sequence_is_computed_and_traced(name):
    function, arity = SEQUENCES[name]
    assert isinstance(getattr(exactnum, function)(*[4, 2][:arity]), int)
    assert function in _traced_names("exactnum.seq")
