"""In-memory span tracer installed around fibcat's public functions.

The tracer wraps functions from outside the program: each wrapper opens a
span named after its layer, and a layer's self time is its spans' duration
minus the part covered by child spans of other layers.  A call made while
the innermost open span already belongs to the same layer (recursion such
as eval_exact_rational calling itself, or clausen2 calling tanh_sinh) is
part of that span: it is neither counted nor timed again.

Spans are aggregated as they close (calls, total and self seconds per
layer) instead of being stored, because a Richardson row opens millions.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from contextlib import contextmanager


class LayerStats:
    __slots__ = ("calls", "total_s", "self_s")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.layers: dict[str, LayerStats] = defaultdict(LayerStats)
        self.counts: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []
        self._stack: list[list] = []  # open spans: [layer, start, child seconds]
        self._undo: list[tuple] = []

    # ------------------------------------------------------------ spans

    def _open(self, layer):
        self._stack.append([layer, self.clock(), 0.0])

    def _close(self):
        layer, start, child = self._stack.pop()
        duration = self.clock() - start
        stats = self.layers[layer]
        stats.calls += 1
        stats.total_s += duration
        stats.self_s += duration - child
        if self._stack:
            self._stack[-1][2] += duration

    @contextmanager
    def span(self, layer: str):
        """One span around code the benchmark runs itself."""
        self._open(layer)
        try:
            yield
        finally:
            self._close()

    def wrap(self, layer, func, prepare=None, on_result=None):
        """Return `func` wrapped in a span.

        `layer` is a name or a function of (args, kwargs) returning one.
        `prepare(args, kwargs)` runs on every call, nested ones too, and
        returns the arguments to pass on; `on_result(args, kwargs, result)`
        runs when an outermost call returns.
        """
        stack = self._stack

        def wrapper(*args, **kwargs):
            if prepare is not None:
                args, kwargs = prepare(args, kwargs)
            name = layer(args, kwargs) if callable(layer) else layer
            if stack and stack[-1][0] == name:
                return func(*args, **kwargs)
            self._open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                self._close()
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return wrapper

    # ------------------------------------------------------ installation

    def install(self, package: str, target: str, layer, prepare=None, on_result=None) -> bool:
        """Wrap `package.module:attr` (attr may be `Class.method`) everywhere.

        Modules bind imported names directly (`from .expr import
        eval_numeric`), so the wrapper replaces the original object in every
        loaded module of the package that holds it.  Returns False, and
        records the target as missing, when it does not exist.
        """
        module_name, _, attr = target.partition(":")
        module = sys.modules.get(module_name)
        owner_name, _, method = attr.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        original = owner.__dict__.get(method) if owner is not None else None
        if original is None:
            self.missing.append(target)
            return False
        wrapper = self.wrap(layer, original, prepare, on_result)
        if owner_name:
            self._replace(owner, method, wrapper)
            return True
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == package or name.startswith(package + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._replace(mod, key, wrapper)
        return True

    def _replace(self, owner, key, value):
        self._undo.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, value)

    def uninstall(self):
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)
