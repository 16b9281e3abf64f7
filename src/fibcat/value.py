"""The one base of fibcat's value classes: tree nodes, records, results.

A subclass names its fields in `__slots__`, in order, and the defaults of
its last fields in `_defaults`.  It gets what a frozen dataclass would give
without generating code when the class is made, which every run pays at
import: construction by position or keyword, `==` and `hash` over the class
and the fields, a `repr`, refusal of assignment, `replace(**changes)` and
pickling.  A subclass that checks its fields does so in its own
`__init__`, which `replace` runs too.
"""

from __future__ import annotations

from operator import attrgetter

_no_fields = staticmethod(lambda value: ())


class Value:
    __slots__ = ()
    _defaults: dict = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "__slots__" not in cls.__dict__:
            raise TypeError(f"{cls.__name__} names no __slots__")
        # the fields as one value, for == and hash
        cls._key = attrgetter(*cls.__slots__) if cls.__slots__ else _no_fields
        # each field's own setter, which the refusing __setattr__ does not see
        cls._setters = tuple([cls.__dict__[field].__set__ for field in cls.__slots__])

    def __init__(self, *args, **kwargs):
        setters = self._setters
        if kwargs or len(args) != len(setters):
            args = self._arguments(args, kwargs)
        i = 0
        for value in args:  # by index: faster than zip on a short tuple
            setters[i](self, value)
            i += 1

    def _arguments(self, args: tuple, kwargs: dict) -> list:
        fields, name = self.__slots__, type(self).__name__
        if len(args) > len(fields):
            raise TypeError(f"{name} takes {len(fields)} arguments, got {len(args)}")
        values = list(args)
        for field in fields[len(args):]:
            if field in kwargs:
                values.append(kwargs.pop(field))
            elif field in self._defaults:
                values.append(self._defaults[field])
            else:
                raise TypeError(f"{name} is missing the argument {field!r}")
        if kwargs:  # an unknown field, or one given by position too
            raise TypeError(f"{name} got an unexpected argument {next(iter(kwargs))!r}")
        return values

    def _values(self) -> tuple:
        return tuple([getattr(self, field) for field in self.__slots__])

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key(self) == other._key(other)

    def __hash__(self):
        return hash((type(self).__name__, self._key(self)))

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self.__slots__, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")

    def __reduce__(self):
        return type(self), self._values()

    def replace(self, **changes):
        """A copy with the given fields changed, checked as a new value is."""
        return type(self)(**{**dict(zip(self.__slots__, self._values())), **changes})
