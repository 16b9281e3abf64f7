"""Shared exception types."""

from __future__ import annotations


class FibcatError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(FibcatError, ValueError):
    """An operation was applied outside its mathematical domain."""


class UnboundVariableError(FibcatError):
    """Evaluation hit a variable with no binding in the environment."""

    def __init__(self, name: str, where: object = None):
        self.name = name
        self.where = where
        msg = f"unbound variable {name!r}"
        if where is not None:
            msg += f" in {where!r}"
        super().__init__(msg)


class ConvergenceError(FibcatError):
    """An iterative scheme hit its cap before reaching the requested accuracy.

    Carries the best estimate and the last observed gap so callers can
    report how far the computation got.
    """

    def __init__(self, message: str, best=None, gap=None):
        super().__init__(message)
        self.best = best
        self.gap = gap


class TailBoundViolation(FibcatError):
    """A declared geometric term ratio was exceeded by the actual terms."""

    def __init__(self, n: int, observed, declared):
        self.n = n
        self.observed = observed
        self.declared = declared
        super().__init__(
            f"term ratio at n={n} is {observed} which exceeds the declared bound {declared}"
        )


class ParseError(FibcatError):
    """Syntax error in the expression or registry language."""

    def __init__(self, message: str, line: int = 1, column: int = 0, expected=()):
        self.line = line
        self.column = column
        self.expected = frozenset(expected)
        loc = f"line {line}, column {column}"
        if expected:
            message += " (expected one of: " + ", ".join(sorted(self.expected)) + ")"
        super().__init__(f"{loc}: {message}")


class UnsupportedRecordError(FibcatError):
    """Record cannot be handled by the requested check (e.g. nested radicals)."""
