"""Shared exception types, and the checks of number arguments, node indices
and fields."""

from __future__ import annotations

import numbers


class InvalidInput(ValueError):
    """Raised when an argument violates a documented precondition."""


def check_number(name: str, value, real: bool = False, least=None) -> None:
    """Raise ``InvalidInput`` unless ``value`` is an integer, or a real number
    when ``real`` (a bool is neither), and, given ``least``, at least that."""
    if type(value) is not int:  # a plain int is both; a bool is neither
        kind, what = ((numbers.Real, "a real number") if real
                      else (numbers.Integral, "an integer"))
        if isinstance(value, bool) or not isinstance(value, kind):
            raise InvalidInput(f"{name} must be {what}, got {value!r}")
    if least is not None and value < least:
        raise InvalidInput(f"{name} must be >= {least}, got {value!r}")


def check_nodes(name: str, values, n=None) -> tuple[int, ...]:
    """``values`` as a tuple of plain ints.  Raise ``InvalidInput`` unless
    each is an integer (``check_number``) and, given ``n``, in 0..n-1."""
    out = []
    for v in values:
        if type(v) is not int:  # a bool is not a plain int
            check_number(name, v)
            v = int(v)
        if n is not None and not 0 <= v < n:
            raise InvalidInput(f"{name} {v} outside 0..{n - 1}")
        out.append(v)
    return tuple(out)


def check_number_types(config, integers=(), reals=()) -> None:
    """``check_number`` of each named field of ``config``: ``integers`` must
    be integers and ``reals`` real numbers."""
    for name in integers:
        check_number(name, getattr(config, name))
    for name in reals:
        check_number(name, getattr(config, name), real=True)


class NetworkFormatError(InvalidInput):
    """Raised on a malformed network document; carries the offending line."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ConditioningSetTooLarge(RuntimeError):
    """Raised when a conditional test would allocate too many count cells."""


class FamilyTooLarge(RuntimeError):
    """Raised when a child/parent-set count table would exceed the cell budget."""


class BudgetExceeded(RuntimeError):
    """Raised when a parent-set enumeration would exceed the subset budget."""


class PipelineStageError(RuntimeError):
    """Wraps a failure inside a named pipeline stage."""

    def __init__(self, stage: str, cause: BaseException):
        self.stage = stage
        self.cause = cause
        super().__init__(f"stage '{stage}' failed: {cause}")
