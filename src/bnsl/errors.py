"""Shared exception types, and the check of a config's number fields."""

from __future__ import annotations

import numbers


class InvalidInput(ValueError):
    """Raised when an argument violates a documented precondition."""


def check_number_types(config, integers=(), reals=()) -> None:
    """Raise ``InvalidInput`` unless each named field of ``config`` is an
    integer (``integers``) or a real number (``reals``); a bool is neither."""
    for names, kind, what in ((integers, numbers.Integral, "an integer"),
                              (reals, numbers.Real, "a real number")):
        for name in names:
            value = getattr(config, name)
            if isinstance(value, bool) or not isinstance(value, kind):
                raise InvalidInput(f"{name} must be {what}, got {value!r}")


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
