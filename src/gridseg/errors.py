"""Exception types shared across the package, and the field check of its parameter classes."""

import math
from dataclasses import fields, is_dataclass


class MalformedFileError(ValueError):
    """Input file does not match its expected binary layout."""


class ContractViolationError(ValueError):
    """An operation was called with arguments violating its preconditions."""


class FitFailureError(RuntimeError):
    """Robust model fitting could not produce a valid model."""


class ConfigError(ValueError):
    """Invalid, unknown, or inconsistent configuration."""


def check_fields(params, positive=()) -> None:
    """Raise a ConfigError naming the first number field of dataclass ``params``
    that is not finite, or else the first of ``positive`` that is not positive."""
    for f in fields(params):
        value = getattr(params, f.name)
        if not is_dataclass(value) and not math.isfinite(value):
            raise ConfigError(f"{f.name} must be finite, got {value}")
    for name in positive:
        if getattr(params, name) <= 0:
            raise ConfigError(f"{name} must be positive")
