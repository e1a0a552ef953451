"""Exception types shared across the package, and the field check of its parameter classes."""

import math
from dataclasses import fields, is_dataclass
from numbers import Real


class MalformedFileError(ValueError):
    """Input file does not match its expected binary layout."""


class ContractViolationError(ValueError):
    """An operation was called with arguments violating its preconditions."""


class FitFailureError(RuntimeError):
    """No plane is determined: fewer than 3 points, or they lie on a line."""


class ConfigError(ValueError):
    """Invalid, unknown, or inconsistent configuration."""


def check_fields(params, positive=()) -> None:
    """Raise a ConfigError naming the first field of dataclass ``params``,
    nested dataclasses aside, that is not a finite real number (a ``bool``
    is not one), or else the first of ``positive`` that is not positive."""
    for f in fields(params):
        value = getattr(params, f.name)
        if is_dataclass(value):
            continue
        if isinstance(value, bool) or not isinstance(value, Real):
            raise ConfigError(f"{f.name} must be a number, got {value!r}")
        if not math.isfinite(value):
            raise ConfigError(f"{f.name} must be finite, got {value}")
    for name in positive:
        if getattr(params, name) <= 0:
            raise ConfigError(f"{name} must be positive")
