"""Exception types shared across the pipeline, and the value rules that
configs share: one for seeds, one for rates.

The CLI maps these onto exit codes: usage problems exit 1, anything raised
as a :class:`DataError` or :class:`ConfigError` exits 2.
"""

import math
from numbers import Integral


class FarsilmError(Exception):
    """Base class for all errors raised by this package."""


class DataError(FarsilmError):
    """Malformed or inconsistent input data (files, records, labels)."""


class ConfigError(FarsilmError):
    """Invalid configuration values or incompatible component settings."""


def check_seed(seed: int) -> None:
    """Raise ConfigError unless ``seed`` is a non-negative integer, a NumPy
    one too; a bool, a float, a string or None is refused by name."""
    if isinstance(seed, bool) or not isinstance(seed, Integral) or seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed!r}")


def check_positive(name: str, value: float) -> None:
    """Raise ConfigError naming ``name`` unless ``value`` is finite and
    positive; NaN and infinity pass every ``<= 0`` test."""
    if not (math.isfinite(value) and value > 0):
        raise ConfigError(f"{name} must be a finite positive number, got {value}")
