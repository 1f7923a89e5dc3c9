"""Small argument-validation helpers shared across the library.

These helpers raise :class:`~repro.util.errors.ConfigurationError` (a
``ValueError`` subclass) with uniform, descriptive messages.  They exist so
constructors throughout the package stay short and the error wording stays
consistent.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError

__all__ = [
    "require_positive",
    "require_non_negative",
    "require_probability",
    "require_in_range",
    "require_positive_int",
    "require_at_least",
]


def require_positive(value: float, name: str) -> float:
    """Return *value* if it is strictly positive, else raise."""
    value = float(value)
    if not np.isfinite(value) or value <= 0:
        raise ConfigurationError(f"{name} must be a finite positive number, got {value}")
    return value


def require_non_negative(value: float, name: str) -> float:
    """Return *value* if it is >= 0, else raise."""
    value = float(value)
    if not np.isfinite(value) or value < 0:
        raise ConfigurationError(f"{name} must be a finite non-negative number, got {value}")
    return value


def require_probability(value: float, name: str) -> float:
    """Return *value* if it lies in the closed interval [0, 1], else raise."""
    value = float(value)
    if not np.isfinite(value) or not (0.0 <= value <= 1.0):
        raise ConfigurationError(f"{name} must lie in [0, 1], got {value}")
    return value


def require_in_range(
    value: float,
    name: str,
    low: float,
    high: float,
    *,
    inclusive: bool = True,
) -> float:
    """Return *value* if it lies in the interval [low, high] (or (low, high))."""
    value = float(value)
    ok = (low <= value <= high) if inclusive else (low < value < high)
    if not np.isfinite(value) or not ok:
        bracket = "[]" if inclusive else "()"
        raise ConfigurationError(
            f"{name} must lie in {bracket[0]}{low}, {high}{bracket[1]}, got {value}"
        )
    return value


def require_positive_int(value: int, name: str) -> int:
    """Return *value* as ``int`` if it is a strictly positive integer."""
    if isinstance(value, bool) or int(value) != value or int(value) <= 0:
        raise ConfigurationError(f"{name} must be a positive integer, got {value!r}")
    return int(value)


def require_at_least(value: int, minimum: int, name: str) -> int:
    """Return *value* as ``int`` if it is an integer >= *minimum*."""
    if isinstance(value, bool) or int(value) != value or int(value) < minimum:
        raise ConfigurationError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)
