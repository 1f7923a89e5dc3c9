"""Shared utilities: errors, RNG handling, smoothing, validation, reporting."""

from .errors import (
    ConfigurationError,
    EncodingError,
    ReproError,
    SchedulingError,
    SimulationError,
    WorkloadError,
)
from .rng import RNGLike, derive_rng, ensure_rng, spawn_rngs
from .smoothing import ExponentialSmoother, SmoothedMap
from .tables import (
    format_bar_chart,
    format_key_values,
    format_series_table,
    format_table,
)
from .validation import (
    require_at_least,
    require_in_range,
    require_non_negative,
    require_positive,
    require_positive_int,
    require_probability,
)

__all__ = [
    # errors
    "ReproError",
    "ConfigurationError",
    "EncodingError",
    "SchedulingError",
    "SimulationError",
    "WorkloadError",
    # rng
    "RNGLike",
    "ensure_rng",
    "spawn_rngs",
    "derive_rng",
    # smoothing
    "ExponentialSmoother",
    "SmoothedMap",
    # tables
    "format_table",
    "format_series_table",
    "format_bar_chart",
    "format_key_values",
    # validation
    "require_positive",
    "require_non_negative",
    "require_probability",
    "require_in_range",
    "require_positive_int",
    "require_at_least",
]
