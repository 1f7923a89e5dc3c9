"""Processor-availability variation models.

The paper assumes processors are *not dedicated*: background load from other
users partially consumes their resources, so the effective execution rate a
processor offers to the scheduler varies over time.  An availability model
maps simulation time to a fraction of the processor's peak rate in
``(0, 1]``.  All models are deterministic functions of time once constructed
(random models pre-draw their trajectory lazily from a private generator
keyed by time bucket), which keeps simulations reproducible and allows the
same trajectory to be re-evaluated at arbitrary times.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import List

import numpy as np

from ..util.errors import ConfigurationError
from ..util.rng import RNGLike, derive_rng, ensure_rng
from ..util.validation import (
    require_in_range,
    require_non_negative,
    require_positive,
    require_probability,
)

__all__ = [
    "AvailabilityModel",
    "ConstantAvailability",
    "SinusoidalAvailability",
    "RandomWalkAvailability",
]

#: Availability is clamped to this floor so a processor never fully stalls,
#: which would make makespans unbounded.
MIN_AVAILABILITY = 0.05


def _clamp(value: float) -> float:
    return float(min(1.0, max(MIN_AVAILABILITY, value)))


class AvailabilityModel(ABC):
    """Maps simulation time to the available fraction of a processor's peak rate."""

    @abstractmethod
    def availability(self, time: float) -> float:
        """Fraction of peak rate available at *time*; always in ``[0.05, 1]``."""

    def mean_availability(self, horizon: float = 1000.0, samples: int = 200) -> float:
        """Numerical mean availability over ``[0, horizon]`` (used for estimates)."""
        require_positive(horizon, "horizon")
        times = np.linspace(0.0, horizon, max(2, samples))
        return float(np.mean([self.availability(t) for t in times]))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class ConstantAvailability(AvailabilityModel):
    """A dedicated (or constantly loaded) processor: fixed availability."""

    def __init__(self, level: float = 1.0) -> None:
        self.level = _clamp(require_in_range(level, "level", MIN_AVAILABILITY, 1.0))

    def availability(self, time: float) -> float:
        return self.level

    def mean_availability(self, horizon: float = 1000.0, samples: int = 200) -> float:
        return self.level


class SinusoidalAvailability(AvailabilityModel):
    """Smooth periodic background load (e.g. diurnal usage patterns).

    ``availability(t) = base + amplitude * sin(2π t / period + phase)``, clamped.
    """

    def __init__(
        self,
        base: float = 0.75,
        amplitude: float = 0.2,
        period: float = 500.0,
        phase: float = 0.0,
    ) -> None:
        self.base = require_in_range(base, "base", MIN_AVAILABILITY, 1.0)
        self.amplitude = require_non_negative(amplitude, "amplitude")
        self.period = require_positive(period, "period")
        self.phase = float(phase)

    def availability(self, time: float) -> float:
        value = self.base + self.amplitude * math.sin(
            2.0 * math.pi * time / self.period + self.phase
        )
        return _clamp(value)


class RandomWalkAvailability(AvailabilityModel):
    """Mean-reverting random walk sampled on a fixed time grid.

    Availability is piecewise constant over buckets of ``step`` seconds; each
    bucket's value performs a bounded random walk around ``base`` with
    standard deviation ``sigma`` and mean-reversion strength ``reversion``.
    The trajectory is generated lazily but deterministically from the seed, so
    querying times out of order returns consistent values.
    """

    def __init__(
        self,
        base: float = 0.8,
        sigma: float = 0.05,
        step: float = 50.0,
        reversion: float = 0.2,
        seed: RNGLike = None,
    ) -> None:
        self.base = require_in_range(base, "base", MIN_AVAILABILITY, 1.0)
        self.sigma = require_non_negative(sigma, "sigma")
        self.step = require_positive(step, "step")
        self.reversion = require_probability(reversion, "reversion")
        self._seed = (
            seed
            if isinstance(seed, (int, np.integer))
            else ensure_rng(seed).integers(0, 2**31 - 1)
        )
        self._levels: List[float] = []

    def _extend_to(self, bucket: int) -> None:
        rng = derive_rng(int(self._seed), "random-walk", len(self._levels))
        while len(self._levels) <= bucket:
            prev = self._levels[-1] if self._levels else self.base
            # one fresh child stream per bucket keeps extension deterministic
            rng = derive_rng(int(self._seed), "random-walk", len(self._levels))
            noise = rng.normal(0.0, self.sigma)
            nxt = prev + self.reversion * (self.base - prev) + noise
            self._levels.append(_clamp(nxt))

    def availability(self, time: float) -> float:
        if time < 0:
            raise ConfigurationError(f"time must be >= 0, got {time}")
        bucket = int(time // self.step)
        self._extend_to(bucket)
        return self._levels[bucket]
