"""Task arrival processes.

The paper's headline experiments submit every task at the start of the
simulation (:class:`AllAtOnce`), but the scheduler itself is *dynamic*: it is
designed for tasks arriving continuously.  The additional arrival processes
here (Poisson, uniform-over-window, bursty) are used by the dynamic-arrival
example and by the extension benches.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Sequence

import numpy as np

from ..util.errors import ConfigurationError
from ..util.rng import RNGLike, ensure_rng
from ..util.validation import require_non_negative, require_positive, require_positive_int

__all__ = [
    "ArrivalProcess",
    "AllAtOnce",
    "PoissonArrivals",
    "UniformArrivals",
    "BurstArrivals",
    "PiecewiseRateArrivals",
]


class ArrivalProcess(ABC):
    """Base class for arrival-time generators."""

    @abstractmethod
    def times(self, n: int, rng: RNGLike = None) -> np.ndarray:
        """Return *n* non-decreasing arrival times (seconds from simulation start)."""

    @property
    @abstractmethod
    def name(self) -> str:
        """Short human-readable name of the process."""

    def _check_n(self, n: int) -> int:
        if n < 0:
            raise ConfigurationError(f"number of arrivals must be >= 0, got {n}")
        return int(n)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.name})"


class AllAtOnce(ArrivalProcess):
    """Every task arrives at the same instant (time ``at``, default 0).

    This is the arrival model of the paper's experiments (Sect. 4.2: "All of
    the tasks arrived for scheduling at the beginning of the simulation").
    """

    def __init__(self, at: float = 0.0) -> None:
        self.at = require_non_negative(at, "arrival instant")

    def times(self, n: int, rng: RNGLike = None) -> np.ndarray:
        n = self._check_n(n)
        return np.full(n, self.at, dtype=float)

    @property
    def name(self) -> str:
        return f"all-at-once(t={self.at:g})"


class PoissonArrivals(ArrivalProcess):
    """Arrivals following a homogeneous Poisson process with the given rate.

    Inter-arrival gaps are exponential with mean ``1 / rate_per_second``.
    """

    def __init__(self, rate_per_second: float, start: float = 0.0) -> None:
        self.rate_per_second = require_positive(rate_per_second, "rate_per_second")
        self.start = require_non_negative(start, "start")

    def times(self, n: int, rng: RNGLike = None) -> np.ndarray:
        n = self._check_n(n)
        gen = ensure_rng(rng)
        if n == 0:
            return np.empty(0, dtype=float)
        gaps = gen.exponential(1.0 / self.rate_per_second, size=n)
        return self.start + np.cumsum(gaps)

    @property
    def name(self) -> str:
        return f"poisson-arrivals(rate={self.rate_per_second:g}/s)"


class UniformArrivals(ArrivalProcess):
    """Arrival times uniformly scattered over ``[start, start + duration]``."""

    def __init__(self, duration: float, start: float = 0.0) -> None:
        self.duration = require_positive(duration, "duration")
        self.start = require_non_negative(start, "start")

    def times(self, n: int, rng: RNGLike = None) -> np.ndarray:
        n = self._check_n(n)
        gen = ensure_rng(rng)
        if n == 0:
            return np.empty(0, dtype=float)
        return np.sort(gen.uniform(self.start, self.start + self.duration, size=n))

    @property
    def name(self) -> str:
        return f"uniform-arrivals([{self.start:g}, {self.start + self.duration:g}])"


class BurstArrivals(ArrivalProcess):
    """Arrivals grouped into evenly spaced bursts.

    ``n`` tasks are split as evenly as possible into ``n_bursts`` groups, and
    burst *k* arrives at ``start + k * gap``.  This models clients submitting
    whole job sets periodically.
    """

    def __init__(self, n_bursts: int, gap: float, start: float = 0.0) -> None:
        self.n_bursts = require_positive_int(n_bursts, "n_bursts")
        self.gap = require_positive(gap, "gap")
        self.start = require_non_negative(start, "start")

    def times(self, n: int, rng: RNGLike = None) -> np.ndarray:
        n = self._check_n(n)
        if n == 0:
            return np.empty(0, dtype=float)
        burst_index = np.minimum(
            np.arange(n) * self.n_bursts // max(n, 1), self.n_bursts - 1
        )
        return self.start + burst_index.astype(float) * self.gap

    @property
    def name(self) -> str:
        return f"bursts(n={self.n_bursts}, gap={self.gap:g})"


class PiecewiseRateArrivals(ArrivalProcess):
    """Inhomogeneous Poisson arrivals with a piecewise-constant rate profile.

    The profile is a sequence of ``(duration, rate)`` segments; beyond the
    last segment the final rate continues indefinitely, so any number of
    arrivals is well-defined.  Sampling uses the time-change theorem: unit-rate
    exponential gaps are accumulated into "warped" times and mapped back
    through the inverse of the (piecewise-linear) cumulative intensity, which
    is exact and fully vectorised — million-task profiles draw one
    ``exponential`` block and one ``searchsorted``.  This is the diurnal /
    bursty traffic model the homogeneous-rate processes above cannot express.
    """

    def __init__(
        self,
        durations: Sequence[float],
        rates: Sequence[float],
        start: float = 0.0,
    ) -> None:
        durations = tuple(float(d) for d in durations)
        rates = tuple(float(r) for r in rates)
        if not durations or len(durations) != len(rates):
            raise ConfigurationError(
                "piecewise-rate profile needs equally many durations and rates "
                f"(got {len(durations)} durations, {len(rates)} rates)"
            )
        for duration in durations:
            require_positive(duration, "segment duration")
        for rate in rates:
            require_positive(rate, "segment rate")
        self.durations = durations
        self.rates = rates
        self.start = require_non_negative(start, "start")

    def times(self, n: int, rng: RNGLike = None) -> np.ndarray:
        n = self._check_n(n)
        gen = ensure_rng(rng)
        if n == 0:
            return np.empty(0, dtype=float)
        warped = np.cumsum(gen.exponential(1.0, size=n))
        return self.start + self.unwarp(warped)

    def unwarp(self, warped: np.ndarray) -> np.ndarray:
        """Map unit-rate ("warped") times through the inverse cumulative intensity."""
        durations = np.asarray(self.durations, dtype=float)
        rates = np.asarray(self.rates, dtype=float)
        # Cumulative intensity at each segment end; segment k covers warped
        # times in (intensity_ends[k-1], intensity_ends[k]].
        intensity_ends = np.cumsum(durations * rates)
        segment_starts = np.concatenate(([0.0], np.cumsum(durations)[:-1]))
        intensity_starts = np.concatenate(([0.0], intensity_ends[:-1]))
        index = np.minimum(
            np.searchsorted(intensity_ends, warped, side="left"), len(rates) - 1
        )
        return segment_starts[index] + (warped - intensity_starts[index]) / rates[index]

    @property
    def name(self) -> str:
        mean = sum(d * r for d, r in zip(self.durations, self.rates)) / sum(
            self.durations
        )
        return (
            f"piecewise-rate({len(self.rates)} segments, "
            f"mean={mean:g}/s over {sum(self.durations):g}s)"
        )
