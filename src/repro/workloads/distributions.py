"""Task-size distributions (Sect. 4 of the paper).

The paper generates random task sizes from three families — uniform, normal
and Poisson — to demonstrate that the scheduler is not tuned to a single
workload shape.  Each distribution here produces sizes in MFLOPs and clamps
samples to a configurable positive minimum so that degenerate (zero or
negative) task sizes can never be produced.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

import numpy as np

from ..util.errors import ConfigurationError
from ..util.rng import RNGLike, ensure_rng
from ..util.validation import require_non_negative, require_positive

__all__ = [
    "SizeDistribution",
    "UniformSizes",
    "NormalSizes",
    "PoissonSizes",
]

#: Smallest admissible task size in MFLOPs; samples below it are clamped.
DEFAULT_MINIMUM_MFLOPS = 1.0


class SizeDistribution(ABC):
    """Base class for random task-size generators.

    Subclasses implement :meth:`_raw_sample`; the public :meth:`sample`
    clamps to the configured minimum so every task size is strictly positive.
    """

    def __init__(self, minimum: float = DEFAULT_MINIMUM_MFLOPS) -> None:
        self.minimum = require_positive(minimum, "minimum task size")

    @abstractmethod
    def _raw_sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw *n* raw (unclamped) samples."""

    @abstractmethod
    def mean(self) -> float:
        """Theoretical mean of the (unclamped) distribution, in MFLOPs."""

    @property
    @abstractmethod
    def name(self) -> str:
        """Short human-readable name, e.g. ``"normal(1000, 9e+05)"``."""

    def sample(self, n: int, rng: RNGLike = None) -> np.ndarray:
        """Draw *n* task sizes (MFLOPs), clamped to the minimum size."""
        if n < 0:
            raise ConfigurationError(f"number of samples must be >= 0, got {n}")
        gen = ensure_rng(rng)
        if n == 0:
            return np.empty(0, dtype=float)
        raw = np.asarray(self._raw_sample(gen, n), dtype=float)
        return np.maximum(raw, self.minimum)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.name})"


class UniformSizes(SizeDistribution):
    """Task sizes uniformly distributed on ``[low, high]`` MFLOPs."""

    def __init__(self, low: float, high: float, minimum: float = DEFAULT_MINIMUM_MFLOPS):
        super().__init__(minimum)
        self.low = require_positive(low, "low")
        self.high = require_positive(high, "high")
        if self.high < self.low:
            raise ConfigurationError(f"high ({high}) must be >= low ({low})")

    def _raw_sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.uniform(self.low, self.high, size=n)

    def mean(self) -> float:
        return 0.5 * (self.low + self.high)

    @property
    def name(self) -> str:
        return f"uniform({self.low:g}, {self.high:g})"


class NormalSizes(SizeDistribution):
    """Task sizes from a normal distribution, parameterised by mean and variance.

    The paper's normal workload uses a mean of 1000 MFLOPs and a variance of
    ``9 x 10^5`` MFLOPs².  Samples are clamped at the minimum size, which is
    the usual way a truncated-at-zero "normal" task size model is realised.
    """

    def __init__(
        self,
        mean: float,
        variance: float,
        minimum: float = DEFAULT_MINIMUM_MFLOPS,
    ):
        super().__init__(minimum)
        self._mean = require_positive(mean, "mean")
        self.variance = require_non_negative(variance, "variance")

    @property
    def std(self) -> float:
        """Standard deviation in MFLOPs."""
        return math.sqrt(self.variance)

    def _raw_sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.normal(self._mean, self.std, size=n)

    def mean(self) -> float:
        return self._mean

    @property
    def name(self) -> str:
        return f"normal({self._mean:g}, {self.variance:g})"


class PoissonSizes(SizeDistribution):
    """Task sizes drawn from a Poisson distribution with the given mean."""

    def __init__(self, mean: float, minimum: float = DEFAULT_MINIMUM_MFLOPS):
        super().__init__(minimum)
        self._mean = require_positive(mean, "mean")

    def _raw_sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.poisson(self._mean, size=n).astype(float)

    def mean(self) -> float:
        return self._mean

    @property
    def name(self) -> str:
        return f"poisson({self._mean:g})"
