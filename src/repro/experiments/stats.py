"""Small statistics helpers used by the experiment harness."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from ..util.errors import ConfigurationError

__all__ = ["SampleSummary", "summarise"]


@dataclass(frozen=True)
class SampleSummary:
    """Summary statistics of repeated measurements of one quantity."""

    mean: float
    std: float
    minimum: float
    maximum: float
    count: int

    @property
    def standard_error(self) -> float:
        """Standard error of the mean."""
        return self.std / math.sqrt(self.count) if self.count > 0 else 0.0

    def confidence_interval(self, z: float = 1.96) -> tuple[float, float]:
        """Normal-approximation confidence interval around the mean."""
        half = z * self.standard_error
        return (self.mean - half, self.mean + half)

    def __format__(self, spec: str) -> str:
        spec = spec or ".4g"
        return f"{format(self.mean, spec)} ± {format(self.std, spec)}"


def summarise(values: Iterable[float]) -> SampleSummary:
    """Summarise a sequence of repeated measurements."""
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise ConfigurationError("cannot summarise an empty sample")
    if not np.all(np.isfinite(arr)):
        raise ConfigurationError("sample contains non-finite values")
    return SampleSummary(
        mean=float(arr.mean()),
        std=float(arr.std(ddof=1)) if arr.size > 1 else 0.0,
        minimum=float(arr.min()),
        maximum=float(arr.max()),
        count=int(arr.size),
    )
