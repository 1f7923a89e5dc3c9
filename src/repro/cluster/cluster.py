"""Cluster: the set of processors plus the star network connecting them."""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence

import numpy as np

from ..util.errors import ConfigurationError
from ..util.validation import require_non_negative
from .network import CommLink, Network
from .processor import Processor

__all__ = ["Cluster"]


class Cluster:
    """A heterogeneous distributed system as seen by the scheduler.

    A cluster couples an ordered list of :class:`Processor` objects with a
    :class:`Network` holding one link per processor.  Processor ids must be
    the consecutive integers ``0 .. M-1`` — schedulers and the GA encoding
    index processors positionally.
    """

    def __init__(self, processors: Sequence[Processor], network: Optional[Network] = None):
        if not processors:
            raise ConfigurationError("a cluster requires at least one processor")
        ids = [p.proc_id for p in processors]
        expected = list(range(len(processors)))
        if sorted(ids) != expected:
            raise ConfigurationError(
                f"processor ids must be exactly 0..{len(processors) - 1}, got {sorted(ids)}"
            )
        self._processors: List[Processor] = sorted(processors, key=lambda p: p.proc_id)
        if network is None:
            network = Network(
                [CommLink(proc_id=p.proc_id, mean_cost=0.0) for p in self._processors]
            )
        if sorted(network.proc_ids) != expected:
            raise ConfigurationError("network must have exactly one link per processor")
        self._network = network

    # -- container protocol ----------------------------------------------------------
    def __len__(self) -> int:
        return len(self._processors)

    def __iter__(self) -> Iterator[Processor]:
        return iter(self._processors)

    def __getitem__(self, proc_id: int) -> Processor:
        return self._processors[proc_id]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Cluster(n_processors={len(self)}, total_peak={self.total_peak_rate():.4g} Mflop/s)"

    # -- accessors ---------------------------------------------------------------------
    @property
    def processors(self) -> List[Processor]:
        """Processors ordered by id."""
        return list(self._processors)

    @property
    def network(self) -> Network:
        """The star network connecting the scheduler to every processor."""
        return self._network

    @property
    def n_processors(self) -> int:
        """Number of processors in the cluster."""
        return len(self._processors)

    def peak_rates(self) -> np.ndarray:
        """Peak Mflop/s of each processor, ordered by id."""
        return np.array([p.peak_rate_mflops for p in self._processors], dtype=float)

    def current_rates(self, time: float = 0.0) -> np.ndarray:
        """Effective Mflop/s of each processor at *time*, ordered by id."""
        require_non_negative(time, "time")
        return np.array([p.current_rate(time) for p in self._processors], dtype=float)

    def total_peak_rate(self) -> float:
        """Aggregate peak computing power of the cluster (Mflop/s)."""
        return float(self.peak_rates().sum())

    def heterogeneity(self) -> float:
        """Coefficient of variation of peak rates (0 for a homogeneous cluster)."""
        rates = self.peak_rates()
        mean = rates.mean()
        return float(rates.std() / mean) if mean > 0 else 0.0

    def mean_comm_cost(self, time: float = 0.0) -> float:
        """Mean of the per-link effective communication costs at *time*."""
        return self._network.overall_mean_cost(time)

    # -- derived clusters ---------------------------------------------------------------
    def with_comm_scale(self, factor: float) -> "Cluster":
        """Return a cluster whose per-link mean comm costs are scaled by *factor*."""
        return Cluster(self._processors, self._network.scaled(factor))

    def describe(self) -> Dict[str, float]:
        """Summary statistics used by experiment reports."""
        rates = self.peak_rates()
        return {
            "n_processors": float(len(self)),
            "total_peak_mflops": float(rates.sum()),
            "min_peak_mflops": float(rates.min()),
            "max_peak_mflops": float(rates.max()),
            "heterogeneity_cv": self.heterogeneity(),
            "mean_comm_cost": self.mean_comm_cost(),
        }
