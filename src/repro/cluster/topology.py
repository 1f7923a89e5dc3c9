"""Cluster builders: convenient constructors for common system shapes."""

from __future__ import annotations

from typing import Tuple


from ..util.errors import ConfigurationError
from ..util.rng import RNGLike, spawn_rngs
from ..util.validation import require_non_negative, require_positive, require_positive_int
from .cluster import Cluster
from .network import build_random_network
from .processor import Processor
from .variation import (
    AvailabilityModel,
    ConstantAvailability,
    RandomWalkAvailability,
    SinusoidalAvailability,
)

__all__ = [
    "homogeneous_cluster",
    "heterogeneous_cluster",
    "varying_availability_cluster",
]

#: Default range of peak rates (Mflop/s) for heterogeneous clusters; roughly the
#: span of desktop machines available around the paper's publication date.
DEFAULT_RATE_RANGE = (50.0, 500.0)


def homogeneous_cluster(
    n_processors: int,
    rate_mflops: float = 100.0,
    *,
    mean_comm_cost: float = 0.0,
    rng: RNGLike = None,
) -> Cluster:
    """A cluster of identical, dedicated processors.

    Used to validate the ZO baseline against its original homogeneous setting
    and for unit tests where heterogeneity is irrelevant.
    """
    n_processors = require_positive_int(n_processors, "n_processors")
    require_positive(rate_mflops, "rate_mflops")
    require_non_negative(mean_comm_cost, "mean_comm_cost")
    processors = [Processor(proc_id=i, peak_rate_mflops=rate_mflops) for i in range(n_processors)]
    network = build_random_network(
        n_processors, mean_comm_cost, link_mean_spread=0.0, relative_std=0.0, rng=rng
    )
    return Cluster(processors, network)


def heterogeneous_cluster(
    n_processors: int,
    *,
    rate_range: Tuple[float, float] = DEFAULT_RATE_RANGE,
    mean_comm_cost: float = 0.0,
    link_mean_spread: float = 0.5,
    comm_relative_std: float = 0.25,
    rng: RNGLike = None,
) -> Cluster:
    """A cluster of dedicated processors with uniformly random peak rates.

    This is the fixed-execution-rate system of the paper's Sect. 4.2
    experiments ("each processor was assumed to have a fixed execution rate").
    """
    n_processors = require_positive_int(n_processors, "n_processors")
    low, high = rate_range
    require_positive(low, "rate_range low")
    require_positive(high, "rate_range high")
    if high < low:
        raise ConfigurationError(f"rate_range high ({high}) must be >= low ({low})")
    proc_rng, net_rng = spawn_rngs(rng, 2)
    rates = proc_rng.uniform(low, high, size=n_processors)
    processors = [
        Processor(proc_id=i, peak_rate_mflops=float(rates[i])) for i in range(n_processors)
    ]
    network = build_random_network(
        n_processors,
        mean_comm_cost,
        link_mean_spread=link_mean_spread,
        relative_std=comm_relative_std,
        rng=net_rng,
    )
    return Cluster(processors, network)


def varying_availability_cluster(
    n_processors: int,
    *,
    rate_range: Tuple[float, float] = DEFAULT_RATE_RANGE,
    mean_comm_cost: float = 0.0,
    dedicated_fraction: float = 0.3,
    rng: RNGLike = None,
) -> Cluster:
    """A cluster mixing dedicated and non-dedicated processors.

    A fraction of the processors are dedicated (constant availability); the
    rest alternate between sinusoidal background load and mean-reverting
    random-walk load.  This is the "variable system resources" environment of
    Sect. 3 that the fixed-rate experiments abstract away.
    """
    n_processors = require_positive_int(n_processors, "n_processors")
    if not (0.0 <= dedicated_fraction <= 1.0):
        raise ConfigurationError(
            f"dedicated_fraction must lie in [0, 1], got {dedicated_fraction}"
        )
    proc_rng, net_rng, avail_rng = spawn_rngs(rng, 3)
    low, high = rate_range
    rates = proc_rng.uniform(low, high, size=n_processors)
    processors = []
    for i in range(n_processors):
        if proc_rng.random() < dedicated_fraction:
            model: AvailabilityModel = ConstantAvailability(1.0)
        elif i % 2 == 0:
            model = SinusoidalAvailability(
                base=float(avail_rng.uniform(0.6, 0.9)),
                amplitude=float(avail_rng.uniform(0.05, 0.25)),
                period=float(avail_rng.uniform(200.0, 800.0)),
                phase=float(avail_rng.uniform(0.0, 6.28)),
            )
        else:
            model = RandomWalkAvailability(
                base=float(avail_rng.uniform(0.6, 0.9)),
                sigma=float(avail_rng.uniform(0.02, 0.1)),
                step=float(avail_rng.uniform(20.0, 100.0)),
                seed=int(avail_rng.integers(0, 2**31 - 1)),
            )
        processors.append(
            Processor(proc_id=i, peak_rate_mflops=float(rates[i]), availability=model)
        )
    network = build_random_network(n_processors, mean_comm_cost, rng=net_rng)
    return Cluster(processors, network)
