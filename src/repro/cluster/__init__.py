"""Cluster models: processors, availability variation, network links, topologies."""

from .cluster import Cluster
from .network import CommLink, Network, build_random_network
from .processor import Processor
from .topology import (
    heterogeneous_cluster,
    homogeneous_cluster,
    varying_availability_cluster,
)
from .variation import (
    AvailabilityModel,
    ConstantAvailability,
    RandomWalkAvailability,
    SinusoidalAvailability,
)

__all__ = [
    "Cluster",
    "Processor",
    "CommLink",
    "Network",
    "build_random_network",
    "AvailabilityModel",
    "ConstantAvailability",
    "SinusoidalAvailability",
    "RandomWalkAvailability",
    "homogeneous_cluster",
    "heterogeneous_cluster",
    "varying_availability_cluster",
]
