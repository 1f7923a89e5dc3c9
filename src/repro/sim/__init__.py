"""Discrete-event simulation of the master/worker dispatch protocol."""

from .engine import DiscreteEventEngine, EventQueue
from .events import Event, EventKind
from .fastpath import run_static_replay
from .master import Master
from .metrics import DynamicsStats, ProcessorStats, SimulationMetrics, compute_metrics
from .simulation import (
    DistributedSystemSimulation,
    DynamicsTimelineLike,
    SimulationConfig,
    SimulationResult,
    simulate_schedule,
)
from .trace import ExecutionTrace, TaskRecord
from .worker import WorkerState

__all__ = [
    "Event",
    "EventKind",
    "EventQueue",
    "DiscreteEventEngine",
    "Master",
    "WorkerState",
    "TaskRecord",
    "ExecutionTrace",
    "ProcessorStats",
    "DynamicsStats",
    "SimulationMetrics",
    "compute_metrics",
    "DynamicsTimelineLike",
    "SimulationConfig",
    "SimulationResult",
    "DistributedSystemSimulation",
    "simulate_schedule",
    "run_static_replay",
]
