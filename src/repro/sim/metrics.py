"""Simulation metrics: makespan, efficiency and per-processor statistics.

The paper evaluates schedulers with two related metrics (Sect. 4):

* **makespan** — the total execution time of the schedule, i.e. the time the
  last task completes;
* **efficiency** — "the percentage of the time that processors actually spend
  processing rather than communicating or idling", i.e. the total execution
  seconds divided by ``M × makespan``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..util.errors import SimulationError
from .trace import ExecutionTrace

__all__ = ["ProcessorStats", "DynamicsStats", "SimulationMetrics", "compute_metrics"]


@dataclass(frozen=True)
class DynamicsStats:
    """Cluster-dynamics accounting collected by the simulator.

    The fault counters (failures, recoveries, joins, re-queues, injections,
    downtime) are zero for a static simulation, so the paper's original
    metrics are unchanged.  ``queue_length_trajectory`` is recorded in
    *every* run — static ones included: it samples ``(time, unscheduled,
    queued)`` — the master's unscheduled FCFS backlog and the total of the
    per-processor queues — at every scheduler invocation and dynamics event.
    """

    tasks_rescheduled: int = 0
    tasks_reclaimed: int = 0
    tasks_redirected: int = 0
    worker_failures: int = 0
    worker_recoveries: int = 0
    worker_joins: int = 0
    tasks_injected: int = 0
    worker_downtime_seconds: float = 0.0
    queue_length_trajectory: Tuple[Tuple[float, int, int], ...] = ()


@dataclass(frozen=True)
class ProcessorStats:
    """Per-processor accounting over the whole simulation."""

    proc_id: int
    tasks_completed: int
    busy_seconds: float
    comm_seconds: float
    idle_seconds: float
    mflops_processed: float

    @property
    def utilisation(self) -> float:
        """Fraction of the makespan the processor spent executing tasks."""
        total = self.busy_seconds + self.comm_seconds + self.idle_seconds
        return self.busy_seconds / total if total > 0 else 0.0


@dataclass(frozen=True)
class SimulationMetrics:
    """Aggregate outcome of one simulated schedule."""

    makespan: float
    efficiency: float
    total_busy_seconds: float
    total_comm_seconds: float
    total_idle_seconds: float
    tasks_completed: int
    total_mflops: float
    mean_response_time: float
    mean_queue_wait: float
    per_processor: List[ProcessorStats] = field(default_factory=list)
    #: Fault-injection accounting; all-zero for static simulations.
    dynamics: DynamicsStats = field(default_factory=DynamicsStats)

    @property
    def n_processors(self) -> int:
        """Number of processors the metrics were computed over."""
        return len(self.per_processor)

    @property
    def throughput_tasks_per_second(self) -> float:
        """Completed tasks per second of makespan."""
        return self.tasks_completed / self.makespan if self.makespan > 0 else 0.0

    @property
    def communication_fraction(self) -> float:
        """Fraction of the total processor-time spent communicating."""
        denominator = self.makespan * self.n_processors
        return self.total_comm_seconds / denominator if denominator > 0 else 0.0

    @property
    def idle_fraction(self) -> float:
        """Fraction of the total processor-time spent idle."""
        denominator = self.makespan * self.n_processors
        return self.total_idle_seconds / denominator if denominator > 0 else 0.0

    @property
    def mean_queue_length(self) -> float:
        """Mean sampled backlog (unscheduled + queued) over the trajectory."""
        trajectory = self.dynamics.queue_length_trajectory
        if not trajectory:
            return 0.0
        return float(np.mean([unscheduled + queued for _, unscheduled, queued in trajectory]))

    def summary(self) -> Dict[str, float]:
        """Flat dictionary of the headline numbers (for reports and tests)."""
        return {
            "makespan": self.makespan,
            "efficiency": self.efficiency,
            "tasks_completed": float(self.tasks_completed),
            "total_mflops": self.total_mflops,
            "mean_response_time": self.mean_response_time,
            "mean_queue_wait": self.mean_queue_wait,
            "communication_fraction": self.communication_fraction,
            "idle_fraction": self.idle_fraction,
            "throughput_tasks_per_second": self.throughput_tasks_per_second,
            "tasks_rescheduled": float(self.dynamics.tasks_rescheduled),
            "tasks_reclaimed": float(self.dynamics.tasks_reclaimed),
            "tasks_redirected": float(self.dynamics.tasks_redirected),
            "worker_downtime_seconds": float(self.dynamics.worker_downtime_seconds),
            "mean_queue_length": self.mean_queue_length,
        }


def compute_metrics(
    trace: ExecutionTrace,
    *,
    start_time: float = 0.0,
    dynamics: Optional[DynamicsStats] = None,
) -> SimulationMetrics:
    """Compute the paper's metrics from an execution trace.

    Parameters
    ----------
    trace:
        The per-task records collected by the simulator.
    start_time:
        Simulation time the schedule started (makespan is measured from here).
    dynamics:
        Optional fault-injection accounting (failures, re-queues, downtime)
        attached verbatim to the result; defaults to all-zero stats.
    """
    if not len(trace):
        raise SimulationError("cannot compute metrics for an empty trace")
    m = trace.n_processors
    completion = trace.completion_time()
    makespan = completion - start_time
    if makespan <= 0:
        raise SimulationError(f"non-positive makespan {makespan}")

    busy = trace.busy_seconds()
    comm = trace.comm_seconds()
    counts = trace.tasks_per_processor()
    idle = np.maximum(makespan - busy - comm, 0.0)
    mflops_per_proc = trace.mflops_per_processor()

    per_processor = [
        ProcessorStats(
            proc_id=j,
            tasks_completed=int(counts[j]),
            busy_seconds=float(busy[j]),
            comm_seconds=float(comm[j]),
            idle_seconds=float(idle[j]),
            mflops_processed=float(mflops_per_proc[j]),
        )
        for j in range(m)
    ]

    efficiency = float(busy.sum() / (m * makespan))
    return SimulationMetrics(
        makespan=float(makespan),
        efficiency=efficiency,
        total_busy_seconds=float(busy.sum()),
        total_comm_seconds=float(comm.sum()),
        total_idle_seconds=float(idle.sum()),
        tasks_completed=int(counts.sum()),
        total_mflops=float(mflops_per_proc.sum()),
        mean_response_time=float(
            np.mean(trace.column("exec_end") - trace.column("arrival_time"))
        ),
        mean_queue_wait=float(
            np.mean(trace.column("dispatch_time") - trace.column("assigned_time"))
        ),
        per_processor=per_processor,
        dynamics=dynamics or DynamicsStats(),
    )
