"""Workload generation: combine a size distribution with an arrival process."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..util.errors import ConfigurationError
from ..util.rng import RNGLike, spawn_rngs
from ..util.validation import require_at_least
from .arrival import AllAtOnce, ArrivalProcess
from .distributions import SizeDistribution
from .task import TaskSet

__all__ = ["WorkloadSpec", "generate_workload"]


@dataclass
class WorkloadSpec:
    """Declarative description of a workload.

    Attributes
    ----------
    n_tasks:
        Number of tasks to generate.
    sizes:
        Task-size distribution (MFLOPs).
    arrivals:
        Arrival process; defaults to every task arriving at time zero, as in
        the paper's experiments.
    first_task_id:
        Identifier assigned to the first task; subsequent ids are consecutive.
    """

    n_tasks: int
    sizes: SizeDistribution
    arrivals: ArrivalProcess = field(default_factory=AllAtOnce)
    first_task_id: int = 0

    def __post_init__(self) -> None:
        self.n_tasks = require_at_least(self.n_tasks, 0, "n_tasks")
        if self.first_task_id < 0 or int(self.first_task_id) != self.first_task_id:
            raise ConfigurationError(
                f"first_task_id must be a non-negative integer, got {self.first_task_id!r}"
            )

    def describe(self) -> dict:
        """Human-readable summary of the specification."""
        return {
            "n_tasks": self.n_tasks,
            "sizes": self.sizes.name,
            "arrivals": self.arrivals.name,
            "first_task_id": self.first_task_id,
        }


def generate_workload(spec: WorkloadSpec, rng: RNGLike = None) -> TaskSet:
    """Materialise a :class:`TaskSet` from *spec*.

    Sizes and arrival times are drawn from independent sub-streams of *rng*
    so changing one distribution never perturbs the other.  Replayed specs
    (anything exposing ``materialise``, e.g. a trace-backed
    :class:`~repro.workloads.traces.TraceSpec`) bypass the rng entirely:
    their task stream is fixed by the recorded data.
    """
    materialise = getattr(spec, "materialise", None)
    if materialise is not None:
        return materialise(rng)
    size_rng, arrival_rng = spawn_rngs(rng, 2)
    sizes = spec.sizes.sample(spec.n_tasks, size_rng)
    arrivals = spec.arrivals.times(spec.n_tasks, arrival_rng)
    if len(arrivals) != spec.n_tasks:
        raise ConfigurationError(
            f"arrival process produced {len(arrivals)} times for {spec.n_tasks} tasks"
        )
    sizes = np.asarray(sizes, dtype=float)
    arrivals = np.asarray(arrivals, dtype=float)
    ids = spec.first_task_id + np.arange(spec.n_tasks, dtype=np.int64)
    # Submission order is arrival order (FCFS); lexsort keeps id order for ties,
    # matching the previous stable (arrival_time, task_id) sort.
    order = np.lexsort((ids, arrivals))
    return TaskSet.from_arrays(ids[order], sizes[order], arrivals[order])
