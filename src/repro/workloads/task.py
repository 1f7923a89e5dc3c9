"""Task and task-set models.

The paper's tasks are *independent*, *indivisible* units of work whose
resource requirement is expressed in millions of floating point operations
(MFLOPs).  Tasks arrive at the scheduler over time (in the paper's
experiments they all arrive at time zero) and may be processed by any
processor in the system.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Iterable, Iterator, List, Sequence

import numpy as np

from ..util.errors import WorkloadError
from ..util.validation import require_non_negative, require_positive

__all__ = ["Task", "TaskSet"]


@dataclass(frozen=True, order=True)
class Task:
    """A single schedulable unit of work.

    Attributes
    ----------
    task_id:
        Unique non-negative integer identifier.  GA chromosomes reference
        tasks by this id, so ids must be unique within a workload.
    size_mflops:
        Resource requirement in MFLOPs (millions of floating point
        operations).  Strictly positive.
    arrival_time:
        Simulation time at which the task becomes available for scheduling.
    """

    task_id: int
    size_mflops: float
    arrival_time: float = 0.0

    def __post_init__(self) -> None:
        if self.task_id < 0 or int(self.task_id) != self.task_id:
            raise WorkloadError(f"task_id must be a non-negative integer, got {self.task_id!r}")
        if not np.isfinite(self.size_mflops) or self.size_mflops <= 0:
            raise WorkloadError(
                f"task {self.task_id}: size_mflops must be positive and finite, "
                f"got {self.size_mflops!r}"
            )
        if not np.isfinite(self.arrival_time) or self.arrival_time < 0:
            raise WorkloadError(
                f"task {self.task_id}: arrival_time must be non-negative and finite, "
                f"got {self.arrival_time!r}"
            )

    def execution_time(self, rate_mflops_per_s: float) -> float:
        """Time (seconds) to execute this task on a processor of the given rate."""
        rate = require_positive(rate_mflops_per_s, "rate_mflops_per_s")
        return self.size_mflops / rate

    def delayed(self, delta: float) -> "Task":
        """Return a copy whose arrival time is shifted by *delta* seconds."""
        require_non_negative(self.arrival_time + delta, "shifted arrival_time")
        return replace(self, arrival_time=self.arrival_time + delta)


class TaskSet:
    """An ordered, immutable collection of :class:`Task` objects.

    Ordering follows the order of submission (FCFS order used by the
    immediate-mode schedulers and by batch formation).
    """

    def __init__(self, tasks: Iterable[Task]):
        self._tasks: List[Task] = list(tasks)
        ids = [t.task_id for t in self._tasks]
        if len(set(ids)) != len(ids):
            raise WorkloadError("task ids within a TaskSet must be unique")
        self._by_id: Dict[int, Task] = {t.task_id: t for t in self._tasks}

    @classmethod
    def from_arrays(
        cls, task_ids: np.ndarray, sizes: np.ndarray, arrivals: np.ndarray
    ) -> "TaskSet":
        """Build a TaskSet from parallel columns with vectorised validation.

        Semantically identical to constructing one :class:`Task` per row (the
        same invariants are enforced, over whole columns instead of per
        task), but skips the per-task dataclass machinery — the workload
        generator's hot path at million-task scale.
        """
        task_ids = np.ascontiguousarray(task_ids, dtype=np.int64)
        sizes = np.ascontiguousarray(sizes, dtype=float)
        arrivals = np.ascontiguousarray(arrivals, dtype=float)
        n = task_ids.shape[0]
        if sizes.shape != (n,) or arrivals.shape != (n,):
            raise WorkloadError(
                f"task columns must have equal lengths, got {task_ids.shape[0]}/"
                f"{sizes.shape[0]}/{arrivals.shape[0]}"
            )
        bad = np.flatnonzero(task_ids < 0)
        if bad.size:
            raise WorkloadError(
                f"task_id must be a non-negative integer, got {task_ids[bad[0]]!r}"
            )
        bad = np.flatnonzero(~np.isfinite(sizes) | (sizes <= 0))
        if bad.size:
            i = int(bad[0])
            raise WorkloadError(
                f"task {task_ids[i]}: size_mflops must be positive and finite, "
                f"got {sizes[i]!r}"
            )
        bad = np.flatnonzero(~np.isfinite(arrivals) | (arrivals < 0))
        if bad.size:
            i = int(bad[0])
            raise WorkloadError(
                f"task {task_ids[i]}: arrival_time must be non-negative and finite, "
                f"got {arrivals[i]!r}"
            )
        tasks: List[Task] = []
        new = Task.__new__
        setattr_ = object.__setattr__
        for tid, size, arrival in zip(task_ids.tolist(), sizes.tolist(), arrivals.tolist()):
            task = new(Task)
            setattr_(task, "task_id", tid)
            setattr_(task, "size_mflops", size)
            setattr_(task, "arrival_time", arrival)
            tasks.append(task)
        self = cls.__new__(cls)
        self._tasks = tasks
        self._by_id = dict(zip(task_ids.tolist(), tasks))
        if len(self._by_id) != n:
            raise WorkloadError("task ids within a TaskSet must be unique")
        return self

    # -- basic container protocol -------------------------------------------------
    def __len__(self) -> int:
        return len(self._tasks)

    def __iter__(self) -> Iterator[Task]:
        return iter(self._tasks)

    def __getitem__(self, index: int) -> Task:
        return self._tasks[index]

    def __contains__(self, task_id: int) -> bool:
        return task_id in self._by_id

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TaskSet):
            return NotImplemented
        return self._tasks == other._tasks

    def __repr__(self) -> str:
        return f"TaskSet(n={len(self)}, total={self.total_mflops():.4g} MFLOPs)"

    # -- accessors -----------------------------------------------------------------
    def get(self, task_id: int) -> Task:
        """Return the task with the given id (raises ``WorkloadError`` if unknown)."""
        try:
            return self._by_id[task_id]
        except KeyError:
            raise WorkloadError(f"unknown task id {task_id}") from None

    @property
    def task_ids(self) -> List[int]:
        """Task ids in submission order."""
        return [t.task_id for t in self._tasks]

    def sizes(self) -> np.ndarray:
        """Array of task sizes (MFLOPs) in submission order."""
        return np.array([t.size_mflops for t in self._tasks], dtype=float)

    def arrival_times(self) -> np.ndarray:
        """Array of arrival times in submission order."""
        return np.array([t.arrival_time for t in self._tasks], dtype=float)

    def total_mflops(self) -> float:
        """Sum of all task sizes in MFLOPs."""
        return float(sum(t.size_mflops for t in self._tasks))

    def mean_mflops(self) -> float:
        """Mean task size (0.0 for an empty set)."""
        return self.total_mflops() / len(self) if self._tasks else 0.0

    def max_mflops(self) -> float:
        """Largest task size (0.0 for an empty set)."""
        return max((t.size_mflops for t in self._tasks), default=0.0)

    def min_mflops(self) -> float:
        """Smallest task size (0.0 for an empty set)."""
        return min((t.size_mflops for t in self._tasks), default=0.0)

    # -- transformations -----------------------------------------------------------
    def sorted_by_arrival(self) -> "TaskSet":
        """Return a new TaskSet ordered by (arrival_time, task_id)."""
        return TaskSet(sorted(self._tasks, key=lambda t: (t.arrival_time, t.task_id)))

    def sorted_by_size(self, descending: bool = False) -> "TaskSet":
        """Return a new TaskSet ordered by size (ties broken by id)."""
        return TaskSet(
            sorted(self._tasks, key=lambda t: (t.size_mflops, t.task_id), reverse=descending)
        )

    def subset(self, task_ids: Sequence[int]) -> "TaskSet":
        """Return a TaskSet restricted to the given ids, in the given order."""
        return TaskSet(self.get(tid) for tid in task_ids)

    def head(self, n: int) -> "TaskSet":
        """Return the first *n* tasks (fewer if the set is smaller)."""
        return TaskSet(self._tasks[: max(0, n)])

    def concat(self, other: "TaskSet") -> "TaskSet":
        """Return the concatenation of this set and *other*."""
        return TaskSet([*self._tasks, *other._tasks])

    # -- summary -------------------------------------------------------------------
    def describe(self) -> Dict[str, float]:
        """Summary statistics of the workload (counts, size moments, span)."""
        sizes = self.sizes()
        arrivals = self.arrival_times()
        if len(self) == 0:
            return {
                "count": 0,
                "total_mflops": 0.0,
                "mean_mflops": 0.0,
                "std_mflops": 0.0,
                "min_mflops": 0.0,
                "max_mflops": 0.0,
                "arrival_span": 0.0,
            }
        return {
            "count": float(len(self)),
            "total_mflops": float(sizes.sum()),
            "mean_mflops": float(sizes.mean()),
            "std_mflops": float(sizes.std()),
            "min_mflops": float(sizes.min()),
            "max_mflops": float(sizes.max()),
            "arrival_span": float(arrivals.max() - arrivals.min()),
        }
