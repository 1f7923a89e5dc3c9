"""Scheduler interfaces shared by the baselines and the PN scheduler.

A scheduler is a *policy*: given a set of tasks and a snapshot of the system
(:class:`SchedulingContext`) it decides which processor queue each task joins
and in what order.  The discrete-event simulator owns time and invokes the
policy; schedulers therefore never advance the clock themselves, which keeps
them directly comparable (every scheduler sees exactly the same information,
as required by Sect. 4.2 of the paper).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..util.errors import ConfigurationError, SchedulingError
from ..util.rng import ensure_rng
from ..workloads.task import Task
from .kernels import PolicyKernelBackend, default_policy_kernels

__all__ = [
    "SchedulingContext",
    "ScheduleAssignment",
    "Scheduler",
    "ImmediateScheduler",
    "BatchScheduler",
]


@dataclass
class SchedulingContext:
    """Snapshot of the system state handed to a scheduler.

    All schedulers receive exactly the same information (paper Sect. 4.2:
    "all schedulers have the same information available to them"); which
    parts of it a policy uses is up to the policy.

    Attributes
    ----------
    time:
        Current simulation time in seconds.
    rates:
        Estimated execution rate of each processor in Mflop/s (shape ``(M,)``).
    pending_loads:
        MFLOPs already assigned to each processor but not yet completed
        (``L_j`` in the paper's fitness function).
    comm_costs:
        Estimated per-task communication cost in seconds for each processor's
        link (the smoothed ``Γ_c`` estimates; zero when nothing is known).
    rng:
        Randomness source the policy may use (GA schedulers do).
    kernels:
        The policy-kernel backend the heuristic policies compute their
        decisions through (see :mod:`repro.schedulers.kernels`); ``None``
        selects the default (vectorized) backend.
    """

    time: float
    rates: np.ndarray
    pending_loads: np.ndarray
    comm_costs: np.ndarray
    rng: np.random.Generator = field(default_factory=np.random.default_rng)
    kernels: Optional[PolicyKernelBackend] = None

    def __post_init__(self) -> None:
        self.rates = np.asarray(self.rates, dtype=float)
        self.pending_loads = np.asarray(self.pending_loads, dtype=float)
        self.comm_costs = np.asarray(self.comm_costs, dtype=float)
        m = self.rates.shape[0]
        if m == 0:
            raise ConfigurationError("scheduling context requires at least one processor")
        if self.pending_loads.shape != (m,) or self.comm_costs.shape != (m,):
            raise ConfigurationError(
                "rates, pending_loads and comm_costs must all have shape (M,)"
            )
        if np.any(self.rates <= 0):
            raise ConfigurationError("all processor rates must be strictly positive")
        if np.any(self.pending_loads < 0) or np.any(self.comm_costs < 0):
            raise ConfigurationError("pending loads and comm costs must be non-negative")
        self.rng = ensure_rng(self.rng)
        if self.kernels is None:
            self.kernels = default_policy_kernels()
        elif not isinstance(self.kernels, PolicyKernelBackend):
            raise ConfigurationError(
                f"kernels must be a PolicyKernelBackend, got {type(self.kernels).__name__}"
            )

    @classmethod
    def trusted(
        cls,
        time: float,
        rates: np.ndarray,
        pending_loads: np.ndarray,
        comm_costs: np.ndarray,
        rng: np.random.Generator,
        kernels: Optional[PolicyKernelBackend] = None,
    ) -> "SchedulingContext":
        """Build a context from already-validated float64 arrays.

        Skips ``__post_init__`` (conversion + validation), a measurable cost
        on the master's per-invocation path.  Callers (the master,
        :meth:`copy`) guarantee the invariants the normal constructor
        enforces.
        """
        ctx = object.__new__(cls)
        ctx.time = time
        ctx.rates = rates
        ctx.pending_loads = pending_loads
        ctx.comm_costs = comm_costs
        ctx.rng = rng
        ctx.kernels = kernels if kernels is not None else default_policy_kernels()
        return ctx

    @property
    def n_processors(self) -> int:
        """Number of processors visible to the scheduler."""
        return int(self.rates.shape[0])

    def pending_times(self) -> np.ndarray:
        """Seconds of already-assigned work per processor (``δ_j = L_j / P_j``)."""
        return self.pending_loads / self.rates

    def finish_time(self, proc: int, extra_mflops: float = 0.0) -> float:
        """Estimated completion time of *proc*'s queue plus *extra_mflops* of new work."""
        if not (0 <= proc < self.n_processors):
            raise ConfigurationError(f"processor index {proc} out of range")
        return float((self.pending_loads[proc] + extra_mflops) / self.rates[proc])

    def copy(self) -> "SchedulingContext":
        """Deep copy (used by policies that tentatively accumulate load)."""
        return SchedulingContext.trusted(
            self.time,
            self.rates.copy(),
            self.pending_loads.copy(),
            self.comm_costs.copy(),
            self.rng,
            self.kernels,
        )


class ScheduleAssignment:
    """The output of a scheduling decision: ordered per-processor queues.

    The assignment records, for each processor, the ordered list of task ids
    appended to its queue by this decision.  Tasks not present in any queue
    were not scheduled (never the case for the built-in policies).
    """

    def __init__(self, queues: Sequence[Sequence[int]]):
        self._queues: List[List[int]] = [list(q) for q in queues]
        seen: Dict[int, int] = {}
        for proc, queue in enumerate(self._queues):
            for tid in queue:
                if tid in seen:
                    raise SchedulingError(
                        f"task {tid} assigned to both processor {seen[tid]} and {proc}"
                    )
                seen[tid] = proc
        self._proc_of = seen

    @classmethod
    def empty(cls, n_processors: int) -> "ScheduleAssignment":
        """An assignment with *n_processors* empty queues."""
        return cls([[] for _ in range(n_processors)])

    @classmethod
    def from_mapping(cls, mapping: Dict[int, int], n_processors: int) -> "ScheduleAssignment":
        """Build from a ``task_id -> processor`` mapping (queue order = id order)."""
        queues: List[List[int]] = [[] for _ in range(n_processors)]
        for tid in sorted(mapping):
            proc = mapping[tid]
            if not (0 <= proc < n_processors):
                raise SchedulingError(f"task {tid} mapped to invalid processor {proc}")
            queues[proc].append(tid)
        return cls(queues)

    # -- accessors -----------------------------------------------------------------
    @property
    def n_processors(self) -> int:
        """Number of processor queues in the assignment."""
        return len(self._queues)

    @property
    def n_tasks(self) -> int:
        """Total number of tasks assigned."""
        return len(self._proc_of)

    def queue(self, proc: int) -> List[int]:
        """Ordered task ids appended to processor *proc*."""
        return list(self._queues[proc])

    def queues(self) -> List[List[int]]:
        """All queues, ordered by processor id."""
        return [list(q) for q in self._queues]

    def iter_queues(self) -> List[List[int]]:
        """The internal queues, ordered by processor id, *without* copying.

        Hot-path accessor for callers that only iterate (the master applies
        one assignment per scheduling invocation); the returned lists must
        not be mutated.
        """
        return self._queues

    def processor_of(self, task_id: int) -> int:
        """Processor a task was assigned to (raises if the task is unassigned)."""
        try:
            return self._proc_of[task_id]
        except KeyError:
            raise SchedulingError(f"task {task_id} was not assigned") from None

    def task_ids(self) -> List[int]:
        """All assigned task ids (ascending)."""
        return sorted(self._proc_of)

    def counts(self) -> np.ndarray:
        """Number of tasks per processor."""
        return np.array([len(q) for q in self._queues], dtype=int)

    def assigned_mflops(self, tasks_by_id: Dict[int, Task]) -> np.ndarray:
        """Total MFLOPs assigned to each processor (given the task objects)."""
        loads = np.zeros(len(self._queues), dtype=float)
        for proc, queue in enumerate(self._queues):
            loads[proc] = sum(tasks_by_id[tid].size_mflops for tid in queue)
        return loads

    def merged_with(self, other: "ScheduleAssignment") -> "ScheduleAssignment":
        """Concatenate another assignment's queues after this one's."""
        if other.n_processors != self.n_processors:
            raise SchedulingError("cannot merge assignments with different processor counts")
        return ScheduleAssignment(
            [self._queues[p] + other.queue(p) for p in range(self.n_processors)]
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ScheduleAssignment):
            return NotImplemented
        return self._queues == other._queues

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ScheduleAssignment(tasks={self.n_tasks}, processors={self.n_processors})"


class Scheduler(ABC):
    """Abstract base class of every scheduling policy."""

    #: Short identifier used in reports (matches the paper's labels: EF, LL, RR,
    #: MM, MX, ZO, PN).
    name: str = "base"

    @abstractmethod
    def schedule(self, tasks: Sequence[Task], ctx: SchedulingContext) -> ScheduleAssignment:
        """Map *tasks* onto processor queues given the context snapshot."""

    def preferred_batch_size(self, ctx: SchedulingContext, n_queued: int) -> int:
        """How many queued tasks the policy wants in its next batch.

        Defaults to everything that is queued; batch-mode schedulers cap it
        at their batch size, and the PN scheduler overrides it with the
        paper's dynamic batch sizing.
        """
        return n_queued

    # -- feedback hooks (no-ops by default) -----------------------------------------
    def observe_communication(self, proc: int, cost: float, time: float) -> None:
        """Notification of the measured dispatch cost of one task to *proc*."""

    def observe_completion(
        self, proc: int, task: Task, processing_time: float, time: float
    ) -> None:
        """Notification that *task* finished on *proc* after *processing_time* seconds."""

    def reset(self) -> None:
        """Clear any internal state accumulated across scheduling invocations."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"


class ImmediateScheduler(Scheduler):
    """Base class for FCFS, one-task-at-a-time policies.

    Subclasses implement :meth:`select_processors_wave`, which places a
    whole FCFS wave of tasks in one kernel call: each task is mapped as if
    it had arrived alone, seeing the loads of every earlier placement.

    Copy-and-update contract
    ------------------------
    A wave updates **only** ``ctx.pending_loads`` between placements (each
    placed task's size is added to its processor's entry).  ``time``,
    ``rates`` and ``comm_costs`` are frozen for the whole wave: in the
    simulation they only change through the master's ``observe_dispatch``
    / ``observe_completion`` feedback, which never runs between two
    placements of the same scheduling event.  A subclass whose decisions
    read derived quantities (finish-time estimates, ready times) must
    therefore derive them from ``ctx.pending_loads`` at selection time —
    any value cached across placements goes stale the moment an earlier
    task is placed.  See the wave contract in
    :mod:`repro.schedulers.kernels`.
    """

    @abstractmethod
    def select_processors_wave(
        self, sizes: np.ndarray, ctx: SchedulingContext
    ) -> np.ndarray:
        """Place a whole arrival wave through one kernel call.

        Returns the selected processor per task (int64, FCFS order), with
        ``ctx.pending_loads`` evolving per placement in place.
        """

    def schedule(self, tasks: Sequence[Task], ctx: SchedulingContext) -> ScheduleAssignment:
        sizes = np.array([task.size_mflops for task in tasks], dtype=float)
        procs = self.select_processors_wave(sizes, ctx.copy())
        if procs.shape != (len(tasks),) or (
            len(tasks) and (procs.min() < 0 or procs.max() >= ctx.n_processors)
        ):
            raise SchedulingError(f"{self.name}: selected an invalid processor")
        queues: List[List[int]] = [[] for _ in range(ctx.n_processors)]
        for task, proc in zip(tasks, procs.tolist()):
            queues[proc].append(task.task_id)
        return ScheduleAssignment(queues)


class BatchScheduler(Scheduler):
    """Base class for policies that consider several tasks jointly."""

    def __init__(self, batch_size: Optional[int] = None):
        if batch_size is not None and batch_size <= 0:
            raise ConfigurationError(f"batch_size must be positive, got {batch_size}")
        self.batch_size = batch_size

    def preferred_batch_size(self, ctx: SchedulingContext, n_queued: int) -> int:
        if n_queued <= 0:
            return 0
        if self.batch_size is None:
            return n_queued
        return min(self.batch_size, n_queued)
