"""The batch-scheduling problem instance handed to the genetic algorithm.

A :class:`BatchProblem` fixes everything the GA needs to evaluate a schedule
for one batch: the tasks in the batch (sizes in MFLOPs), the processors'
estimated rates (Mflop/s), the load already queued on each processor, and the
estimated per-task communication cost of each processor's link.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence, Tuple

import numpy as np

from ..util.errors import ConfigurationError
from ..workloads.task import Task

__all__ = ["BatchProblem", "any_outside", "row_offsets"]


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@lru_cache(maxsize=256)
def row_offsets(n_rows: int, stride: int) -> np.ndarray:
    """The read-only ``(n_rows, 1)`` column ``row * stride``, built once per shape.

    Adding it to a ``(n_rows, k)`` matrix of in-row indices turns them into
    flat indices of a ``(n_rows, stride)`` buffer, so one 1-D gather or
    scatter replaces a two-index (or ``take_along_axis``) one.
    """
    return _frozen(np.arange(n_rows, dtype=np.int64)[:, None] * stride)


def any_outside(values: np.ndarray, upper: int) -> bool:
    """Whether any entry of the int64 array *values* lies outside ``[0, upper)``.

    One comparison instead of a ``min`` and a ``max``: viewed as unsigned,
    negative entries are huge.
    """
    return bool((values.view(np.uint64) >= upper).any())


@dataclass(frozen=True)
class BatchProblem:
    """Immutable description of one batch-mapping problem.

    Attributes
    ----------
    task_ids:
        Identifiers of the ``H`` tasks in the batch (used only to translate
        the internal index-based encoding back to task ids).
    sizes:
        Task resource requirements ``t_i`` in MFLOPs, shape ``(H,)``.
    rates:
        Estimated processor rates ``P_j`` in Mflop/s, shape ``(M,)``.
    pending_loads:
        Previously assigned but unprocessed load ``L_j`` in MFLOPs, shape ``(M,)``.
    comm_costs:
        Estimated per-task communication cost ``Γ_c(·, j)`` in seconds for each
        processor's link, shape ``(M,)``.  The paper indexes the estimate by
        (task, processor); because the scheduler's estimate is a per-link
        smoothed mean it does not actually vary per task, so a per-processor
        vector is the faithful representation.

    The fields are copied into read-only arrays at construction, and the
    per-problem tables every GA generation reads are computed once from
    them (all read-only, never mutated):

    ``cost_table``
        Flat ``(H·M,)`` table holding ``t_h / P_p + Γ_c(·, p)`` — task
        ``h``'s execution plus communication time on processor ``p`` — at
        index ``h·M + p``.
    ``task_offsets``
        ``h·M`` per task, shape ``(H,)``: ``task_offsets + assignments``
        indexes ``cost_table`` for a whole assignment matrix in one gather.

    :meth:`pending_times` and :meth:`optimal_time` return cached values too.
    """

    task_ids: np.ndarray
    sizes: np.ndarray
    rates: np.ndarray
    pending_loads: np.ndarray
    comm_costs: np.ndarray

    def __post_init__(self) -> None:
        for name, dtype in (
            ("task_ids", int),
            ("sizes", float),
            ("rates", float),
            ("pending_loads", float),
            ("comm_costs", float),
        ):
            array = _frozen(np.array(getattr(self, name), dtype=dtype))
            object.__setattr__(self, name, array)

        if self.task_ids.ndim != 1 or self.sizes.shape != self.task_ids.shape:
            raise ConfigurationError("task_ids and sizes must be 1-D arrays of equal length")
        if len(np.unique(self.task_ids)) != len(self.task_ids):
            raise ConfigurationError("task ids in a batch must be unique")
        if self.rates.ndim != 1 or self.rates.size == 0:
            raise ConfigurationError("rates must be a non-empty 1-D array")
        if (
            self.pending_loads.shape != self.rates.shape
            or self.comm_costs.shape != self.rates.shape
        ):
            raise ConfigurationError("pending_loads and comm_costs must match rates in shape")
        if self.n_tasks == 0:
            raise ConfigurationError("a batch problem requires at least one task")
        if np.any(self.sizes <= 0):
            raise ConfigurationError("all task sizes must be strictly positive")
        if np.any(self.rates <= 0):
            raise ConfigurationError("all processor rates must be strictly positive")
        if np.any(self.pending_loads < 0) or np.any(self.comm_costs < 0):
            raise ConfigurationError("pending loads and comm costs must be non-negative")

        pending = _frozen(self.pending_loads / self.rates)
        psi = float(self.sizes.sum() / self.rates.sum() + pending.sum())
        table = self.sizes[:, None] / self.rates[None, :] + self.comm_costs[None, :]
        offsets = np.arange(self.n_tasks, dtype=np.int64) * self.n_processors
        object.__setattr__(self, "_pending_times", pending)
        object.__setattr__(self, "_psi", psi)
        object.__setattr__(self, "cost_table", _frozen(table.reshape(-1)))
        object.__setattr__(self, "task_offsets", _frozen(offsets))

    def __reduce__(self) -> Tuple[type, tuple]:
        # Rebuild through the constructor so an unpickled copy (a process-pool
        # worker's) gets its own validated, read-only tables.
        return (
            type(self),
            (self.task_ids, self.sizes, self.rates, self.pending_loads, self.comm_costs),
        )

    # -- factory --------------------------------------------------------------------
    @classmethod
    def from_tasks(
        cls,
        tasks: Sequence[Task],
        rates: Sequence[float],
        pending_loads: Optional[Sequence[float]] = None,
        comm_costs: Optional[Sequence[float]] = None,
    ) -> "BatchProblem":
        """Build a problem from task objects plus per-processor vectors."""
        rates_arr = np.asarray(rates, dtype=float)
        m = rates_arr.shape[0]
        return cls(
            task_ids=np.array([t.task_id for t in tasks], dtype=int),
            sizes=np.array([t.size_mflops for t in tasks], dtype=float),
            rates=rates_arr,
            pending_loads=(
                np.zeros(m) if pending_loads is None else np.asarray(pending_loads, dtype=float)
            ),
            comm_costs=(
                np.zeros(m) if comm_costs is None else np.asarray(comm_costs, dtype=float)
            ),
        )

    # -- dimensions -----------------------------------------------------------------
    @property
    def n_tasks(self) -> int:
        """Number of tasks ``H`` in the batch."""
        return int(self.sizes.shape[0])

    @property
    def n_processors(self) -> int:
        """Number of processors ``M``."""
        return int(self.rates.shape[0])

    # -- derived quantities -----------------------------------------------------------
    def pending_times(self) -> np.ndarray:
        """``δ_j = L_j / P_j``: seconds of already-queued work per processor (read-only)."""
        return self._pending_times

    def optimal_time(self) -> float:
        """The paper's theoretical optimum ``ψ``.

        ``ψ = (Σ_i t_i / Σ_j P_j) + Σ_j δ_j`` — the makespan of a perfectly
        divisible, communication-free schedule on top of the existing load.
        """
        return self._psi

    def lower_bound_makespan(self) -> float:
        """A simple makespan lower bound: max of ψ-style balance and the largest task."""
        largest_task_time = float(np.max(self.sizes) / np.max(self.rates))
        return max(self.optimal_time(), largest_task_time)

    def execution_times(self) -> np.ndarray:
        """Matrix of execution times ``t_i / P_j`` with shape ``(H, M)``."""
        return self.sizes[:, None] / self.rates[None, :]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BatchProblem(H={self.n_tasks}, M={self.n_processors}, "
            f"psi={self.optimal_time():.4g}s)"
        )
