"""Array kernels for the heuristic scheduling policies and their backends.

The heuristic baselines spend their decisions on dense per-processor state —
``(pending_loads, rates, comm estimates)`` — yet the original implementation
re-derived every decision through per-task Python machinery: one
``select_processor`` call, one context copy and one assignment object per
task.  This module expresses the decision rules of EF/LL/RR/MET/OLB (and the
MinMin/MaxMin/Sufferage batch loops) as kernels over those dense vectors,
behind the same bit-identity-gated backend abstraction as
:mod:`repro.ga.kernels`.

:class:`VectorizedPolicyBackend` is the one production implementation: the
scalar code's arithmetic with pre-extracted size arrays and preallocated
output buffers, plus fully batched kernels where the decision rule admits
them (round-robin, MET).  The master additionally schedules whole arrival
*waves* through one kernel call (see ``Master._schedule_wave``).  The test
suite's per-task reference implementation (``tests/oracles.py``) replays
the original scalar arithmetic with fresh temporaries and is plugged into
``Master(..., kernels=...)`` to gate this backend bit for bit.

The kernels keep the exact float expressions of the scalar code
(``(loads + size) / rates`` — never an algebraic reformulation, which could
flip an ``argmin`` in a near-tie), and NumPy ufuncs with ``out=`` buffers
produce the same bits as the equivalent fresh-temporary expressions.

Tie-break contract
------------------
Every kernel resolves ties by **lowest index**, made explicit per policy:

* **EF / LL / OLB / MET** — ``argmin`` over the per-processor score returns
  the lowest-indexed processor among exact float ties (NumPy's documented
  ``argmin`` semantics).
* **RR** — deterministic rotation; no ties arise.
* **MinMin / MaxMin** — tasks are placed in ``(size, task_id)`` order
  ascending for MinMin and ``(-size, task_id)`` order for MaxMin: equal-size
  tasks are always placed in FCFS (ascending task id) order, in *both* sort
  directions.  (Historically MaxMin sorted with ``reverse=True`` over the
  ``(size, task_id)`` tuple, which silently reversed the id tie-break for
  equal sizes; the kernels fix this.)  Each placement then follows the
  EF-style ``argmin`` rule above.
* **Sufferage** — within one round, a task's best processor is the
  lowest-indexed minimiser of its completion vector (``argmin``, not an
  unstable ``argsort``, whose quicksort order between equal keys is
  unspecified); among tasks with equal sufferage the earliest-considered
  (lowest remaining position, i.e. FCFS) task wins.

Wave contract
-------------
The ``*_wave`` kernels place a whole arrival wave *sequentially in effect*:
placements are committed one task at a time in FCFS order and each placement
adds the task's size to the dense ``loads`` vector (mutated in place) before
the next decision — exactly what N per-task invocations against a working
context would compute.  ``time``, ``rates`` and comm estimates are frozen
for the duration of a wave: within one ``INVOKE_SCHEDULER`` event they can
only change through ``observe_dispatch`` / ``observe_completion``, which
never run between two placements of the same wave.  ``pending_loads`` is
therefore the *only* field a wave must evolve, and the only one it does.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Tuple

import numpy as np

__all__ = [
    "PolicyKernelBackend",
    "VectorizedPolicyBackend",
    "default_policy_kernels",
]


class PolicyKernelBackend(ABC):
    """One interchangeable implementation of the policy decision kernels.

    Wave kernels (``*_wave``) take the task sizes of one arrival wave and
    the dense worker state, return the selected processor per task (int64,
    aligned with the input order) and mutate ``loads`` in place per the wave
    contract above.  Batch kernels return ``(order, procs)``: the placement
    order as indices into the input arrays, and the processor chosen for
    each placement, so callers can rebuild per-processor queues in the exact
    placement order.
    """

    #: Backend identifier.
    name: str = "base"
    #: Whether the simulation master should batch immediate-mode arrival
    #: waves through one ``*_wave`` call; ``False`` keeps the historical
    #: one-invocation-per-task path (the per-task reference oracle).
    batches_immediate_waves: bool = False

    # -- immediate-mode waves ------------------------------------------------------
    @abstractmethod
    def earliest_finish_wave(
        self, sizes: np.ndarray, loads: np.ndarray, rates: np.ndarray
    ) -> np.ndarray:
        """EF: per task, ``argmin((loads + size) / rates)``; loads evolve."""

    @abstractmethod
    def lightest_loaded_wave(self, sizes: np.ndarray, loads: np.ndarray) -> np.ndarray:
        """LL: per task, ``argmin(loads)``; loads evolve."""

    @abstractmethod
    def opportunistic_wave(
        self, sizes: np.ndarray, loads: np.ndarray, rates: np.ndarray
    ) -> np.ndarray:
        """OLB: per task, ``argmin(loads / rates)``; loads evolve."""

    @abstractmethod
    def minimum_execution_wave(
        self, sizes: np.ndarray, loads: np.ndarray, rates: np.ndarray
    ) -> np.ndarray:
        """MET: per task, ``argmin(size / rates)`` (load-independent)."""

    @abstractmethod
    def round_robin_wave(
        self, n_tasks: int, n_processors: int, start: int
    ) -> Tuple[np.ndarray, int]:
        """RR: task *k* of the wave joins ``(start + k) % n_processors``.

        Returns ``(procs, next_start)`` where ``next_start`` is the rotation
        state after the wave (what *start* would be after ``n_tasks``
        single-task selections), canonicalised into ``[0, n_processors)`` —
        the scalar path selects through ``start % n_processors``, so an
        out-of-range *start* is indistinguishable from its residue.
        """

    # -- batch-mode kernels --------------------------------------------------------
    @abstractmethod
    def greedy_finish_batch(
        self,
        sizes: np.ndarray,
        task_ids: np.ndarray,
        loads: np.ndarray,
        rates: np.ndarray,
        descending: bool,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """MinMin/MaxMin: sort by size (FCFS id tie-break), place greedily.

        Tasks are ordered by ``(size, task_id)`` ascending (MinMin) or
        ``(-size, task_id)`` (MaxMin) and each is placed on the processor
        minimising ``(loads + size) / rates``; ``loads`` evolves per
        placement.  Returns ``(order, procs)``.
        """

    @abstractmethod
    def sufferage_batch(
        self, sizes: np.ndarray, loads: np.ndarray, rates: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Sufferage: each round map the task with the largest sufferage.

        A task's sufferage is the gap between its second-best and best
        completion times; its best processor is the lowest-indexed
        minimiser.  Returns ``(order, procs)``; ``loads`` evolves per
        placement.
        """


class VectorizedPolicyBackend(PolicyKernelBackend):
    """Dense-array backend: buffer-reusing waves and batched kernels.

    The sequential-in-effect waves (EF/LL/OLB) cannot batch their *argmin*
    across tasks — each decision depends on the previous placement — so the
    win comes from stripping the per-task Python machinery: sizes arrive as
    one pre-extracted array and the score vector is computed into a
    preallocated buffer (``np.add``/``np.divide`` with ``out=`` are
    bit-identical to the fresh-temporary expressions).  RR and MET decisions
    are load-independent and batch completely.
    """

    name = "vectorized"
    batches_immediate_waves = True

    def earliest_finish_wave(self, sizes, loads, rates):
        n = sizes.shape[0]
        procs = np.empty(n, dtype=np.int64)
        buf = np.empty_like(loads)
        for k, size in enumerate(sizes.tolist()):
            np.add(loads, size, out=buf)
            np.divide(buf, rates, out=buf)
            proc = buf.argmin()
            procs[k] = proc
            loads[proc] += size
        return procs

    def lightest_loaded_wave(self, sizes, loads):
        n = sizes.shape[0]
        procs = np.empty(n, dtype=np.int64)
        for k, size in enumerate(sizes.tolist()):
            proc = loads.argmin()
            procs[k] = proc
            loads[proc] += size
        return procs

    def opportunistic_wave(self, sizes, loads, rates):
        n = sizes.shape[0]
        procs = np.empty(n, dtype=np.int64)
        buf = np.empty_like(loads)
        for k, size in enumerate(sizes.tolist()):
            np.divide(loads, rates, out=buf)
            proc = buf.argmin()
            procs[k] = proc
            loads[proc] += size
        return procs

    def minimum_execution_wave(self, sizes, loads, rates):
        # MET ignores loads entirely, so the whole wave batches into one
        # (n_tasks, n_processors) division + row-wise argmin.
        procs = (sizes[:, None] / rates[None, :]).argmin(axis=1).astype(np.int64)
        # np.add.at applies repeated-index additions in index order — the
        # same accumulation sequence as per-task scalar adds.
        np.add.at(loads, procs, sizes)
        return procs

    def round_robin_wave(self, n_tasks, n_processors, start):
        procs = (int(start) + np.arange(n_tasks, dtype=np.int64)) % n_processors
        return procs, (int(start) + n_tasks) % n_processors

    def greedy_finish_batch(self, sizes, task_ids, loads, rates, descending):
        # lexsort's last key is primary and the sort is stable, so
        # (task_ids, ±sizes) reproduces sorted(key=(±size, task_id)) exactly;
        # float negation is exact, so -sizes never perturbs a tie.
        if descending:
            order = np.lexsort((task_ids, -sizes))
        else:
            order = np.lexsort((task_ids, sizes))
        n = sizes.shape[0]
        procs = np.empty(n, dtype=np.int64)
        buf = np.empty_like(loads)
        for k, i in enumerate(order.tolist()):
            size = sizes[i]
            np.add(loads, size, out=buf)
            np.divide(buf, rates, out=buf)
            proc = buf.argmin()
            procs[k] = proc
            loads[proc] += size
        return order.astype(np.int64, copy=False), procs

    def sufferage_batch(self, sizes, loads, rates):
        n = sizes.shape[0]
        n_processors = rates.shape[0]
        order = np.empty(n, dtype=np.int64)
        procs = np.empty(n, dtype=np.int64)
        alive = np.arange(n, dtype=np.int64)
        for k in range(n):
            # One (remaining, M) completion matrix per round: row i is the
            # same ``(loads + size) / rates`` vector the scalar code forms.
            completion = (loads + sizes[alive, None]) / rates
            first = completion.argmin(axis=1)
            rows = np.arange(alive.shape[0])
            best_completion = completion[rows, first]
            if n_processors > 1:
                completion[rows, first] = np.inf
                sufferage = completion.min(axis=1) - best_completion
            else:
                sufferage = np.zeros(alive.shape[0])
            # argmax keeps the first maximiser: FCFS among equal sufferages,
            # matching the scalar code's strict-improvement comparison.
            pos = int(sufferage.argmax())
            chosen = int(alive[pos])
            proc = int(first[pos])
            order[k] = chosen
            procs[k] = proc
            loads[proc] += sizes[chosen]
            alive = np.delete(alive, pos)
        return order, procs


_DEFAULT_BACKEND = VectorizedPolicyBackend()


def default_policy_kernels() -> PolicyKernelBackend:
    """The process-wide default backend (vectorized; backends are stateless)."""
    return _DEFAULT_BACKEND
