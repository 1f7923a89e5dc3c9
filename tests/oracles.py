"""Reference implementations the production kernels are gated against.

The GA and the heuristic policies each have one production kernel
implementation (:class:`repro.ga.kernels.VectorizedBackend`,
:class:`repro.schedulers.kernels.VectorizedPolicyBackend`).  The per-item
loops they replaced live here as test oracles, not as options of the
program: a test hands one to ``GeneticAlgorithm(..., kernels=...)`` or to
``Master(..., kernels=...)`` (through :func:`policy_kernels_installed`) and
compares the outcome with the production path.

:func:`piecewise_cumulative_intensity` is the time-rescaling oracle of
:class:`repro.workloads.arrival.PiecewiseRateArrivals`: it integrates the
rate profile forward, independently of the sampler's inverse mapping.

The kernel benchmarks (``benchmarks/ga_kernel_speed.py``,
``benchmarks/policy_kernel_speed.py``) time the production kernels against
these oracles as their baseline.
"""

from __future__ import annotations

from contextlib import contextmanager
from functools import partial
from typing import Iterator
from unittest import mock

import numpy as np

import repro.sim.simulation as simulation_module
from repro.ga.crossover import CrossoverOperator
from repro.ga.encoding import chromosome_from_queues, decode_assignment
from repro.ga.kernels import KernelBackend, VectorizedBackend
from repro.ga.mutation import apply_position_swaps, rebalance_many
from repro.ga.problem import BatchProblem
from repro.schedulers.kernels import PolicyKernelBackend, VectorizedPolicyBackend
from repro.sim.master import Master

__all__ = [
    "GA_KERNELS",
    "POLICY_KERNELS",
    "LoopBackend",
    "LoopPolicyBackend",
    "piecewise_cumulative_intensity",
    "policy_kernels_installed",
]


class LoopBackend(KernelBackend):
    """GA oracle: per-individual Python loops over the original operators.

    Crossover and mutation read the identical stream as the production
    kernels (the draws are made in :class:`KernelBackend`), so those stages
    and decoding are bit-identical.  Re-balancing calls
    :func:`repro.ga.mutation.rebalance_many` per individual, whose draws
    depend on each schedule, so it matches the vectorized heuristic only in
    distribution.
    """

    name = "loop"

    def decode(self, population: np.ndarray, problem: BatchProblem) -> np.ndarray:
        return np.vstack(
            [
                decode_assignment(chromosome, problem.n_tasks, problem.n_processors)
                for chromosome in population
            ]
        )

    def rebalance(
        self,
        population: np.ndarray,
        assignments: np.ndarray,
        completions: np.ndarray,
        problem: BatchProblem,
        n_rebalances: int,
        rng: np.random.Generator,
        max_probes: int,
    ) -> None:
        for idx in range(population.shape[0]):
            outcome = rebalance_many(
                assignments[idx],
                completions[idx],
                problem,
                n_rebalances,
                rng=rng,
                max_probes=max_probes,
            )
            if not outcome.improved:
                continue
            # Mirror accepted swaps back into the chromosome so crossover
            # keeps operating on consistent genomes.
            changed = np.nonzero(outcome.assignment != assignments[idx])[0]
            if changed.size == 2:
                self._swap_genes(population[idx], int(changed[0]), int(changed[1]))
            else:  # several sequential swaps: rebuild via queues
                queues = [[] for _ in range(problem.n_processors)]
                for task_index, proc in enumerate(outcome.assignment):
                    queues[int(proc)].append(int(task_index))
                population[idx] = chromosome_from_queues(queues, problem.n_tasks)
            assignments[idx] = outcome.assignment
            completions[idx] = outcome.completions

    @staticmethod
    def _swap_genes(chromosome: np.ndarray, task_a: int, task_b: int) -> None:
        pos_a = int(np.nonzero(chromosome == task_a)[0][0])
        pos_b = int(np.nonzero(chromosome == task_b)[0][0])
        chromosome[pos_a], chromosome[pos_b] = chromosome[pos_b], chromosome[pos_a]

    def _apply_crossover(
        self,
        parents: np.ndarray,
        crossing: np.ndarray,
        operator: CrossoverOperator,
        rng: np.random.Generator,
    ) -> None:
        self._cross_pairs_sequentially(parents, crossing, operator, rng)

    def _apply_swaps(
        self,
        population: np.ndarray,
        rows: np.ndarray,
        i_pos: np.ndarray,
        j_pos: np.ndarray,
    ) -> None:
        for local, row in enumerate(rows):
            apply_position_swaps(population[row], i_pos[local], j_pos[local])


class LoopPolicyBackend(PolicyKernelBackend):
    """Policy oracle: the original per-task arithmetic, kernel-shaped.

    Every decision uses fresh temporaries and the exact expressions of the
    scalar schedulers, so this backend *defines* the semantics the
    vectorized backend is gated against.  ``batches_immediate_waves`` is
    off, so a master running it keeps the one-invocation-per-task path.
    """

    name = "loop"
    batches_immediate_waves = False

    def earliest_finish_wave(self, sizes, loads, rates):
        procs = np.empty(sizes.shape[0], dtype=np.int64)
        for k in range(sizes.shape[0]):
            finish_times = (loads + sizes[k]) / rates
            proc = int(np.argmin(finish_times))
            procs[k] = proc
            loads[proc] += sizes[k]
        return procs

    def lightest_loaded_wave(self, sizes, loads):
        procs = np.empty(sizes.shape[0], dtype=np.int64)
        for k in range(sizes.shape[0]):
            proc = int(np.argmin(loads))
            procs[k] = proc
            loads[proc] += sizes[k]
        return procs

    def opportunistic_wave(self, sizes, loads, rates):
        procs = np.empty(sizes.shape[0], dtype=np.int64)
        for k in range(sizes.shape[0]):
            ready_times = loads / rates
            proc = int(np.argmin(ready_times))
            procs[k] = proc
            loads[proc] += sizes[k]
        return procs

    def minimum_execution_wave(self, sizes, loads, rates):
        procs = np.empty(sizes.shape[0], dtype=np.int64)
        for k in range(sizes.shape[0]):
            execution_times = sizes[k] / rates
            proc = int(np.argmin(execution_times))
            procs[k] = proc
            loads[proc] += sizes[k]
        return procs

    def round_robin_wave(self, n_tasks, n_processors, start):
        procs = np.empty(n_tasks, dtype=np.int64)
        nxt = int(start) % n_processors
        for k in range(n_tasks):
            procs[k] = nxt
            nxt = (nxt + 1) % n_processors
        return procs, nxt

    def greedy_finish_batch(self, sizes, task_ids, loads, rates, descending):
        n = sizes.shape[0]
        if descending:
            order = sorted(range(n), key=lambda i: (-sizes[i], task_ids[i]))
        else:
            order = sorted(range(n), key=lambda i: (sizes[i], task_ids[i]))
        procs = np.empty(n, dtype=np.int64)
        for k, i in enumerate(order):
            finish_times = (loads + sizes[i]) / rates
            proc = int(np.argmin(finish_times))
            procs[k] = proc
            loads[proc] += sizes[i]
        return np.asarray(order, dtype=np.int64), procs

    def sufferage_batch(self, sizes, loads, rates):
        n = sizes.shape[0]
        remaining = list(range(n))
        order = np.empty(n, dtype=np.int64)
        procs = np.empty(n, dtype=np.int64)
        for k in range(n):
            best_pos = -1
            best_sufferage = -np.inf
            best_proc = 0
            for pos, i in enumerate(remaining):
                completion = (loads + sizes[i]) / rates
                first = int(np.argmin(completion))
                if completion.size > 1:
                    best_completion = completion[first]
                    completion[first] = np.inf
                    sufferage = float(completion.min() - best_completion)
                else:
                    sufferage = 0.0
                if sufferage > best_sufferage:
                    best_sufferage = sufferage
                    best_pos = pos
                    best_proc = first
            chosen = remaining.pop(best_pos)
            order[k] = chosen
            procs[k] = best_proc
            loads[best_proc] += sizes[chosen]
        return order, procs


#: GA kernel implementations by the name parity tests parametrize over.
GA_KERNELS = {"loop": LoopBackend, "vectorized": VectorizedBackend}

#: Policy kernel implementations by the name parity tests parametrize over.
POLICY_KERNELS = {"loop": LoopPolicyBackend, "vectorized": VectorizedPolicyBackend}


@contextmanager
def policy_kernels_installed(kernels: PolicyKernelBackend) -> Iterator[None]:
    """Build every simulation's master with *kernels* inside the block.

    The simulation constructs its :class:`~repro.sim.master.Master`
    internally; this swaps in a master factory passing ``kernels=`` so the
    whole run, on either sim backend, decides through the oracle.
    """
    with mock.patch.object(simulation_module, "Master", partial(Master, kernels=kernels)):
        yield


def piecewise_cumulative_intensity(times, durations, rates, start=0.0) -> np.ndarray:
    """``Λ(t) = ∫_start^t λ(s) ds`` of a piecewise-constant rate profile.

    Integrates forward segment by segment (the last rate continues past the
    profile's end), so it shares no code with the sampler's inverse map.
    By the time-rescaling theorem, ``Λ`` maps the arrival times of an
    inhomogeneous Poisson process with rate ``λ`` onto a unit-rate one.
    """
    elapsed = np.asarray(times, dtype=float) - start
    intensity = np.zeros_like(elapsed)
    segment_start = 0.0
    for k, (duration, rate) in enumerate(zip(durations, rates)):
        last = k == len(rates) - 1
        segment_end = np.inf if last else segment_start + duration
        overlap = np.clip(elapsed, segment_start, segment_end) - segment_start
        intensity += rate * overlap
        segment_start = segment_end
    return intensity
