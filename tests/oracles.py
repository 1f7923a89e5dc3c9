"""Reference implementations the production kernels are gated against.

The GA and the heuristic policies each have one production kernel
implementation (:class:`repro.ga.kernels.VectorizedBackend`,
:class:`repro.schedulers.kernels.VectorizedPolicyBackend`).  The per-item
loops they replaced live here as test oracles, not as options of the
program: a test hands one to ``GeneticAlgorithm(..., kernels=...)`` or to
``Master(..., kernels=...)`` (through :func:`policy_kernels_installed`) and
compares the outcome with the production path.  With the policy oracle
installed, the master also places immediate-mode policies the original
way, one task per scheduler invocation (:class:`PerTaskMaster`), so the
comparison gates the wave placement too.

The per-individual mutation operators the GA kernels were derived from
also live here: :func:`apply_position_swaps` (the deterministic half of
swap mutation) and the re-balancing heuristic of Sect. 3.5
(:func:`rebalance_assignment`, applied repeatedly by
:func:`rebalance_many`), which :class:`LoopBackend` runs per individual.

The discrete-event engine is the reference of the simulator's static
replay (:mod:`repro.sim.fastpath`).  Runs with cluster dynamics always take
the engine; :func:`event_engine_forced` makes static runs take it too, and
:func:`sim_path` names the two paths for tests parametrized over them.

:func:`piecewise_cumulative_intensity` is the time-rescaling oracle of
:class:`repro.workloads.arrival.PiecewiseRateArrivals`: it integrates the
rate profile forward, independently of the sampler's inverse mapping.

The kernel benchmarks (``benchmarks/ga_kernel_speed.py``,
``benchmarks/policy_kernel_speed.py``) time the production kernels against
these oracles as their baseline, and ``benchmarks/sim_core_speed.py`` times
the static replay against the forced event engine.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from functools import partial
from typing import ContextManager, Iterator, Optional, Tuple
from unittest import mock

import numpy as np

import repro.sim.simulation as simulation_module
from repro.ga.crossover import CrossoverOperator
from repro.ga.encoding import chromosome_from_queues, decode_assignment
from repro.ga.kernels import KernelBackend, VectorizedBackend
from repro.ga.problem import BatchProblem
from repro.schedulers.base import ImmediateScheduler
from repro.schedulers.kernels import PolicyKernelBackend, VectorizedPolicyBackend
from repro.sim.master import Master
from repro.sim.simulation import DistributedSystemSimulation
from repro.util.errors import ConfigurationError
from repro.util.rng import RNGLike, ensure_rng
from repro.util.validation import require_at_least, require_positive_int

__all__ = [
    "GA_KERNELS",
    "POLICY_KERNELS",
    "SIM_PATHS",
    "LoopBackend",
    "LoopPolicyBackend",
    "PerTaskMaster",
    "RebalanceOutcome",
    "apply_position_swaps",
    "event_engine_forced",
    "piecewise_cumulative_intensity",
    "policy_kernels_installed",
    "rebalance_assignment",
    "rebalance_many",
    "sim_path",
]


def apply_position_swaps(
    chromosome: np.ndarray, i_positions: np.ndarray, j_positions: np.ndarray
) -> None:
    """Exchange the genes at each ``(i, j)`` position pair in order, in place.

    This is the deterministic half of swap mutation: the position pairs are
    drawn separately (see :func:`repro.ga.kernels.draw_swap_positions`) so the
    loop and vectorized backends can share one stream of draws and produce
    bit-identical children.
    """
    for i, j in zip(i_positions, j_positions):
        chromosome[i], chromosome[j] = chromosome[j], chromosome[i]


@dataclass(frozen=True)
class RebalanceOutcome:
    """Result of applying the re-balancing heuristic to one assignment."""

    assignment: np.ndarray
    completions: np.ndarray
    improved: bool
    swapped: Optional[Tuple[int, int]] = None  # (task moved off heavy proc, task moved on)

    @property
    def makespan(self) -> float:
        """Makespan of the (possibly rebalanced) assignment."""
        return float(self.completions.max())


def _error(completions: np.ndarray, psi: float) -> float:
    deviation = completions - psi
    return float(np.sqrt(np.sum(deviation**2)))


def rebalance_assignment(
    assignment: np.ndarray,
    completions: np.ndarray,
    problem: BatchProblem,
    rng: RNGLike = None,
    max_probes: int = 5,
) -> RebalanceOutcome:
    """Apply one re-balance attempt to an assignment vector.

    Parameters
    ----------
    assignment:
        Task-index → processor vector of the individual (not modified).
    completions:
        The individual's current per-processor completion times (consistent
        with *assignment*); supplying them avoids a full re-evaluation.
    problem:
        The batch problem (sizes, rates, comm estimates, ψ).
    max_probes:
        Maximum number of random probes for a smaller task on other
        processors (the paper allows at most five).

    Returns
    -------
    RebalanceOutcome
        The accepted assignment (the original if no improving swap was found)
        together with its completion-time vector.

    Notes
    -----
    The swap exchanges a task from the most heavily loaded processor with a
    *smaller* task from another processor, and is kept only if the schedule's
    relative error improves — exactly the accept test of the paper (the
    "fitter" schedule is the one with the smaller error, hence larger
    ``F = 1/E``).
    """
    max_probes = require_positive_int(max_probes, "max_probes")
    assignment = np.asarray(assignment, dtype=int)
    completions = np.asarray(completions, dtype=float)
    if assignment.shape[0] != problem.n_tasks:
        raise ConfigurationError("assignment length must equal the number of tasks in the batch")
    if completions.shape[0] != problem.n_processors:
        raise ConfigurationError("completions length must equal the number of processors")
    gen = ensure_rng(rng)

    heavy_proc = int(np.argmax(completions))
    heavy_tasks = np.nonzero(assignment == heavy_proc)[0]
    other_tasks = np.nonzero(assignment != heavy_proc)[0]
    if heavy_tasks.size == 0 or other_tasks.size == 0:
        return RebalanceOutcome(assignment.copy(), completions.copy(), improved=False)

    psi = problem.optimal_time()
    current_error = _error(completions, psi)

    # One randomly selected task from another processor...
    candidate = int(other_tasks[gen.integers(0, other_tasks.size)])
    candidate_proc = int(assignment[candidate])
    candidate_size = float(problem.sizes[candidate])

    # ...probed against up to `max_probes` random tasks on the heavy processor.
    probes = gen.choice(heavy_tasks, size=min(max_probes, heavy_tasks.size), replace=False)
    for probe in probes:
        probe = int(probe)
        probe_size = float(problem.sizes[probe])
        if candidate_size >= probe_size:
            continue  # only swap in a strictly smaller task
        updated = completions.copy()
        updated[heavy_proc] += (candidate_size - probe_size) / problem.rates[heavy_proc]
        updated[candidate_proc] += (probe_size - candidate_size) / problem.rates[candidate_proc]
        if _error(updated, psi) < current_error:
            new_assignment = assignment.copy()
            new_assignment[probe] = candidate_proc
            new_assignment[candidate] = heavy_proc
            return RebalanceOutcome(
                assignment=new_assignment,
                completions=updated,
                improved=True,
                swapped=(probe, candidate),
            )
    return RebalanceOutcome(assignment.copy(), completions.copy(), improved=False)


def rebalance_many(
    assignment: np.ndarray,
    completions: np.ndarray,
    problem: BatchProblem,
    n_rebalances: int,
    rng: RNGLike = None,
    max_probes: int = 5,
) -> RebalanceOutcome:
    """Apply the re-balancing heuristic *n_rebalances* times in sequence.

    Each accepted swap updates the working assignment, so later re-balances
    see the improved schedule (this is how "50 rebalances per individual per
    generation" is realised in the paper's Fig. 3 study).
    """
    n_rebalances = require_at_least(n_rebalances, 0, "n_rebalances")
    gen = ensure_rng(rng)
    current = RebalanceOutcome(
        np.asarray(assignment, dtype=int).copy(),
        np.asarray(completions, dtype=float).copy(),
        improved=False,
    )
    any_improved = False
    for _ in range(n_rebalances):
        outcome = rebalance_assignment(
            current.assignment, current.completions, problem, gen, max_probes=max_probes
        )
        any_improved = any_improved or outcome.improved
        current = outcome
    return RebalanceOutcome(
        assignment=current.assignment,
        completions=current.completions,
        improved=any_improved,
        swapped=current.swapped,
    )


class LoopBackend(KernelBackend):
    """GA oracle: per-individual Python loops over the original operators.

    Crossover and mutation read the identical stream as the production
    kernels (the draws are made in :class:`KernelBackend`), so those stages
    and decoding are bit-identical.  Re-balancing calls
    :func:`rebalance_many` per individual, whose draws
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
    ) -> np.ndarray:
        changed_rows = np.zeros(population.shape[0], dtype=bool)
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
            changed_rows[idx] = True
        return changed_rows

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
    vectorized backend is gated against.  :func:`policy_kernels_installed`
    runs it under :class:`PerTaskMaster`.
    """

    name = "loop"

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


#: GA kernel implementations by the name parity tests parametrize over.
GA_KERNELS = {"loop": LoopBackend, "vectorized": VectorizedBackend}

#: Policy kernel implementations by the name parity tests parametrize over.
POLICY_KERNELS = {"loop": LoopPolicyBackend, "vectorized": VectorizedPolicyBackend}


class PerTaskMaster(Master):
    """Master oracle: immediate-mode policies place one task per invocation.

    The production master places an immediate-mode policy's whole queue in
    one wave.  This one keeps the original per-task path: for each task in
    FCFS order it rebuilds the (offline-masked) context from the master's
    live loads, runs the policy on that task alone and enqueues the pick,
    diverting a pick on an offline processor.  Every later task therefore
    sees the loads of the diverted placements before it.
    """

    def schedule_all_available(self, time: float) -> int:
        if not isinstance(self.scheduler, ImmediateScheduler):
            return super().schedule_all_available(time)
        assigned = 0
        while self.unscheduled and self.online_processors():
            task = self.unscheduled.popleft()
            assignment = self.scheduler.schedule([task], self.build_context(time))
            self._enqueue([(task, assignment.processor_of(task.task_id))], time)
            self.invocations += 1
            self.batch_sizes.append(1)
            assigned += 1
        return assigned


@contextmanager
def policy_kernels_installed(kernels: PolicyKernelBackend) -> Iterator[None]:
    """Build every simulation's master with *kernels* inside the block.

    The simulation constructs its :class:`~repro.sim.master.Master`
    internally; this swaps in a master factory passing ``kernels=`` so the
    whole run, on either simulation path, decides through the oracle.  The
    :class:`LoopPolicyBackend` oracle gets a :class:`PerTaskMaster`.
    """
    master = PerTaskMaster if isinstance(kernels, LoopPolicyBackend) else Master
    with mock.patch.object(simulation_module, "Master", partial(master, kernels=kernels)):
        yield


#: The simulator's two paths by the name parity tests parametrize over.
SIM_PATHS = ("event", "fast")


@contextmanager
def event_engine_forced() -> Iterator[None]:
    """Run every simulation inside the block on the discrete-event engine.

    Static runs otherwise replay through :mod:`repro.sim.fastpath`.  The
    patch reaches this process only: work a process pool runs elsewhere
    takes its usual path.
    """
    with mock.patch.object(
        DistributedSystemSimulation, "uses_fast_path", lambda self: False
    ):
        yield


def sim_path(name: str) -> ContextManager[None]:
    """The block that runs simulations on path *name* (one of :data:`SIM_PATHS`)."""
    if name not in SIM_PATHS:
        raise ValueError(f"unknown simulation path {name!r}; expected one of {SIM_PATHS}")
    return event_engine_forced() if name == "event" else nullcontext()


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
