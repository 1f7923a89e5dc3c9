"""Population-batched GA operator kernels and the backend abstraction.

The GA engine spends its generations in four operator stages — selection,
crossover, mutation, re-balancing — plus chromosome decoding.  The original
implementation applied each operator one individual (or one parent pair) at a
time in Python; this module batches every stage over the whole
``(population_size, chromosome_length)`` matrix with NumPy, the same move
that made fitness evaluation tractable (one ``bincount`` per population in
:mod:`repro.ga.fitness`).

:class:`VectorizedBackend` is the one production implementation of the
per-generation work: whole-population array kernels (cycle crossover via
permutation composition and pointer doubling, batched swap application,
``bincount``-style rebalance deltas).  :class:`KernelBackend` is the
interface the engine drives; the test suite plugs a per-individual reference
implementation of it (``tests/oracles.py``) into
``GeneticAlgorithm(..., kernels=...)`` to gate the kernels against the
original operator functions.

RNG draw-order contract
-----------------------
Every backend consumes the engine's random stream in the same documented
order, so that wherever an operator is *deterministic given its draws* two
backends produce bit-identical populations for a fixed seed.  Per
generation, after fitness evaluation, the draws are:

1. **selection** — one batched call of the selection operator
   (roulette consumes exactly ``population_size`` uniforms via
   :func:`repro.ga.selection.roulette_select`; tournament consumes one
   ``(n, k)`` integer block).
2. **crossover gates** — one ``rng.random(n_pairs)`` block
   (``n_pairs = population_size // 2``); pair ``i`` crosses iff
   ``gates[i] < crossover_rate``.  NumPy guarantees a size-``n`` block equals
   ``n`` sequential scalar draws, so a per-pair backend may draw per pair.
3. **crossover operator draws** — none for cycle crossover (it is
   deterministic given the parents); operators that do draw (PMX, OX) are
   applied pair by pair in ascending pair order by *every* backend.
4. **mutation gates** — one ``rng.random(population_size)`` block;
   individual ``i`` mutates iff ``gates[i] < mutation_rate``.
5. **swap positions** — two integer blocks via :func:`draw_swap_positions`:
   first positions ``rng.integers(0, L, size=(n_mutated, n_swaps))``, then
   partner positions ``rng.integers(0, L - 1, ...)`` shifted past the first
   index, ordered by (individual ascending, swap ascending).

Stages 2–5 are therefore bit-identical between backends.  The re-balancing
heuristic and selection make *value-dependent* random draws (which tasks to
probe depends on the current schedule), so the vectorized rebalance uses its
own fixed-shape draw layout (one uniform per individual for the candidate,
one ``(pop, n_tasks)`` uniform block for the probe order per round) and is
equivalent to the per-individual heuristic of :mod:`repro.ga.mutation`
*in distribution*, not bit for bit; the test suite verifies it
statistically and by its invariants (error never increases, permutation
preserved).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Tuple

import numpy as np

from ..util.errors import ConfigurationError, EncodingError
from .crossover import CrossoverOperator, CycleCrossover
from .problem import BatchProblem

__all__ = [
    "KernelBackend",
    "VectorizedBackend",
    "cycle_crossover_batch",
    "cycle_labels",
    "decode_population",
    "draw_swap_positions",
    "swap_positions_batch",
    "rebalance_population",
]

# ---------------------------------------------------------------------------
# Shared draw helpers (the draw-order contract)
# ---------------------------------------------------------------------------

def draw_swap_positions(
    rng: np.random.Generator, n_rows: int, n_swaps: int, length: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Draw the swap-mutation position pairs for *n_rows* mutated individuals.

    Returns two ``(n_rows, n_swaps)`` integer arrays ``(i, j)`` with
    ``i != j`` elementwise, uniform over ordered distinct position pairs.
    The draws are consumed as two blocks (all first positions, then all
    partner positions) so both backends read the identical stream; a block
    of ``rng.integers`` is bit-identical to the same number of sequential
    scalar draws.
    """
    if length < 2:
        raise ConfigurationError("chromosomes must have at least 2 genes to swap")
    i = rng.integers(0, length, size=(n_rows, n_swaps))
    j = rng.integers(0, length - 1, size=(n_rows, n_swaps))
    j = j + (j >= i)
    return i, j


# ---------------------------------------------------------------------------
# Batched decoding
# ---------------------------------------------------------------------------

def decode_population(
    population: np.ndarray, n_tasks: int, n_processors: int
) -> np.ndarray:
    """Decode a ``(P, L)`` chromosome matrix into ``(P, H)`` assignment vectors.

    Equivalent to calling :func:`repro.ga.encoding.decode_assignment` on each
    row, but in three vectorised passes: a delimiter mask, a running delimiter
    count (the processor index of every gene) and one scatter of the task
    genes.  Rows must be valid chromosomes (permutations of the task indices
    plus the distinct negative delimiters).
    """
    population = np.atleast_2d(np.asarray(population, dtype=int))
    pop, length = population.shape
    if length != n_tasks + n_processors - 1:
        raise EncodingError(
            f"chromosome rows must have length {n_tasks + n_processors - 1}, got {length}"
        )
    delimiter = population < 0
    # processor index of each gene = number of delimiters strictly before it
    proc_of_gene = np.zeros((pop, length), dtype=int)
    if length > 1:
        np.cumsum(delimiter[:, :-1], axis=1, out=proc_of_gene[:, 1:])
    task_mask = ~delimiter
    task_genes = population[task_mask]
    if task_genes.size != pop * n_tasks:
        raise EncodingError("every row must contain exactly H task genes")
    if task_genes.size and (task_genes.min() < 0 or task_genes.max() >= n_tasks):
        raise EncodingError("chromosome references a task index outside the batch")
    rows = np.broadcast_to(np.arange(pop)[:, None], (pop, length))[task_mask]
    assignments = np.full((pop, n_tasks), -1, dtype=int)
    assignments[rows, task_genes] = proc_of_gene[task_mask]
    if np.any(assignments < 0):
        raise EncodingError("chromosome rows do not cover every task index")
    if np.any(assignments >= n_processors):
        raise EncodingError("chromosome assigns tasks beyond the last processor")
    return assignments


# ---------------------------------------------------------------------------
# Batched cycle crossover
# ---------------------------------------------------------------------------

def cycle_labels(parents_a: np.ndarray, parents_b: np.ndarray) -> np.ndarray:
    """Per-position cycle ranks for a batch of parent pairs.

    For each pair ``(a, b)`` the positions decompose into the cycles of the
    permutation ``i -> position in a of b[i]`` (exactly the walk of
    :func:`repro.ga.crossover.find_cycles`).  Cycles are numbered ``0, 1, …``
    in order of their smallest position — the discovery order of the
    reference implementation, which scans start positions in ascending
    order — and the returned ``(K, L)`` matrix holds each position's cycle
    number.

    The cycle structure is found without any per-pair Python work: the
    permutation is composed with itself (pointer doubling) ``ceil(log2 L)``
    times while tracking the minimum position reached, which labels every
    position with its cycle's minimum in ``O(K·L·log L)``.
    """
    a = np.atleast_2d(np.asarray(parents_a, dtype=int))
    b = np.atleast_2d(np.asarray(parents_b, dtype=int))
    if a.shape != b.shape:
        raise EncodingError("parent batches must have identical shapes")
    k, length = a.shape
    # Shift symbols to 0..L-1: task indices are >= 0, delimiters -1..-(M-1).
    offset = -min(int(a.min()), 0) if a.size else 0
    symbol_range = offset + int(a.max()) + 1 if a.size else 0
    rows = np.arange(k)[:, None]
    inverse_a = np.empty((k, symbol_range), dtype=int)
    inverse_a[rows, a + offset] = np.arange(length)[None, :]
    perm = inverse_a[rows, b + offset]  # position in a of the symbol at b[:, i]

    positions = np.arange(length)[None, :]
    cycle_min = np.minimum(positions, perm)
    pointer = perm
    steps = max(int(np.ceil(np.log2(length))), 1) if length > 1 else 0
    for _ in range(steps):
        cycle_min = np.minimum(cycle_min, np.take_along_axis(cycle_min, pointer, axis=1))
        pointer = np.take_along_axis(pointer, pointer, axis=1)

    # A position is its cycle's representative iff it equals the cycle minimum;
    # ranking the representatives in position order numbers the cycles exactly
    # as the sequential scan discovers them.
    is_representative = cycle_min == positions
    discovery_rank = np.cumsum(is_representative, axis=1) - 1
    return np.take_along_axis(discovery_rank, cycle_min, axis=1)


def cycle_crossover_batch(
    parents_a: np.ndarray, parents_b: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Cycle crossover applied to a whole batch of parent pairs at once.

    Bit-identical to :meth:`repro.ga.crossover.CycleCrossover.cross` applied
    row by row: odd-numbered cycles swap parental material.  Rows must be
    permutations of a common symbol set (not re-validated here — the engine
    maintains this invariant).
    """
    a = np.atleast_2d(np.asarray(parents_a, dtype=int))
    b = np.atleast_2d(np.asarray(parents_b, dtype=int))
    labels = cycle_labels(a, b)
    swap = labels % 2 == 1
    child_a = np.where(swap, b, a)
    child_b = np.where(swap, a, b)
    return child_a, child_b


# ---------------------------------------------------------------------------
# Batched swap mutation
# ---------------------------------------------------------------------------

def swap_positions_batch(
    population: np.ndarray, rows: np.ndarray, i_pos: np.ndarray, j_pos: np.ndarray
) -> None:
    """Apply per-row position swaps to *population* in place.

    ``rows`` selects the mutated rows; ``i_pos``/``j_pos`` are the
    ``(len(rows), n_swaps)`` position pairs from :func:`draw_swap_positions`.
    Swaps within a row are applied in ascending swap order (they may touch
    the same positions), vectorised across rows per swap slot.
    """
    rows = np.asarray(rows, dtype=int)
    if rows.size == 0:
        return
    for swap in range(i_pos.shape[1]):
        i = i_pos[:, swap]
        j = j_pos[:, swap]
        held = population[rows, i].copy()
        population[rows, i] = population[rows, j]
        population[rows, j] = held


# ---------------------------------------------------------------------------
# Batched re-balancing heuristic
# ---------------------------------------------------------------------------

def rebalance_population(
    population: np.ndarray,
    assignments: np.ndarray,
    completions: np.ndarray,
    problem: BatchProblem,
    n_rebalances: int,
    rng: np.random.Generator,
    max_probes: int = 5,
) -> None:
    """Apply the paper's re-balancing heuristic to every individual at once.

    Mirrors :func:`repro.ga.mutation.rebalance_assignment` across the whole
    population: per round, each individual picks one random task off its most
    heavily loaded processor's peers ("candidate"), probes up to *max_probes*
    random distinct tasks on the heavy processor in random order, and accepts
    the first strictly-smaller probe whose swap lowers the schedule's relative
    error.  Accepted swaps are mirrored into the chromosome matrix
    (*population*), the assignment matrix and the completion-time matrix, all
    updated in place.

    Draw layout per round (fixed shape, value-independent): one uniform per
    individual for the candidate pick, then one ``(pop, n_tasks)`` uniform
    block whose per-row ranking of the heavy processor's tasks is the probe
    order.  This matches the per-individual heuristic in distribution
    (uniform candidate, uniform without-replacement probe order) but not
    draw for draw, since that heuristic's draw count depends on each
    schedule.
    """
    pop, n_tasks = assignments.shape
    sizes = problem.sizes
    rates = problem.rates
    psi = problem.optimal_time()
    row_ids = np.arange(pop)

    errors = np.sqrt(np.sum((completions - psi) ** 2, axis=1))
    for _ in range(n_rebalances):
        heavy = np.argmax(completions, axis=1)
        heavy_mask = assignments == heavy[:, None]
        heavy_counts = heavy_mask.sum(axis=1)
        other_counts = n_tasks - heavy_counts
        active = (heavy_counts > 0) & (other_counts > 0)

        candidate_uniform = rng.random(pop)
        probe_keys = rng.random((pop, n_tasks))
        if not np.any(active):
            continue

        # Candidate: the k-th task (uniform k) not on the heavy processor.
        k = np.minimum(
            (candidate_uniform * np.maximum(other_counts, 1)).astype(int),
            np.maximum(other_counts - 1, 0),
        )
        other_running = np.cumsum(~heavy_mask, axis=1)
        candidate = np.argmax(other_running == (k + 1)[:, None], axis=1)
        candidate_proc = assignments[row_ids, candidate]
        candidate_size = sizes[candidate]

        # Probe order: heavy-processor tasks ranked by their random keys.
        keyed = np.where(heavy_mask, probe_keys, np.inf)
        probe_order = np.argsort(keyed, axis=1)

        accepted = np.zeros(pop, dtype=bool)
        for slot in range(min(max_probes, n_tasks)):
            probe = probe_order[:, slot]
            probe_size = sizes[probe]
            viable = (
                active
                & ~accepted
                & (slot < heavy_counts)
                & (candidate_size < probe_size)
            )
            rows = np.nonzero(viable)[0]
            if rows.size == 0:
                continue
            updated = completions[rows].copy()
            local = np.arange(rows.size)
            heavy_rows = heavy[rows]
            cand_proc_rows = candidate_proc[rows]
            delta = candidate_size[rows] - probe_size[rows]
            updated[local, heavy_rows] += delta / rates[heavy_rows]
            updated[local, cand_proc_rows] -= delta / rates[cand_proc_rows]
            new_errors = np.sqrt(np.sum((updated - psi) ** 2, axis=1))
            improved = new_errors < errors[rows]
            hits = rows[improved]
            if hits.size == 0:
                continue
            probe_tasks = probe[hits]
            candidate_tasks = candidate[hits]
            assignments[hits, probe_tasks] = candidate_proc[hits]
            assignments[hits, candidate_tasks] = heavy[hits]
            completions[hits] = updated[improved]
            errors[hits] = new_errors[improved]
            accepted[hits] = True
            # Mirror each accepted task swap into the chromosome row: the two
            # task genes exchange positions, as in the per-individual heuristic.
            probe_pos = np.argmax(population[hits] == probe_tasks[:, None], axis=1)
            cand_pos = np.argmax(population[hits] == candidate_tasks[:, None], axis=1)
            held = population[hits, probe_pos].copy()
            population[hits, probe_pos] = population[hits, cand_pos]
            population[hits, cand_pos] = held


# ---------------------------------------------------------------------------
# Backends
# ---------------------------------------------------------------------------

class KernelBackend(ABC):
    """One implementation of the GA's per-generation population transforms.

    The engine owns the evaluation loop, elitism and the stopping logic; a
    backend supplies decoding, re-balancing, crossover and mutation over the
    population matrix.  The random *draws* of crossover and mutation — the
    gate blocks and swap-position blocks of the module-level draw-order
    contract — are made here in the base class, so every backend reads the
    identical stream by construction; subclasses only implement how the
    drawn operations are *applied* to the population matrix.
    """

    name: str = "backend"

    @abstractmethod
    def decode(self, population: np.ndarray, problem: BatchProblem) -> np.ndarray:
        """Decode the ``(P, L)`` chromosome matrix into ``(P, H)`` assignments."""

    @abstractmethod
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
        """Re-balance every individual, updating all three matrices in place."""

    def crossover(
        self,
        parents: np.ndarray,
        operator: CrossoverOperator,
        rate: float,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Cross consecutive parent pairs in place, gated per pair by *rate*."""
        n_pairs = parents.shape[0] // 2
        if n_pairs == 0:
            return parents
        gates = rng.random(n_pairs)  # contract stage 2: one block
        crossing = np.nonzero(gates < rate)[0]
        if crossing.size:
            self._apply_crossover(parents, crossing, operator, rng)
        return parents

    def mutate(
        self,
        population: np.ndarray,
        rate: float,
        n_swaps: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Swap-mutate individuals in place, gated per individual by *rate*."""
        pop, length = population.shape
        gates = rng.random(pop)  # contract stage 4: one block
        rows = np.nonzero(gates < rate)[0]
        if rows.size == 0 or length < 2 or n_swaps == 0:
            return population
        i_pos, j_pos = draw_swap_positions(rng, rows.size, n_swaps, length)
        self._apply_swaps(population, rows, i_pos, j_pos)
        return population

    @abstractmethod
    def _apply_crossover(
        self,
        parents: np.ndarray,
        crossing: np.ndarray,
        operator: CrossoverOperator,
        rng: np.random.Generator,
    ) -> None:
        """Cross the gated pairs (``crossing`` holds pair indices) in place."""

    @abstractmethod
    def _apply_swaps(
        self,
        population: np.ndarray,
        rows: np.ndarray,
        i_pos: np.ndarray,
        j_pos: np.ndarray,
    ) -> None:
        """Apply the drawn swap-position pairs to the mutated rows in place."""

    @staticmethod
    def _cross_pairs_sequentially(
        parents: np.ndarray,
        crossing: np.ndarray,
        operator: CrossoverOperator,
        rng: np.random.Generator,
    ) -> None:
        """Contract stage 3: apply the operator pair by pair in ascending order."""
        for pair in crossing:
            first, second = 2 * int(pair), 2 * int(pair) + 1
            child_a, child_b = operator.cross(parents[first], parents[second], rng=rng)
            parents[first] = child_a
            parents[second] = child_b

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class VectorizedBackend(KernelBackend):
    """Array-native backend: every stage operates on the whole population matrix."""

    name = "vectorized"

    def decode(self, population: np.ndarray, problem: BatchProblem) -> np.ndarray:
        return decode_population(population, problem.n_tasks, problem.n_processors)

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
        rebalance_population(
            population,
            assignments,
            completions,
            problem,
            n_rebalances,
            rng,
            max_probes=max_probes,
        )

    def _apply_crossover(
        self,
        parents: np.ndarray,
        crossing: np.ndarray,
        operator: CrossoverOperator,
        rng: np.random.Generator,
    ) -> None:
        # The batch kernel computes cycle crossover specifically, so it only
        # substitutes for the genuine CycleCrossover operator (subclasses may
        # override cross() and must not be silently re-routed).  Every other
        # operator — including ones that draw per pair, like PMX and OX —
        # follows contract stage 3 (pair by pair, ascending).
        if type(operator) is CycleCrossover:
            first_rows = 2 * crossing
            second_rows = first_rows + 1
            children_a, children_b = cycle_crossover_batch(
                parents[first_rows], parents[second_rows]
            )
            parents[first_rows] = children_a
            parents[second_rows] = children_b
            return
        self._cross_pairs_sequentially(parents, crossing, operator, rng)

    def _apply_swaps(
        self,
        population: np.ndarray,
        rows: np.ndarray,
        i_pos: np.ndarray,
        j_pos: np.ndarray,
    ) -> None:
        swap_positions_batch(population, rows, i_pos, j_pos)
