"""Population-batched GA operator kernels and the backend abstraction.

The GA engine spends its generations in four operator stages — selection,
crossover, mutation, re-balancing — plus chromosome decoding.  The original
implementation applied each operator one individual (or one parent pair) at a
time in Python; this module batches every stage over the whole
``(population_size, chromosome_length)`` matrix with NumPy, the same move
that made fitness evaluation tractable (one ``bincount`` per population in
:mod:`repro.ga.fitness`).

:class:`VectorizedBackend` is the one production implementation of the
per-generation work: whole-population array kernels (decoding as one
scatter into a flat symbol-slot buffer, cycle crossover by pointer doubling
on flat ``row·L + position`` indices, batched swap application, and a
re-balancing pass that scores every probe slot of every individual at once).
A generation's cost is the *number* of NumPy calls, not their arithmetic —
the population is a few dozen by a few dozen — so everything that is fixed
for a problem (the cost table, ψ, the pending times) is computed once on
:class:`~repro.ga.problem.BatchProblem`, and the shape-only index grids once
per shape.  :class:`KernelBackend` is the interface the engine drives; the
test suite plugs a per-individual reference implementation of it
(``tests/oracles.py``) into ``GeneticAlgorithm(..., kernels=...)`` to gate
the kernels against the original operator functions.

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
equivalent to the per-individual reference heuristic
(``rebalance_assignment`` in ``tests/oracles.py``) *in distribution*, not
bit for bit; the test suite verifies it
statistically and by its invariants (error never increases, permutation
preserved).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from functools import lru_cache
from typing import Tuple

import numpy as np

from ..util.errors import ConfigurationError, EncodingError
from .crossover import CrossoverOperator, CycleCrossover
from .fitness import relative_errors
from .problem import BatchProblem, any_outside, row_offsets

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
    row of valid chromosomes.  Each symbol owns one slot of a flat
    ``(P, L)`` buffer — delimiter ``-d`` slot ``M-1-d``, task ``h`` slot
    ``M-1+h`` — and one scatter writes every gene's processor (the running
    delimiter count) into its symbol's slot; the task slots are the
    assignment matrix.  Every row must be a permutation of the task indices
    and the ``M-1`` distinct delimiters: a wrong length, a symbol outside
    that set, or a repeated symbol (which leaves another slot unwritten)
    raises :class:`EncodingError`.
    """
    population = np.asarray(population, dtype=np.int64)
    if population.ndim != 2:
        population = np.atleast_2d(population)
    pop, length = population.shape
    n_delimiters = n_processors - 1
    if length != n_tasks + n_delimiters:
        raise EncodingError(
            f"chromosome rows must have length {n_tasks + n_delimiters}, got {length}"
        )
    slots = population + n_delimiters
    if any_outside(slots, length):
        raise EncodingError("chromosome holds a symbol outside the task indices and delimiters")
    # The processor of a task gene is the number of delimiters before it
    # (the inclusive count, since the gene itself is not one).
    procs = (population < 0).cumsum(axis=1)
    buffer = np.empty(pop * length, dtype=np.int64)
    buffer.fill(-1)
    slots += row_offsets(pop, length)
    buffer[slots] = procs
    if (buffer < 0).any():
        raise EncodingError(
            "chromosome row is not a permutation of the task indices and delimiters"
        )
    return buffer.reshape(pop, length)[:, n_delimiters:]


# ---------------------------------------------------------------------------
# Batched cycle crossover
# ---------------------------------------------------------------------------

@lru_cache(maxsize=128)
def _cycle_grids(n_pairs: int, length: int) -> Tuple[np.ndarray, np.ndarray, int]:
    """Flat positions, inverse-buffer row offsets and doubling steps for one shape."""
    positions = np.arange(n_pairs * length, dtype=np.int64).reshape(n_pairs, length)
    positions.flags.writeable = False
    # Symbols of an L-gene chromosome lie in [-(L-1), L-1]; row k's symbol s
    # owns slot k·(2L-1) + (L-1) + s of the inverse buffer.
    row_base = row_offsets(n_pairs, 2 * length - 1)
    steps = int(np.ceil(np.log2(length))) if length > 1 else 0
    return positions, row_base, steps


def cycle_labels(parents_a: np.ndarray, parents_b: np.ndarray) -> np.ndarray:
    """Per-position cycle ranks for a batch of parent pairs.

    For each pair ``(a, b)`` the positions decompose into the cycles of the
    permutation ``i -> position in a of b[i]`` (exactly the walk of
    :func:`repro.ga.crossover.find_cycles`).  Cycles are numbered ``0, 1, …``
    in order of their smallest position — the discovery order of the
    reference implementation, which scans start positions in ascending
    order — and the returned ``(K, L)`` matrix holds each position's cycle
    number.

    The cycle structure is found without any per-pair Python work, on flat
    ``row·L + position`` indices so every step is a 1-D gather: the
    permutation is composed with itself (pointer doubling) ``ceil(log2 L)``
    times while tracking the minimum position reached, which labels every
    position with its cycle's minimum in ``O(K·L·log L)``.  Rows must be
    permutations of a common symbol set within ``[-(L-1), L-1]`` (every
    chromosome of :mod:`repro.ga.encoding` is); other symbols raise
    :class:`EncodingError`.
    """
    a = np.asarray(parents_a, dtype=np.int64)
    b = np.asarray(parents_b, dtype=np.int64)
    if a.ndim != 2 or b.ndim != 2:
        a, b = np.atleast_2d(a), np.atleast_2d(b)
    if a.shape != b.shape:
        raise EncodingError("parent batches must have identical shapes")
    k, length = a.shape
    positions, row_base, steps = _cycle_grids(k, length)
    slots_a = a + (length - 1)
    if any_outside(slots_a, 2 * length - 1):
        raise EncodingError(f"parent symbols must lie in [-{length - 1}, {length - 1}]")
    slots_a += row_base
    inverse = np.empty(k * (2 * length - 1), dtype=np.int64)
    inverse[slots_a] = positions
    perm = inverse[b + (row_base + (length - 1))]  # flat position in a of b[:, i]

    cycle_min = np.minimum(positions, perm)
    pointer = perm
    for step in range(steps):
        np.minimum(cycle_min, cycle_min.take(pointer), out=cycle_min)
        if step + 1 < steps:
            pointer = pointer.take(pointer)

    # A position is its cycle's representative iff it equals the cycle minimum;
    # ranking the representatives in position order numbers the cycles exactly
    # as the sequential scan discovers them.
    discovery_rank = (cycle_min == positions).cumsum(axis=1)
    discovery_rank -= 1
    return discovery_rank.take(cycle_min)


def cycle_crossover_batch(
    parents_a: np.ndarray, parents_b: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Cycle crossover applied to a whole batch of parent pairs at once.

    Bit-identical to :meth:`repro.ga.crossover.CycleCrossover.cross` applied
    row by row: odd-numbered cycles swap parental material.  Rows must be
    permutations of a common symbol set (not re-validated here — the engine
    maintains this invariant).
    """
    a = np.asarray(parents_a, dtype=np.int64)
    b = np.asarray(parents_b, dtype=np.int64)
    swap = (cycle_labels(a, b) & 1).astype(bool)
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
        held = population[rows, i]
        population[rows, i] = population[rows, j]
        population[rows, j] = held


# ---------------------------------------------------------------------------
# Batched re-balancing heuristic
# ---------------------------------------------------------------------------

@lru_cache(maxsize=128)
def _rebalance_grids(pop: int, n_slots: int, m: int) -> Tuple[np.ndarray, ...]:
    """Row ids, slot ids and each (row, slot)'s flat offset in the trial matrix."""
    row_ids = np.arange(pop)
    slot_ids = np.arange(n_slots)
    trial_base = row_offsets(pop * n_slots, m).reshape(pop, n_slots)
    for grid in (row_ids, slot_ids):
        grid.flags.writeable = False
    return row_ids, slot_ids, trial_base


def rebalance_population(
    population: np.ndarray,
    assignments: np.ndarray,
    completions: np.ndarray,
    problem: BatchProblem,
    n_rebalances: int,
    rng: np.random.Generator,
    max_probes: int = 5,
) -> np.ndarray:
    """Apply the paper's re-balancing heuristic to every individual at once.

    Mirrors the per-individual reference heuristic (``rebalance_assignment``
    in ``tests/oracles.py``) across the whole population: per round, each
    individual picks one random task off its most heavily loaded
    processor's peers ("candidate"), probes up to *max_probes* random
    distinct tasks on the heavy processor in random order, and accepts the
    first strictly-smaller probe whose swap lowers the schedule's relative
    error.  Accepted swaps are mirrored into the chromosome matrix
    (*population*), the assignment matrix and the completion-time matrix, all
    updated in place; rows that accept nothing are left untouched.  Returns
    the ``(pop,)`` boolean mask of the rows whose assignment changed.

    All probe slots are scored in one ``(pop·slots, M)`` pass: a row's
    completion times do not change between its slots until it accepts, so
    taking each row's first improving slot accepts exactly the swaps a
    slot-by-slot scan would.

    Draw layout per round (fixed shape, value-independent): one uniform per
    individual for the candidate pick, then one ``(pop, n_tasks)`` uniform
    block whose per-row ranking of the heavy processor's tasks is the probe
    order.  This matches the per-individual heuristic in distribution
    (uniform candidate, uniform without-replacement probe order) but not
    draw for draw, since that heuristic's draw count depends on each
    schedule.
    """
    pop, n_tasks = assignments.shape
    m = problem.n_processors
    sizes = problem.sizes
    rates = problem.rates
    psi = problem.optimal_time()
    n_slots = min(max_probes, n_tasks)
    row_ids, slot_ids, trial_base = _rebalance_grids(pop, n_slots, m)
    changed = np.zeros(pop, dtype=bool)

    errors = relative_errors(completions, psi)
    for round_index in range(n_rebalances):
        heavy = completions.argmax(axis=1)
        heavy_mask = assignments == heavy[:, None]
        other_running = (~heavy_mask).cumsum(axis=1)
        other_counts = other_running[:, -1]
        heavy_counts = n_tasks - other_counts

        candidate_uniform = rng.random(pop)
        probe_keys = rng.random((pop, n_tasks))
        active = (heavy_counts > 0) & (other_counts > 0)
        if not active.any():
            continue

        # Candidate: the k-th task (uniform k) not on the heavy processor.
        # (Rows with no such task are inactive; their candidate is unused.)
        k = np.minimum((candidate_uniform * other_counts).astype(int), other_counts - 1)
        candidate = (other_running > k[:, None]).argmax(axis=1)
        candidate_proc = assignments[row_ids, candidate]
        candidate_size = sizes[candidate]

        # Probe order: heavy-processor tasks ranked by their random keys.
        keyed = np.where(heavy_mask, probe_keys, np.inf)
        probes = keyed.argsort(axis=1)[:, :n_slots]
        probe_size = sizes[probes]
        viable = (
            (slot_ids < heavy_counts[:, None])
            & (candidate_size[:, None] < probe_size)
            & active[:, None]
        )
        if not viable.any():
            continue

        # Completion times after each (row, slot) swap: only the heavy and
        # the candidate's processors move.
        delta = candidate_size[:, None] - probe_size
        trial = completions.repeat(n_slots, axis=0)
        flat = trial.reshape(-1)
        flat[trial_base + heavy[:, None]] += delta / rates[heavy][:, None]
        flat[trial_base + candidate_proc[:, None]] -= delta / rates[candidate_proc][:, None]
        trial_errors = relative_errors(trial, psi).reshape(pop, n_slots)

        improved = viable & (trial_errors < errors[:, None])
        slot = improved.argmax(axis=1)
        hits = improved[row_ids, slot].nonzero()[0]
        if hits.size == 0:
            continue
        slot = slot[hits]
        probe_tasks = probes[hits, slot]
        candidate_tasks = candidate[hits]
        assignments[hits, probe_tasks] = candidate_proc[hits]
        assignments[hits, candidate_tasks] = heavy[hits]
        completions[hits] = trial[hits * n_slots + slot]
        if round_index + 1 < n_rebalances:
            errors[hits] = trial_errors[hits, slot]
        changed[hits] = True
        # Mirror each accepted task swap into the chromosome row: the two
        # task genes exchange positions, as in the per-individual heuristic.
        genes = population[hits]
        probe_pos = (genes == probe_tasks[:, None]).argmax(axis=1)
        cand_pos = (genes == candidate_tasks[:, None]).argmax(axis=1)
        population[hits, probe_pos] = candidate_tasks
        population[hits, cand_pos] = probe_tasks
    return changed


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
    ) -> np.ndarray:
        """Re-balance every individual, updating all three matrices in place.

        Returns the ``(P,)`` boolean mask of the rows whose assignment
        changed; rows outside it must be left untouched (the engine skips
        re-evaluating a population in which no row changed).
        """

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
        crossing = (gates < rate).nonzero()[0]
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
        rows = (gates < rate).nonzero()[0]
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
    ) -> np.ndarray:
        return rebalance_population(
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
