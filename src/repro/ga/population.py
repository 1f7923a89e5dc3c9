"""Initial-population construction (Sect. 3.3 of the paper).

The initial population is seeded with a *list scheduling heuristic*: for each
individual, a percentage of the batch's tasks are assigned to random
processors and the remaining tasks are assigned to the processor that would
finish them earliest, given the load accumulated so far.  This produces a
"well balanced randomised initial population" — diverse enough for the GA to
explore, but already close to sensible schedules.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..util.rng import RNGLike, ensure_rng
from ..util.validation import require_positive_int, require_probability
from .encoding import chromosome_from_queues, random_chromosome
from .problem import BatchProblem

__all__ = [
    "list_scheduled_assignment",
    "seeded_individual",
    "seeded_population",
    "random_population",
]


def list_scheduled_assignment(
    problem: BatchProblem,
    random_fraction: float,
    rng: RNGLike = None,
) -> np.ndarray:
    """One assignment vector from the paper's list-scheduling seeding heuristic.

    Tasks are visited in random order; the first ``random_fraction`` of them
    go to uniformly random processors and the rest go to the processor with
    the earliest estimated finish time (pending load plus load accumulated by
    this individual, plus the link's communication estimate).
    """
    require_probability(random_fraction, "random_fraction")
    gen = ensure_rng(rng)
    h, m = problem.n_tasks, problem.n_processors
    order = gen.permutation(h)
    n_random = int(round(random_fraction * h))

    assignment = np.empty(h, dtype=int)
    # Working estimate of each processor's finish time (seconds).
    finish = problem.pending_times().copy()
    for position, task_index in enumerate(order):
        size = problem.sizes[task_index]
        if position < n_random:
            proc = int(gen.integers(0, m))
        else:
            projected = finish + size / problem.rates + problem.comm_costs
            proc = int(projected.argmin())
        assignment[task_index] = proc
        finish[proc] += size / problem.rates[proc] + problem.comm_costs[proc]
    return assignment


def seeded_individual(
    problem: BatchProblem,
    random_fraction: float,
    rng: RNGLike = None,
) -> np.ndarray:
    """One chromosome built from the list-scheduling heuristic.

    Queue order follows the random visiting order of the heuristic, so two
    individuals with the same assignment still differ as chromosomes.
    """
    gen = ensure_rng(rng)
    assignment = list_scheduled_assignment(problem, random_fraction, gen)
    # Build queues preserving a random dispatch order within each queue.
    order = gen.permutation(problem.n_tasks)
    queues: List[List[int]] = [[] for _ in range(problem.n_processors)]
    for task_index in order:
        queues[int(assignment[task_index])].append(int(task_index))
    return chromosome_from_queues(queues, problem.n_tasks)


def seeded_population(
    problem: BatchProblem,
    population_size: int,
    random_fraction: float = 0.5,
    rng: RNGLike = None,
) -> np.ndarray:
    """A population matrix (``population_size`` × chromosome length) of seeded individuals."""
    population_size = require_positive_int(population_size, "population_size")
    gen = ensure_rng(rng)
    individuals = [
        seeded_individual(problem, random_fraction, gen) for _ in range(population_size)
    ]
    return np.vstack(individuals)


def random_population(
    problem: BatchProblem,
    population_size: int,
    rng: RNGLike = None,
) -> np.ndarray:
    """A population of uniformly random chromosomes (used by the ZO baseline)."""
    population_size = require_positive_int(population_size, "population_size")
    gen = ensure_rng(rng)
    individuals = [
        random_chromosome(problem.n_tasks, problem.n_processors, gen)
        for _ in range(population_size)
    ]
    return np.vstack(individuals)
