"""Fitness evaluation (Sect. 3.2 of the paper).

The paper scores a candidate schedule by its *relative error* against the
theoretical optimum ψ:

    ψ     = Σ_i t_i / Σ_j P_j + Σ_j δ_j
    E_i   = sqrt( Σ_j | ψ − C_{j,i} |² )
    F_i   = 1 / E_i

where ``C_{j,i}`` is processor ``j``'s estimated completion time under
individual ``i``:

    C_{j,i} = δ_j + Σ_{y assigned to j} ( t_y / P_j + Γ_c(y, j) )

A perfectly balanced schedule makes every processor finish at ψ, giving zero
error and maximal fitness.  The makespan of an individual is
``max_j C_{j,i}``; it is what the experiments report, while the fitness
drives selection.

Evaluation is vectorised over the whole population: the population is
represented as an integer matrix of task→processor assignments, each
gene's term ``t_y / P_j + Γ_c(y, j)`` is one gather from the problem's
cached ``cost_table``, and the per-processor completion times are
accumulated with one ``bincount`` per call, in task-index order within each
individual (the order fixes the floating-point sums, so it is part of the
seeded-output contract).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..util.errors import ConfigurationError
from .problem import BatchProblem, any_outside, row_offsets

__all__ = [
    "FitnessResult",
    "completion_times",
    "evaluate_assignments",
    "relative_errors",
]

#: Error floor: a schedule whose error is below this is treated as perfect,
#: keeping the fitness ``1 / E`` finite.
ERROR_FLOOR = 1e-9


@dataclass(frozen=True)
class FitnessResult:
    """Vectorised evaluation of a population of assignments.

    Attributes
    ----------
    completions:
        Estimated completion time per processor, shape ``(P, M)``.
    errors:
        Relative error ``E_i`` per individual, shape ``(P,)``.
    fitness:
        ``F_i = 1 / max(E_i, floor)`` per individual, shape ``(P,)``.
    makespans:
        ``max_j C_{j,i}`` per individual, shape ``(P,)``.
    psi:
        The theoretical optimum used as the error reference.
    """

    completions: np.ndarray
    errors: np.ndarray
    fitness: np.ndarray
    makespans: np.ndarray
    psi: float

    @property
    def best_index(self) -> int:
        """Index of the individual with the lowest makespan (paper Sect. 3.4)."""
        return int(self.makespans.argmin())

    @property
    def best_makespan(self) -> float:
        """Lowest makespan in the population."""
        return float(self.makespans[self.best_index])


def completion_times(assignments: np.ndarray, problem: BatchProblem) -> np.ndarray:
    """Per-processor completion times for each individual.

    Parameters
    ----------
    assignments:
        Integer matrix of shape ``(P, H)``; entry ``[p, i]`` is the processor
        that individual ``p`` assigns task ``i`` to.
    problem:
        The batch problem supplying sizes, rates, pending loads and per-link
        communication estimates.

    Returns
    -------
    numpy.ndarray
        Matrix of shape ``(P, M)`` of estimated completion times in seconds.
    """
    assignments = np.asarray(assignments, dtype=np.int64)
    if assignments.ndim != 2:
        assignments = np.atleast_2d(assignments)
    pop, h = assignments.shape
    if h != problem.n_tasks:
        raise ConfigurationError(
            f"assignments have {h} tasks but the problem has {problem.n_tasks}"
        )
    m = problem.n_processors
    if any_outside(assignments, m):
        raise ConfigurationError("assignment matrix references an invalid processor index")

    # Per-gene contribution to its assigned processor: execution + communication.
    contrib = problem.cost_table[problem.task_offsets + assignments]  # (P, H)
    flat_index = assignments + row_offsets(pop, m)
    sums = np.bincount(flat_index.ravel(), weights=contrib.ravel(), minlength=pop * m)
    completions = sums.reshape(pop, m)
    completions += problem.pending_times()
    return completions


def relative_errors(completions: np.ndarray, psi: float) -> np.ndarray:
    """``E_i = sqrt(Σ_j (C_{j,i} − ψ)²)`` per row of a completion-time matrix."""
    deviations = completions - psi
    np.square(deviations, out=deviations)
    return np.sqrt(deviations.sum(axis=1))


def evaluate_assignments(assignments: np.ndarray, problem: BatchProblem) -> FitnessResult:
    """Evaluate a population of assignment vectors against *problem*."""
    completions = completion_times(assignments, problem)
    psi = problem.optimal_time()
    errors = relative_errors(completions, psi)
    fitness = 1.0 / np.maximum(errors, ERROR_FLOOR)
    makespans = completions.max(axis=1)
    return FitnessResult(
        completions=completions,
        errors=errors,
        fitness=fitness,
        makespans=makespans,
        psi=psi,
    )
