"""Experiment scales and shared configuration.

The paper's evaluation uses up to 10,000 tasks, 50 processors, 1000 GA
generations and 20–50 repeats per data point — far too expensive for a pure
Python test suite to run routinely.  Every experiment therefore accepts an
:class:`ExperimentScale` that fixes the task count, processor count, GA
budget, repeat count and communication-cost sweep.  The ``paper`` scale
matches the publication; ``small`` is the default for benchmarks; ``smoke``
is for CI-fast sanity runs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Dict, List, Sequence

from ..parallel.executor import EXECUTOR_KINDS
from ..sim.simulation import SIM_BACKENDS
from ..util.errors import ConfigurationError
from ..util.validation import require_positive_int

__all__ = ["ExperimentScale", "SCALES", "get_scale", "default_scale"]


@dataclass(frozen=True)
class ExperimentScale:
    """A named set of experiment sizes.

    Attributes
    ----------
    name:
        Identifier (``smoke``, ``small``, ``medium``, ``paper``).
    n_tasks:
        Number of tasks for the efficiency sweeps (paper Fig. 5/7: 1000).
    n_tasks_large:
        Number of tasks for the makespan bar figures (paper Figs. 6, 8–11:
        up to 10,000).
    n_processors:
        Number of heterogeneous processors (paper: 50).
    batch_size:
        Fixed batch size for the batch-mode baselines (paper: 200).
    max_generations:
        GA generation limit (paper: 1000).
    repeats:
        Number of independent repeats averaged per data point (paper: 20–50).
    comm_cost_means:
        Mean per-link communication costs (seconds) swept in the efficiency
        figures; the paper's x-axis is ``1 / mean cost`` from 0.01 to 0.1.
    bar_comm_cost_mean:
        Mean communication cost used by the makespan bar figures.
    convergence_generations:
        Generation budget of the Fig. 3 convergence study.
    jobs:
        Worker processes used to shard independent repeats (and sweep points
        / figure conditions); ``1`` runs everything serially in-process.
        Aggregates are bit-identical for any value — see
        :mod:`repro.parallel`.
    executor:
        Which executor family shards the work when ``jobs > 1``:
        ``"process"`` (the chunked process pool, the default) or ``"async"``
        (the work-stealing pool of
        :mod:`repro.parallel.async_executor`); ``"serial"`` forces
        in-process execution regardless of ``jobs``.  Aggregates are
        bit-identical for any choice; CLI ``--executor`` overrides it.
    sim_backend:
        Simulation core of every simulated schedule (``"fast"`` — the
        batched static-replay backend, the default — or ``"event"`` — the
        discrete-event engine).  Both produce bit-identical results; see
        :mod:`repro.sim.fastpath`.  CLI ``--sim-backend`` overrides it.
    """

    name: str
    n_tasks: int
    n_tasks_large: int
    n_processors: int
    batch_size: int
    max_generations: int
    repeats: int
    comm_cost_means: Sequence[float] = field(default_factory=tuple)
    bar_comm_cost_mean: float = 20.0
    convergence_generations: int = 100
    jobs: int = 1
    executor: str = "process"
    sim_backend: str = "fast"

    def __post_init__(self) -> None:
        require_positive_int(self.n_tasks, "n_tasks")
        require_positive_int(self.n_tasks_large, "n_tasks_large")
        require_positive_int(self.n_processors, "n_processors")
        require_positive_int(self.batch_size, "batch_size")
        require_positive_int(self.max_generations, "max_generations")
        require_positive_int(self.repeats, "repeats")
        require_positive_int(self.convergence_generations, "convergence_generations")
        require_positive_int(self.jobs, "jobs")
        if self.executor not in EXECUTOR_KINDS:
            raise ConfigurationError(
                f"unknown executor {self.executor!r}; "
                f"expected one of {list(EXECUTOR_KINDS)}"
            )
        if self.sim_backend not in SIM_BACKENDS:
            raise ConfigurationError(
                f"unknown sim_backend {self.sim_backend!r}; "
                f"expected one of {list(SIM_BACKENDS)}"
            )
        if not self.comm_cost_means:
            raise ConfigurationError("comm_cost_means must contain at least one value")
        if any(c <= 0 for c in self.comm_cost_means):
            raise ConfigurationError("all comm cost means must be positive")
        if self.bar_comm_cost_mean <= 0:
            raise ConfigurationError("bar_comm_cost_mean must be positive")

    def inverse_comm_costs(self) -> List[float]:
        """The paper's x-axis values ``1 / mean communication cost``."""
        return [1.0 / c for c in self.comm_cost_means]

    def scaled(self, **overrides) -> "ExperimentScale":
        """Return a copy with selected fields overridden."""
        return replace(self, **overrides)


#: Named presets.  ``paper`` mirrors the publication's parameters; the others
#: shrink every dimension while keeping the workload *shapes* identical.
SCALES: Dict[str, ExperimentScale] = {
    "smoke": ExperimentScale(
        name="smoke",
        n_tasks=60,
        n_tasks_large=80,
        n_processors=5,
        batch_size=20,
        max_generations=12,
        repeats=1,
        comm_cost_means=(10.0, 50.0),
        bar_comm_cost_mean=5.0,
        convergence_generations=20,
    ),
    "small": ExperimentScale(
        name="small",
        n_tasks=200,
        n_tasks_large=300,
        n_processors=10,
        batch_size=50,
        max_generations=40,
        repeats=2,
        comm_cost_means=(10.0, 20.0, 50.0, 100.0),
        bar_comm_cost_mean=10.0,
        convergence_generations=60,
    ),
    "medium": ExperimentScale(
        name="medium",
        n_tasks=600,
        n_tasks_large=1500,
        n_processors=20,
        batch_size=120,
        max_generations=150,
        repeats=5,
        comm_cost_means=(10.0, 16.7, 25.0, 50.0, 100.0),
        bar_comm_cost_mean=15.0,
        convergence_generations=200,
    ),
    "paper": ExperimentScale(
        name="paper",
        n_tasks=1000,
        n_tasks_large=10000,
        n_processors=50,
        batch_size=200,
        max_generations=1000,
        repeats=20,
        comm_cost_means=(10.0, 11.1, 12.5, 14.3, 16.7, 20.0, 25.0, 33.3, 50.0, 100.0),
        bar_comm_cost_mean=20.0,
        convergence_generations=1000,
    ),
}


def get_scale(name: str) -> ExperimentScale:
    """Look up a scale preset by name (case-insensitive)."""
    key = name.strip().lower()
    if key not in SCALES:
        raise ConfigurationError(f"unknown scale {name!r}; expected one of {sorted(SCALES)}")
    return SCALES[key]


def default_scale() -> ExperimentScale:
    """The default experiment scale.

    ``small`` unless the environment variable ``REPRO_PAPER_SCALE`` is set to
    a truthy value, in which case the full paper-scale parameters are used.
    """
    if os.environ.get("REPRO_PAPER_SCALE", "").strip() in {"1", "true", "yes"}:
        return SCALES["paper"]
    return SCALES["small"]
