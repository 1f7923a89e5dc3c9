"""Generic parameter sweeps (used by the ablation benchmarks).

The paper motivates several design choices — cycle crossover, roulette-wheel
selection, a single re-balance per generation, the dynamic batch size, the
smoothing factor ν — without always quantifying the alternatives.  These
helpers sweep one GA or scheduler parameter at a time over a fixed batch
problem so the benchmarks can report how much each choice matters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence


from ..cluster.topology import heterogeneous_cluster
from ..ga.engine import GAConfig
from ..ga.problem import BatchProblem
from ..parallel.executor import ExperimentExecutor, resolve_executor
from ..parallel.jobs import GARunJob, run_ga_job
from ..util.errors import ConfigurationError
from ..util.rng import RNGLike, ensure_rng, spawn_rngs
from ..workloads.generator import generate_workload
from ..workloads.suites import normal_paper_workload
from .config import ExperimentScale, default_scale
from .stats import SampleSummary, summarise

__all__ = [
    "SweepPoint",
    "SweepResult",
    "aggregate_sweep_outcomes",
    "build_sweep_jobs",
    "make_benchmark_problem",
    "sweep_ga_parameter",
]


@dataclass(frozen=True)
class SweepPoint:
    """Aggregated GA outcome for one value of the swept parameter."""

    value: object
    makespan: SampleSummary
    reduction: SampleSummary
    generations: SampleSummary
    wall_time: SampleSummary


@dataclass
class SweepResult:
    """Outcome of a one-parameter sweep."""

    parameter: str
    points: List[SweepPoint] = field(default_factory=list)
    #: Which executor ran the GA jobs (``"serial"`` or ``"process[N]"``).
    executor: str = "serial"

    def values(self) -> List[object]:
        """The swept parameter values, in sweep order."""
        return [p.value for p in self.points]

    def best_value(self) -> object:
        """Parameter value achieving the lowest mean makespan."""
        best = min(self.points, key=lambda p: p.makespan.mean)
        return best.value

    def makespans(self) -> Dict[object, float]:
        """Mean makespan per parameter value."""
        return {p.value: p.makespan.mean for p in self.points}


def make_benchmark_problem(
    scale: Optional[ExperimentScale] = None,
    seed: RNGLike = None,
    *,
    n_tasks: Optional[int] = None,
) -> BatchProblem:
    """A representative batch problem (normal workload, heterogeneous cluster)."""
    scale = scale or default_scale()
    rng = ensure_rng(seed)
    workload_rng, cluster_rng = spawn_rngs(rng, 2)
    spec = normal_paper_workload(n_tasks or scale.batch_size)
    tasks = generate_workload(spec, workload_rng)
    cluster = heterogeneous_cluster(
        scale.n_processors, mean_comm_cost=scale.bar_comm_cost_mean, rng=cluster_rng
    )
    return BatchProblem.from_tasks(
        list(tasks),
        rates=cluster.current_rates(0.0),
        comm_costs=cluster.network.mean_costs(0.0),
    )


def build_sweep_jobs(
    parameter: str,
    values: Sequence[object],
    *,
    scale: ExperimentScale,
    repeats: int,
    seed: RNGLike = None,
    base_config: Optional[GAConfig] = None,
) -> List[GARunJob]:
    """The ``len(values) * repeats`` GA jobs of one sweep, in value-major order.

    This is the single source of the sweep's job construction and seed
    derivation (one problem and one GA seed pre-drawn per repeat, shared by
    every swept value): :func:`sweep_ga_parameter` and the campaign runner
    both call it, so a campaign's sweep cells hash and compute identically
    to a direct sweep with the same seed.
    """
    if repeats <= 0:
        raise ConfigurationError("repeats must be positive")
    rng = ensure_rng(seed)
    base = base_config or GAConfig(
        population_size=20,
        max_generations=scale.convergence_generations,
        n_rebalances=1,
    )
    if not hasattr(base, parameter):
        raise ConfigurationError(f"GAConfig has no field named {parameter!r}")

    # Pre-draw one problem and one GA seed per repeat so every swept value sees
    # identical conditions.
    problems = [make_benchmark_problem(scale, rng) for _ in range(repeats)]
    ga_seeds = [int(ensure_rng(rng).integers(0, 2**31 - 1)) for _ in range(repeats)]

    jobs: List[GARunJob] = []
    for value in values:
        config = GAConfig(**{**base.__dict__, parameter: value})
        jobs.extend(
            GARunJob(config=config, problem=problem, ga_seed=ga_seed)
            for problem, ga_seed in zip(problems, ga_seeds)
        )
    return jobs


def aggregate_sweep_outcomes(
    parameter: str,
    values: Sequence[object],
    repeats: int,
    outcomes: Sequence,
    *,
    executor: str = "serial",
) -> SweepResult:
    """Fold value-major GA outcomes (see :func:`build_sweep_jobs`) into a result."""
    result = SweepResult(parameter=parameter, executor=executor)
    for i, value in enumerate(values):
        per_value = outcomes[i * repeats : (i + 1) * repeats]
        result.points.append(
            SweepPoint(
                value=value,
                makespan=summarise([o.best_makespan for o in per_value]),
                reduction=summarise([o.reduction_fraction for o in per_value]),
                generations=summarise([float(o.generations) for o in per_value]),
                wall_time=summarise([o.wall_time_seconds for o in per_value]),
            )
        )
    return result


def sweep_ga_parameter(
    parameter: str,
    values: Sequence[object],
    *,
    scale: Optional[ExperimentScale] = None,
    seed: RNGLike = None,
    base_config: Optional[GAConfig] = None,
    repeats: Optional[int] = None,
    executor: Optional[ExperimentExecutor] = None,
) -> SweepResult:
    """Sweep one :class:`~repro.ga.engine.GAConfig` field over *values*.

    Every value is evaluated on freshly generated (but per-repeat identical
    across values) batch problems, and the best makespan, the fractional
    makespan reduction, the generations used and the wall time are summarised.

    The problems and GA seeds are pre-drawn once per repeat, so all
    ``len(values) * repeats`` GA runs are independent jobs; they are routed
    through an :class:`~repro.parallel.ExperimentExecutor` (``scale.jobs``
    worker processes, or the explicit *executor*) and re-grouped by swept
    value in order, making the stochastic aggregates (makespan, reduction,
    generations) bit-identical between serial and parallel runs.  The
    ``wall_time`` summary is a measurement and therefore varies run to run;
    with ``jobs > 1`` it also absorbs core contention, so sweep serially
    when absolute timings matter.
    """
    scale = scale or default_scale()
    repeats = repeats or scale.repeats
    executor = resolve_executor(executor, scale.jobs, scale.executor)
    jobs = build_sweep_jobs(
        parameter, values, scale=scale, repeats=repeats, seed=seed, base_config=base_config
    )
    outcomes = executor.map(run_ga_job, jobs)
    return aggregate_sweep_outcomes(
        parameter, values, repeats, outcomes, executor=executor.describe()
    )
