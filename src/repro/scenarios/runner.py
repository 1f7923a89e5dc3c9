"""The sharded scenario-matrix runner.

One *cell* of the matrix is ``(scenario, scheduler, repeat)``: an independent
simulation of one scheduler against one materialisation of one scenario.
Cells are plain picklable job specs routed through a
:class:`~repro.parallel.ExperimentExecutor`, exactly like the experiment
harness's comparison repeats, so a matrix run shards across worker processes
with ``--jobs N`` while remaining bit-identical to the serial run:

* the master seed yields one 63-bit entropy draw per cell, in the fixed
  nested order (scenario, scheduler, repeat);
* each cell spawns its own four child streams (workload, cluster, simulation,
  scheduler) from a private ``SeedSequence``, so no randomness is shared
  between cells and results do not depend on which process ran them;
* aggregates are folded in cell order.

Every cell also verifies the fault-injection conservation invariant — each
arrived task (base workload plus load spikes) completed exactly once — and
the aggregate records whether any cell violated it.
"""

from __future__ import annotations

import logging
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..experiments.config import ExperimentScale, default_scale
from ..experiments.stats import SampleSummary, summarise
from ..parallel.executor import ExperimentExecutor, resolve_executor
from ..schedulers.registry import make_scheduler
from ..sim.simulation import SimulationConfig, simulate_schedule
from ..telemetry import span
from ..telemetry.monitor import RunMonitor
from ..util.errors import ConfigurationError
from ..util.rng import RNGLike, ensure_rng
from ..workloads.generator import generate_workload
from .dynamics import DynamicsTimeline
from .registry import get_scenario
from .spec import ScenarioSpec

logger = logging.getLogger("repro.scenarios")

__all__ = [
    "ScenarioCell",
    "ScenarioCellOutcome",
    "cell_workload",
    "run_scenario_cell",
    "ScenarioAggregate",
    "ScenarioMatrixResult",
    "aggregate_scenario_outcomes",
    "build_scenario_cells",
    "resolve_scenario_specs",
    "run_scenario_matrix",
]


@dataclass(frozen=True)
class ScenarioCell:
    """One independent unit of matrix work, as plain picklable data.

    ``seed_entropy`` fully determines the cell's randomness (the worker
    builds a private ``SeedSequence`` from it), so re-running a cell — in any
    process — reproduces it bit-for-bit.
    """

    spec: ScenarioSpec
    scheduler: str
    repeat: int
    seed_entropy: int
    batch_size: int
    max_generations: int
    sim_config: Optional[SimulationConfig] = None


@dataclass(frozen=True)
class ScenarioCellOutcome:
    """Everything the matrix aggregates from one cell."""

    scenario: str
    scheduler: str
    repeat: int
    makespan: float
    efficiency: float
    mean_response_time: float
    tasks_completed: int
    tasks_expected: int
    tasks_rescheduled: int
    tasks_reclaimed: int
    tasks_redirected: int
    tasks_injected: int
    worker_failures: int
    worker_recoveries: int
    worker_joins: int
    worker_downtime_seconds: float
    mean_queue_length: float
    scheduler_invocations: int
    events_processed: int
    #: True when every arrived task completed exactly once despite dynamics.
    conservation_ok: bool
    #: Measured wall-clock seconds of the cell's simulation (excludes
    #: workload/cluster construction); machine-dependent, so excluded from
    #: outcome equality and the determinism signature, but persisted for
    #: perf trajectories.
    wall_clock_seconds: float = field(default=0.0, compare=False)
    #: Simulation events processed per wall-clock second.
    events_per_second: float = field(default=0.0, compare=False)
    #: Per-phase cost attribution (see ``SimulationConfig.phase_timing``):
    #: wall-clock seconds spent invoking the scheduling policy, dispatching
    #: work to workers, and processing completions / the terminal drain.
    #: Machine-dependent like ``wall_clock_seconds``.
    scheduling_seconds: float = field(default=0.0, compare=False)
    dispatch_seconds: float = field(default=0.0, compare=False)
    drain_seconds: float = field(default=0.0, compare=False)


def cell_workload(cell: ScenarioCell):
    """The exact task set :func:`run_scenario_cell` would simulate.

    Re-derives the cell's workload child stream (first of the four spawned
    from ``seed_entropy``), so recording tools — notably
    ``repro traces record`` — capture the bit-identical arrival stream a run
    of the cell consumes, without simulating anything.
    """
    seed_seq = np.random.SeedSequence(cell.seed_entropy)
    workload_rng = np.random.default_rng(seed_seq.spawn(4)[0])
    return generate_workload(cell.spec.workload, workload_rng)


def run_scenario_cell(cell: ScenarioCell) -> ScenarioCellOutcome:
    """Simulate one matrix cell and verify task conservation.

    Spawns the same (workload, cluster, simulation, scheduler) child-stream
    layout as the experiment harness's comparison repeats, so cells are
    reproducible independent of executor and process placement.
    """
    with span(
        f"scenario:{cell.spec.name}/{cell.scheduler}/r{cell.repeat}",
        scenario=cell.spec.name,
        scheduler=cell.scheduler,
        repeat=cell.repeat,
    ):
        return _run_scenario_cell_impl(cell)


def _run_scenario_cell_impl(cell: ScenarioCell) -> ScenarioCellOutcome:
    seed_seq = np.random.SeedSequence(cell.seed_entropy)
    workload_rng, cluster_rng, sim_seed_rng, sched_seed_rng = (
        np.random.default_rng(child) for child in seed_seq.spawn(4)
    )
    spec = cell.spec
    tasks = generate_workload(spec.workload, workload_rng)
    cluster = spec.build_cluster(cluster_rng)
    scheduler = make_scheduler(
        cell.scheduler,
        n_processors=cluster.n_processors,
        batch_size=cell.batch_size,
        max_generations=cell.max_generations,
        rng=int(sched_seed_rng.integers(0, 2**31 - 1)),
    )
    sim_seed = int(sim_seed_rng.integers(0, 2**31 - 1))
    start = time.perf_counter()
    result = simulate_schedule(
        scheduler,
        cluster,
        tasks,
        config=cell.sim_config,
        dynamics=DynamicsTimeline(spec.dynamics),
        rng=sim_seed,
    )
    wall_clock = time.perf_counter() - start
    completed_ids = result.trace.task_ids().tolist()
    expected = len(tasks) + result.tasks_injected
    conservation_ok = (
        len(completed_ids) == expected and len(set(completed_ids)) == len(completed_ids)
    )
    dynamics = result.metrics.dynamics
    return ScenarioCellOutcome(
        scenario=spec.name,
        scheduler=cell.scheduler,
        repeat=cell.repeat,
        makespan=float(result.makespan),
        efficiency=float(result.efficiency),
        mean_response_time=float(result.metrics.mean_response_time),
        tasks_completed=len(completed_ids),
        tasks_expected=expected,
        tasks_rescheduled=int(dynamics.tasks_rescheduled),
        tasks_reclaimed=int(dynamics.tasks_reclaimed),
        tasks_redirected=int(dynamics.tasks_redirected),
        tasks_injected=int(dynamics.tasks_injected),
        worker_failures=int(dynamics.worker_failures),
        worker_recoveries=int(dynamics.worker_recoveries),
        worker_joins=int(dynamics.worker_joins),
        worker_downtime_seconds=float(dynamics.worker_downtime_seconds),
        mean_queue_length=float(result.metrics.mean_queue_length),
        scheduler_invocations=int(result.scheduler_invocations),
        events_processed=int(result.events_processed),
        conservation_ok=conservation_ok,
        wall_clock_seconds=float(wall_clock),
        events_per_second=(
            float(result.events_processed / wall_clock) if wall_clock > 0 else 0.0
        ),
        scheduling_seconds=float(result.phase_seconds.get("scheduling", 0.0)),
        dispatch_seconds=float(result.phase_seconds.get("dispatch", 0.0)),
        drain_seconds=float(result.phase_seconds.get("drain", 0.0)),
    )


@dataclass(frozen=True)
class ScenarioAggregate:
    """Per-(scenario, scheduler) summaries over all repeats."""

    scenario: str
    scheduler: str
    repeats: int
    makespan: SampleSummary
    efficiency: SampleSummary
    mean_response_time: SampleSummary
    tasks_rescheduled: SampleSummary
    worker_downtime_seconds: SampleSummary
    mean_queue_length: SampleSummary
    conservation_ok: bool
    #: Machine-dependent timing summaries (not part of the determinism
    #: signature): simulation wall-clock per cell, events per second, and
    #: the per-phase breakdown (scheduling vs dispatch vs drain).
    wall_clock_seconds: Optional[SampleSummary] = None
    events_per_second: Optional[SampleSummary] = None
    scheduling_seconds: Optional[SampleSummary] = None
    dispatch_seconds: Optional[SampleSummary] = None
    drain_seconds: Optional[SampleSummary] = None


@dataclass
class ScenarioMatrixResult:
    """Outcome of one scenario-matrix run."""

    scenarios: List[str]
    schedulers: List[str]
    repeats: int
    outcomes: List[ScenarioCellOutcome]
    aggregates: Dict[str, Dict[str, ScenarioAggregate]] = field(default_factory=dict)
    executor: str = "serial"
    scale_name: str = ""

    def aggregate(self, scenario: str, scheduler: str) -> ScenarioAggregate:
        """The aggregate of one (scenario, scheduler) pair."""
        try:
            return self.aggregates[scenario][scheduler]
        except KeyError:
            raise ConfigurationError(
                f"no aggregate for scenario {scenario!r} / scheduler {scheduler!r}"
            ) from None

    def conservation_ok(self) -> bool:
        """Whether every cell in the matrix conserved its tasks."""
        return all(outcome.conservation_ok for outcome in self.outcomes)

    def best_by_makespan(self, scenario: str) -> str:
        """Scheduler with the lowest mean makespan on *scenario*."""
        aggs = self.aggregates[scenario]
        return min(aggs, key=lambda s: aggs[s].makespan.mean)

    def signature(self) -> Dict[str, Dict[str, Dict[str, float]]]:
        """Executor-independent nested dict of every aggregate number.

        Serial and ``--jobs N`` runs with the same seed must produce equal
        signatures — CI asserts this bit-for-bit.
        """
        return {
            scenario: {
                scheduler: {
                    "makespan_mean": agg.makespan.mean,
                    "makespan_std": agg.makespan.std,
                    "efficiency_mean": agg.efficiency.mean,
                    "efficiency_std": agg.efficiency.std,
                    "mean_response_time": agg.mean_response_time.mean,
                    "tasks_rescheduled_mean": agg.tasks_rescheduled.mean,
                    "worker_downtime_mean": agg.worker_downtime_seconds.mean,
                    "mean_queue_length": agg.mean_queue_length.mean,
                    "conservation_ok": float(agg.conservation_ok),
                }
                for scheduler, agg in by_scheduler.items()
            }
            for scenario, by_scheduler in self.aggregates.items()
        }

    def timing(self) -> Dict[str, Dict[str, Dict[str, float]]]:
        """Machine-dependent per-aggregate timing (wall-clock, events/sec).

        Deliberately separate from :meth:`signature`: wall-clock numbers vary
        between runs and machines, so they are persisted for performance
        trajectories but excluded from the serial-vs-parallel equality that
        CI asserts bit-for-bit.
        """
        def row(agg: ScenarioAggregate) -> Dict[str, float]:
            entry = {
                "wall_clock_mean_seconds": agg.wall_clock_seconds.mean,
                "wall_clock_std_seconds": agg.wall_clock_seconds.std,
                "events_per_second_mean": agg.events_per_second.mean,
            }
            # Per-phase attribution (scheduling vs dispatch vs drain), when
            # the cells were run with ``SimulationConfig.phase_timing``.
            if agg.scheduling_seconds is not None:
                entry["scheduling_mean_seconds"] = agg.scheduling_seconds.mean
            if agg.dispatch_seconds is not None:
                entry["dispatch_mean_seconds"] = agg.dispatch_seconds.mean
            if agg.drain_seconds is not None:
                entry["drain_mean_seconds"] = agg.drain_seconds.mean
            return entry

        return {
            scenario: {
                scheduler: row(agg)
                for scheduler, agg in by_scheduler.items()
                if agg.wall_clock_seconds is not None
                and agg.events_per_second is not None
            }
            for scenario, by_scheduler in self.aggregates.items()
        }


def aggregate_scenario_outcomes(
    outcomes: Sequence[ScenarioCellOutcome],
) -> Dict[str, Dict[str, ScenarioAggregate]]:
    """Group cell outcomes by (scenario, scheduler) and summarise each group.

    Folding happens in outcome order, so callers that assemble *outcomes*
    deterministically (the matrix runner, the campaign runner re-reading its
    store) get bit-identical aggregates no matter who computed the cells.
    """
    grouped: Dict[Tuple[str, str], List[ScenarioCellOutcome]] = {}
    for outcome in outcomes:
        grouped.setdefault((outcome.scenario, outcome.scheduler), []).append(outcome)
    aggregates: Dict[str, Dict[str, ScenarioAggregate]] = {}
    for (scenario, scheduler), cells in grouped.items():
        # Phase attribution is opt-in (SimulationConfig.phase_timing): cells
        # run without it report identical zeros, which must surface as
        # "not measured" rather than as a measurement of 0.0 seconds.
        phases_measured = any(
            c.scheduling_seconds or c.dispatch_seconds or c.drain_seconds
            for c in cells
        )
        aggregates.setdefault(scenario, {})[scheduler] = ScenarioAggregate(
            scenario=scenario,
            scheduler=scheduler,
            repeats=len(cells),
            makespan=summarise(c.makespan for c in cells),
            efficiency=summarise(c.efficiency for c in cells),
            mean_response_time=summarise(c.mean_response_time for c in cells),
            tasks_rescheduled=summarise(float(c.tasks_rescheduled) for c in cells),
            worker_downtime_seconds=summarise(
                c.worker_downtime_seconds for c in cells
            ),
            mean_queue_length=summarise(c.mean_queue_length for c in cells),
            conservation_ok=all(c.conservation_ok for c in cells),
            wall_clock_seconds=summarise(c.wall_clock_seconds for c in cells),
            events_per_second=summarise(c.events_per_second for c in cells),
            scheduling_seconds=(
                summarise(c.scheduling_seconds for c in cells)
                if phases_measured
                else None
            ),
            dispatch_seconds=(
                summarise(c.dispatch_seconds for c in cells)
                if phases_measured
                else None
            ),
            drain_seconds=(
                summarise(c.drain_seconds for c in cells) if phases_measured else None
            ),
        )
    return aggregates


def resolve_scenario_specs(
    scenarios: Sequence[Union[str, ScenarioSpec]], scale: ExperimentScale
) -> List[ScenarioSpec]:
    """Resolve names through the library (sized at *scale*), validate uniqueness."""
    specs: List[ScenarioSpec] = [
        get_scenario(item, scale) if isinstance(item, str) else item for item in scenarios
    ]
    if not specs:
        raise ConfigurationError("scenario matrix needs at least one scenario")
    names = [spec.name for spec in specs]
    if len(set(names)) != len(names):
        raise ConfigurationError(f"duplicate scenario names in matrix: {names}")
    return specs


def build_scenario_cells(
    specs: Sequence[ScenarioSpec],
    *,
    scale: ExperimentScale,
    schedulers: Optional[Sequence[str]],
    n_repeats: int,
    sim_config: SimulationConfig,
    master_rng,
) -> Tuple[List[ScenarioCell], List[str]]:
    """Expand (scenario × scheduler × repeat) into cells, in matrix order.

    One 63-bit entropy draw is taken from *master_rng* per cell, in the fixed
    nested (scenario, scheduler, repeat) order.  This is the single source of
    the matrix seed derivation: the matrix runner and the campaign runner
    both call it, so a campaign's scenario cells are bit-identical — same
    cache keys, same results — to a direct ``run_scenario_matrix`` with the
    same master seed.  Returns the cells and the ordered scheduler union.
    """
    cells: List[ScenarioCell] = []
    scheduler_union: List[str] = []
    for spec in specs:
        # Deduplicate while keeping order: a repeated name (e.g. CLI
        # `--schedulers EF EF`) must not silently double a cell's repeats.
        cell_schedulers = list(
            dict.fromkeys(s.upper() for s in (schedulers or spec.schedulers))
        )
        for scheduler in cell_schedulers:
            if scheduler not in scheduler_union:
                scheduler_union.append(scheduler)
            for repeat in range(n_repeats):
                cells.append(
                    ScenarioCell(
                        spec=spec,
                        scheduler=scheduler,
                        repeat=repeat,
                        seed_entropy=int(master_rng.integers(0, 2**63 - 1)),
                        batch_size=scale.batch_size,
                        max_generations=scale.max_generations,
                        sim_config=sim_config,
                    )
                )
    return cells, scheduler_union


def run_scenario_matrix(
    scenarios: Sequence[Union[str, ScenarioSpec]],
    *,
    scale: Optional[ExperimentScale] = None,
    schedulers: Optional[Sequence[str]] = None,
    repeats: Optional[int] = None,
    seed: RNGLike = None,
    sim_config: Optional[SimulationConfig] = None,
    executor: Optional[ExperimentExecutor] = None,
    jobs: Optional[int] = None,
    status_path: Optional[str] = None,
) -> ScenarioMatrixResult:
    """Run the (scenario × scheduler × repeat) matrix and aggregate it.

    Parameters
    ----------
    scenarios:
        Scenario names (resolved through the library at *scale*) or explicit
        :class:`ScenarioSpec` objects, freely mixed.
    scale:
        Experiment scale; sizes library scenarios and supplies the batch
        size, GA budget, default repeat count, simulation backend and
        default ``jobs``.
    schedulers:
        Scheduler set for every scenario; defaults to each scenario's own
        ``schedulers`` tuple.
    repeats:
        Independent repeats per (scenario, scheduler); default
        ``scale.repeats``.
    seed:
        Master seed; per-cell streams are derived from it in matrix order.
    executor, jobs:
        Routing of the cells: an explicit executor wins, else *jobs* (else
        ``scale.jobs``) selects serial or process-parallel execution.
        Aggregates are bit-identical for any choice.
    status_path:
        When given, a live :class:`~repro.telemetry.monitor.RunMonitor`
        status file is maintained there (heartbeats per completed cell plus
        per-worker progress files) so the matrix can be watched in flight
        with ``repro campaigns watch --status-file``.
    """
    scale = scale or default_scale()
    specs = resolve_scenario_specs(scenarios, scale)
    n_repeats = int(repeats) if repeats is not None else scale.repeats
    if n_repeats <= 0:
        raise ConfigurationError(f"repeats must be positive, got {n_repeats}")

    executor = resolve_executor(
        executor, jobs if jobs is not None else scale.jobs, scale.executor
    )
    if sim_config is None:
        # An explicit sim_config wins; otherwise the scale's simulation
        # backend (CLI --sim-backend) is threaded into every cell.  Phase
        # timing is on for matrix cells: the per-phase records guide
        # hot-path work and the per-cell clock reads are in the noise next
        # to each cell's workload/cluster construction.
        sim_config = SimulationConfig(sim_backend=scale.sim_backend, phase_timing=True)
    cells, scheduler_union = build_scenario_cells(
        specs,
        scale=scale,
        schedulers=schedulers,
        n_repeats=n_repeats,
        sim_config=sim_config,
        master_rng=ensure_rng(seed),
    )

    logger.info(
        "scenario matrix: %d cells (%d scenarios x %d schedulers x %d repeats) via %s",
        len(cells),
        len(specs),
        len(scheduler_union),
        n_repeats,
        executor.describe(),
    )
    start = time.perf_counter()
    outcomes: List[ScenarioCellOutcome] = []
    monitor = None
    if status_path is not None:
        monitor = RunMonitor(
            status_path,
            name="scenario-matrix",
            total_units=len(cells),
            executor=executor.describe(),
        )
    with span(
        "scenarios:matrix",
        n_cells=len(cells),
        repeats=n_repeats,
        executor=executor.describe(),
    ):
        # Stream rather than map so progress is reported as cells land —
        # aggregation still folds the full list in submission order below.
        try:
            with (monitor.heartbeats() if monitor is not None else nullcontext()):
                for outcome in executor.imap(run_scenario_cell, cells):
                    outcomes.append(outcome)
                    elapsed = time.perf_counter() - start
                    rate = len(outcomes) / elapsed if elapsed > 0 else 0.0
                    eta = (len(cells) - len(outcomes)) / rate if rate > 0 else float("inf")
                    if monitor is not None:
                        monitor.cell_event(
                            f"{outcome.scenario}/{outcome.scheduler}/r{outcome.repeat}",
                            "computed",
                            outcome.wall_clock_seconds,
                        )
                    logger.info(
                        "scenario matrix: %d/%d cells (%.2f cells/s, eta %.0fs)",
                        len(outcomes),
                        len(cells),
                        rate,
                        eta,
                    )
        except BaseException:
            if monitor is not None:
                monitor.finish("interrupted", "matrix run aborted")
            raise
    if monitor is not None:
        monitor.finish("finished")
    return ScenarioMatrixResult(
        scenarios=[spec.name for spec in specs],
        schedulers=scheduler_union,
        repeats=n_repeats,
        outcomes=list(outcomes),
        aggregates=aggregate_scenario_outcomes(outcomes),
        executor=executor.describe(),
        scale_name=scale.name,
    )
