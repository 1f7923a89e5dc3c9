"""The resumable campaign runner.

A *campaign* composes figure reproductions, a scenario matrix and GA sweeps
(one :class:`~repro.campaigns.spec.CampaignSpec`) into a single durable unit
of work backed by a content-addressed :class:`~repro.campaigns.store.
ResultStore`:

* :func:`expand_campaign` turns the spec into a deterministic list of
  *cells* — picklable leaf jobs with stable cache keys;
* :func:`run_campaign` computes only the cells missing from the store,
  streaming them through any :class:`~repro.parallel.ExperimentExecutor`
  (serial, process pool, or the async work-stealing pool) and
  **checkpointing the campaign manifest after every completed cell**;
* aggregates are always folded from the *stored* records in cell order, so
  a run interrupted after k of n cells and then resumed produces aggregates
  bit-identical to an uninterrupted run — and a warm-store rerun computes
  zero cells.

The manifest (``<store>/campaigns/<name>.json``) records the spec, per-cell
status and timing (wall-clock, events/sec and the scenario cells' per-phase
scheduling/dispatch/drain attribution), and the final aggregates; ``repro
campaigns status`` renders it, ``repro campaigns resume`` re-runs the spec
it carries.
"""

from __future__ import annotations

import json
import logging
import os
import time
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..analysis.scorecard import machine_fingerprint
from ..experiments.config import ExperimentScale
from ..experiments.figures import run_figure
from ..experiments.sweep import aggregate_sweep_outcomes, build_sweep_jobs
from ..io.results import atomic_write_json, figure_to_dict
from ..parallel.executor import ExperimentExecutor, resolve_executor
from ..parallel.jobs import GARunOutcome, run_ga_job
from ..scenarios.runner import (
    ScenarioCellOutcome,
    ScenarioMatrixResult,
    aggregate_scenario_outcomes,
    build_scenario_cells,
    resolve_scenario_specs,
    run_scenario_cell,
)
from ..sim.simulation import SimulationConfig
from ..telemetry import get_session, span
from ..telemetry.monitor import RunMonitor
from ..util.errors import ConfigurationError, ExperimentInterrupted
from .spec import CampaignSpec
from .store import ResultStore, cache_key

logger = logging.getLogger("repro.campaigns")

__all__ = [
    "MANIFEST_FORMAT_VERSION",
    "FigureJob",
    "CampaignCell",
    "CampaignPlan",
    "CampaignResult",
    "expand_campaign",
    "run_campaign",
    "run_campaign_cell",
    "load_manifest",
]

MANIFEST_FORMAT_VERSION = 1

#: Cache-key namespaces per cell kind.
KIND_FIGURE = "figure"
KIND_SCENARIO = "scenario_cell"
KIND_SWEEP = "ga_run"

#: Figures whose y-values are wall-clock *measurements* (fig4 plots GA
#: seconds).  Their payloads go into the manifest's machine-dependent
#: ``timing`` section, not into ``aggregates`` — aggregates must be
#: bit-identical between independent runs and measured seconds are not.
WALL_CLOCK_FIGURES = frozenset({"fig4"})


@dataclass(frozen=True)
class FigureJob:
    """One whole figure reproduction as a leaf job.

    The embedded scale is pinned to serial execution so the job runs
    self-contained inside one worker process; the cache key excludes the
    execution-routing fields anyway (see
    :data:`~repro.campaigns.store.FINGERPRINT_EXCLUDED_FIELDS`).
    """

    figure_id: str
    scale: ExperimentScale
    seed: int


@dataclass(frozen=True)
class CampaignCell:
    """One unit of campaign work: a leaf job plus its identity and key."""

    cell_id: str
    kind: str  # KIND_FIGURE | KIND_SCENARIO | KIND_SWEEP
    key: str
    job: object  # FigureJob | ScenarioCell | GARunJob


def _ga_outcome_to_payload(outcome: GARunOutcome) -> Dict:
    payload = asdict(outcome)
    payload["reduction_history"] = [float(x) for x in outcome.reduction_history]
    return payload


def _ga_outcome_from_payload(payload: Dict) -> GARunOutcome:
    data = dict(payload)
    data["reduction_history"] = np.asarray(data["reduction_history"], dtype=float)
    return GARunOutcome(**data)


def run_campaign_cell(cell: CampaignCell) -> Dict:
    """Compute one cell (worker-side); returns ``{"payload", "elapsed_seconds"}``.

    The payload is the JSON-serialisable result record the store persists:
    a figure dict, a :class:`ScenarioCellOutcome` as a dict, or a GA run
    outcome as a dict.
    """
    start = time.perf_counter()
    with span(f"cell:{cell.cell_id}", kind=cell.kind):
        if cell.kind == KIND_FIGURE:
            job: FigureJob = cell.job
            figure = run_figure(job.figure_id, scale=job.scale, seed=job.seed)
            payload = figure_to_dict(figure)
        elif cell.kind == KIND_SCENARIO:
            payload = asdict(run_scenario_cell(cell.job))
        elif cell.kind == KIND_SWEEP:
            payload = _ga_outcome_to_payload(run_ga_job(cell.job))
        else:
            raise ConfigurationError(f"unknown campaign cell kind {cell.kind!r}")
    return {"payload": payload, "elapsed_seconds": time.perf_counter() - start}


@dataclass
class CampaignPlan:
    """The deterministic expansion of one spec: cells plus unit metadata."""

    spec: CampaignSpec
    scale: ExperimentScale
    cells: List[CampaignCell]
    scenario_names: List[str] = field(default_factory=list)
    scenario_schedulers: List[str] = field(default_factory=list)
    scenario_repeats: int = 0
    sweep_values: Dict[str, List[object]] = field(default_factory=dict)
    sweep_repeats: Dict[str, int] = field(default_factory=dict)


def expand_campaign(spec: CampaignSpec) -> CampaignPlan:
    """Expand *spec* into its cell list (stable order, stable cache keys).

    Cell order is figures, then the scenario matrix in (scenario,
    scheduler, repeat) order, then sweeps value-major — and aggregation
    always folds in this order, which is what makes resumed and
    uninterrupted runs bit-identical.
    """
    scale = spec.experiment_scale()
    cells: List[CampaignCell] = []
    plan = CampaignPlan(spec=spec, scale=scale, cells=cells)

    worker_scale = scale.scaled(jobs=1, executor="serial")
    for figure_id in spec.figures:
        job = FigureJob(figure_id=figure_id, scale=worker_scale, seed=spec.seed)
        cells.append(
            CampaignCell(
                cell_id=f"figure:{figure_id}",
                kind=KIND_FIGURE,
                key=cache_key(KIND_FIGURE, job),
                job=job,
            )
        )

    if spec.scenarios:
        specs = resolve_scenario_specs(spec.scenarios, scale)
        n_repeats = int(spec.repeats) if spec.repeats is not None else scale.repeats
        sim_config = SimulationConfig(sim_backend=scale.sim_backend, phase_timing=True)
        scenario_cells, scheduler_union = build_scenario_cells(
            specs,
            scale=scale,
            schedulers=spec.schedulers,
            n_repeats=n_repeats,
            sim_config=sim_config,
            master_rng=np.random.default_rng(spec.seed),
        )
        plan.scenario_names = [s.name for s in specs]
        plan.scenario_schedulers = scheduler_union
        plan.scenario_repeats = n_repeats
        for scenario_cell in scenario_cells:
            cells.append(
                CampaignCell(
                    cell_id=(
                        f"scenario:{scenario_cell.spec.name}/"
                        f"{scenario_cell.scheduler}/r{scenario_cell.repeat}"
                    ),
                    kind=KIND_SCENARIO,
                    key=cache_key(KIND_SCENARIO, scenario_cell),
                    job=scenario_cell,
                )
            )

    for sweep in spec.sweeps:
        repeats = int(sweep.repeats) if sweep.repeats is not None else scale.repeats
        jobs = build_sweep_jobs(
            sweep.parameter,
            list(sweep.values),
            scale=scale,
            repeats=repeats,
            seed=spec.seed,
        )
        plan.sweep_values[sweep.parameter] = list(sweep.values)
        plan.sweep_repeats[sweep.parameter] = repeats
        for j, job in enumerate(jobs):
            value = sweep.values[j // repeats]
            repeat = j % repeats
            cells.append(
                CampaignCell(
                    cell_id=f"sweep:{sweep.parameter}={value!r}/r{repeat}",
                    kind=KIND_SWEEP,
                    key=cache_key(KIND_SWEEP, job),
                    job=job,
                )
            )

    seen: Dict[str, str] = {}
    for cell in cells:
        if cell.cell_id in seen:
            raise ConfigurationError(f"duplicate campaign cell id {cell.cell_id!r}")
        seen[cell.cell_id] = cell.key
    return plan


@dataclass
class CampaignResult:
    """Everything one ``run_campaign`` call produced (mirrors the manifest)."""

    name: str
    spec: CampaignSpec
    manifest_path: str
    total_cells: int
    computed: int
    cached: int
    interrupted: bool
    interrupt_reason: str
    executor: str
    cells: List[Dict]
    aggregates: Optional[Dict]
    timing: Dict

    @property
    def complete(self) -> bool:
        """Whether every cell of the campaign has a stored result."""
        return not self.interrupted and self.aggregates is not None


def _cell_entries(
    plan: CampaignPlan, statuses: Dict[str, str], timings: Dict[str, Dict]
) -> List[Dict]:
    entries = []
    for cell in plan.cells:
        entry = {
            "cell_id": cell.cell_id,
            "kind": cell.kind,
            "key": cell.key,
            "status": statuses[cell.cell_id],
        }
        entry.update(timings.get(cell.cell_id, {}))
        entries.append(entry)
    return entries


def _write_manifest(
    store: ResultStore,
    plan: CampaignPlan,
    statuses: Dict[str, str],
    timings: Dict[str, Dict],
    *,
    executor: str,
    interrupted: bool,
    interrupt_reason: str,
    aggregates: Optional[Dict],
    timing: Dict,
) -> str:
    done = sum(1 for s in statuses.values() if s in ("cached", "computed"))
    payload = {
        "format_version": MANIFEST_FORMAT_VERSION,
        "kind": "campaign_manifest",
        "name": plan.spec.name,
        "spec": plan.spec.to_dict(),
        "total_cells": len(plan.cells),
        "completed_cells": done,
        "computed_cells": sum(1 for s in statuses.values() if s == "computed"),
        "cached_cells": sum(1 for s in statuses.values() if s == "cached"),
        "interrupted": interrupted,
        "interrupt_reason": interrupt_reason,
        "executor": executor,
        "cells": _cell_entries(plan, statuses, timings),
        "aggregates": aggregates,
        "timing": timing,
        # The timing numbers above are only comparable across runs on the
        # same hardware; the scorecard uses this to decide what to gate.
        "machine": machine_fingerprint(),
        "updated_at": time.time(),
    }
    return atomic_write_json(payload, store.manifest_path(plan.spec.name))


def load_manifest(store: ResultStore, name: str) -> Dict:
    """Load and validate the campaign manifest for *name* from *store*."""
    path = store.manifest_path(name)
    if not os.path.exists(path):
        raise ConfigurationError(
            f"no campaign named {name!r} in store {store.root} "
            f"(known: {store.manifest_names() or 'none'})"
        )
    with open(path, "r", encoding="utf8") as handle:
        payload = json.load(handle)
    if payload.get("format_version") != MANIFEST_FORMAT_VERSION:
        raise ConfigurationError(
            f"unsupported campaign manifest version {payload.get('format_version')!r}"
        )
    return payload


def _scenario_matrix_from_store(
    plan: CampaignPlan, store: ResultStore, cache: Dict[str, Dict]
) -> Optional[ScenarioMatrixResult]:
    outcomes: List[ScenarioCellOutcome] = []
    for cell in plan.cells:
        if cell.kind != KIND_SCENARIO:
            continue
        payload = cache.get(cell.key)
        if payload is None:
            payload = store.payload(cell.key)
        outcomes.append(ScenarioCellOutcome(**payload))
    if not outcomes:
        return None
    return ScenarioMatrixResult(
        scenarios=list(plan.scenario_names),
        schedulers=list(plan.scenario_schedulers),
        repeats=plan.scenario_repeats,
        outcomes=outcomes,
        aggregates=aggregate_scenario_outcomes(outcomes),
        executor="store",
        scale_name=plan.scale.name,
    )


def _compute_aggregates(
    plan: CampaignPlan, store: ResultStore, cache: Optional[Dict[str, Dict]] = None
) -> Tuple[Dict, Dict]:
    """Fold the campaign's aggregates — always from the *stored* records.

    Both the fresh-computation path and the cache-hit path fold JSON that
    has been round-tripped through the store, so a resumed run folds
    byte-for-byte the same inputs as an uninterrupted one.  *cache* may
    carry payloads of records already read from disk this run (the warm
    scan), saving a second read; freshly computed cells are always re-read.
    Returns ``(aggregates, timing)`` with the machine-dependent numbers
    kept strictly on the ``timing`` side.
    """
    cache = cache or {}
    aggregates: Dict[str, Dict] = {}
    timing: Dict[str, Dict] = {}

    def payload_of(cell: CampaignCell) -> Dict:
        payload = cache.get(cell.key)
        return payload if payload is not None else store.payload(cell.key)

    figures = {}
    timed_figures = {}
    for cell in plan.cells:
        if cell.kind == KIND_FIGURE:
            figure_id = cell.cell_id.split(":", 1)[1]
            target = timed_figures if figure_id in WALL_CLOCK_FIGURES else figures
            target[figure_id] = payload_of(cell)
    if figures:
        aggregates["figures"] = figures
    if timed_figures:
        timing["figures"] = timed_figures

    matrix = _scenario_matrix_from_store(plan, store, cache)
    if matrix is not None:
        aggregates["scenarios"] = matrix.signature()
        timing["scenarios"] = matrix.timing()

    sweeps_agg: Dict[str, Dict] = {}
    sweeps_timing: Dict[str, Dict] = {}
    for parameter, values in plan.sweep_values.items():
        repeats = plan.sweep_repeats[parameter]
        outcomes = [
            _ga_outcome_from_payload(payload_of(cell))
            for cell in plan.cells
            if cell.kind == KIND_SWEEP
            and cell.cell_id.startswith(f"sweep:{parameter}=")
        ]
        result = aggregate_sweep_outcomes(parameter, values, repeats, outcomes)
        sweeps_agg[parameter] = {
            repr(point.value): {
                "makespan_mean": point.makespan.mean,
                "makespan_std": point.makespan.std,
                "reduction_mean": point.reduction.mean,
                "generations_mean": point.generations.mean,
            }
            for point in result.points
        }
        sweeps_timing[parameter] = {
            repr(point.value): {"wall_time_mean_seconds": point.wall_time.mean}
            for point in result.points
        }
    if sweeps_agg:
        aggregates["sweeps"] = sweeps_agg
        timing["sweeps"] = sweeps_timing
    return aggregates, timing


def run_campaign(
    spec: CampaignSpec,
    store: ResultStore,
    *,
    executor: Optional[ExperimentExecutor] = None,
    jobs: Optional[int] = None,
    executor_kind: Optional[str] = None,
    max_cells: Optional[int] = None,
) -> CampaignResult:
    """Run (or resume) *spec* against *store*.

    Cells whose keys are already stored are counted as ``cached`` and never
    recomputed; the rest stream through the executor in cell order, each
    result persisted to the store and the manifest checkpointed before the
    next result is consumed.  ``max_cells`` stops the run after that many
    *computed* cells (the deterministic stand-in for an interruption: CI
    kills a campaign this way and then asserts resume bit-identity);
    Ctrl-C is handled the same way, keeping every already-completed cell.

    Aggregates are only attached when every cell has a stored result, and
    are always folded from the store in cell order — see
    :func:`_compute_aggregates` for why this makes resume bit-identical.
    """
    if max_cells is not None and int(max_cells) < 1:
        raise ConfigurationError(f"max_cells must be >= 1, got {max_cells}")
    plan = expand_campaign(spec)
    scale = plan.scale
    # An executor built here is owned here: close it (releasing its worker
    # processes) before returning.  An explicitly supplied one is the
    # caller's to manage.
    owns_executor = executor is None
    executor = resolve_executor(
        executor,
        jobs if jobs is not None else scale.jobs,
        executor_kind if executor_kind is not None else scale.executor,
    )

    # A manifest written by a *different* campaign must not be silently
    # overwritten: distinct names can sanitise onto the same file.
    manifest_file = store.manifest_path(spec.name)
    if os.path.exists(manifest_file):
        with open(manifest_file, "r", encoding="utf8") as handle:
            existing_name = json.load(handle).get("name")
        if existing_name != spec.name:
            raise ConfigurationError(
                f"campaign name {spec.name!r} collides with existing manifest "
                f"{manifest_file} (campaign {existing_name!r}); pick another name"
            )

    statuses: Dict[str, str] = {}
    timings: Dict[str, Dict] = {}
    pending: List[CampaignCell] = []
    # Payloads of records read during this scan, reused at aggregation time
    # so a warm rerun parses each cached record once, not twice.
    cached_payloads: Dict[str, Dict] = {}
    for cell in plan.cells:
        if store.has(cell.key):
            statuses[cell.cell_id] = "cached"
            record = store.get_record(cell.key)
            cached_payloads[cell.key] = record["payload"]
            meta = record.get("meta", {})
            if "elapsed_seconds" in meta:
                timings[cell.cell_id] = {"elapsed_seconds": meta["elapsed_seconds"]}
        else:
            statuses[cell.cell_id] = "pending"
            pending.append(cell)

    interrupted = False
    interrupt_reason = ""
    computed = 0
    cached_count = len(plan.cells) - len(pending)
    run_start = time.perf_counter()
    logger.info(
        "campaign %s: %d cells (%d cached, %d to compute) via %s",
        spec.name,
        len(plan.cells),
        cached_count,
        len(pending),
        executor.describe(),
    )

    def progress() -> None:
        # Live progress line: throughput so far, ETA over the cells still
        # pending, and how much of the campaign the store already covered.
        elapsed = time.perf_counter() - run_start
        rate = computed / elapsed if elapsed > 0 else 0.0
        remaining = len(pending) - computed
        eta = remaining / rate if rate > 0 else float("inf")
        hit_rate = 100.0 * cached_count / len(plan.cells) if plan.cells else 0.0
        logger.info(
            "campaign %s: %d/%d computed (%.2f cells/s, eta %.0fs, cache-hit %.0f%%)",
            spec.name,
            computed,
            len(pending),
            rate,
            eta,
            hit_rate,
        )

    # The live monitor: a status sidecar of the manifest, updated on every
    # completed cell (throttled) and readable while the run is in flight by
    # ``repro campaigns watch``.
    monitor = RunMonitor(
        store.status_path(spec.name),
        name=spec.name,
        total_units=len(plan.cells),
        cached=cached_count,
        executor=executor.describe(),
    )

    def persist(cell: CampaignCell, outcome: Dict) -> None:
        nonlocal computed
        if not store.has(cell.key):  # duplicate keys: first write wins
            # The index rewrite is deferred to the end of the run (the
            # record file is durable on its own) so per-cell checkpoint
            # I/O stays linear in campaign size.
            store.put(
                cell.key,
                cell.kind,
                outcome["payload"],
                meta={
                    "cell_id": cell.cell_id,
                    "campaign": spec.name,
                    "elapsed_seconds": outcome["elapsed_seconds"],
                },
                flush_index=False,
            )
        statuses[cell.cell_id] = "computed"
        timings[cell.cell_id] = {"elapsed_seconds": outcome["elapsed_seconds"]}
        computed += 1
        monitor.cell_event(cell.cell_id, "computed", outcome["elapsed_seconds"])
        progress()

    def checkpoint(aggregates: Optional[Dict] = None, timing: Optional[Dict] = None) -> str:
        return _write_manifest(
            store,
            plan,
            statuses,
            timings,
            executor=executor.describe(),
            interrupted=interrupted,
            interrupt_reason=interrupt_reason,
            aggregates=aggregates,
            timing=timing or {},
        )

    manifest_path = checkpoint()
    # The campaign root span: every cell span — including those merged back
    # from worker processes at unwrap time — nests underneath it.
    with span(
        f"campaign:{spec.name}",
        total_cells=len(plan.cells),
        cached=cached_count,
        executor=executor.describe(),
    ):
        # Checkpointing happens per cell.  The heartbeat context is active
        # while the executor wraps and runs the jobs, so worker processes
        # report per-job progress beside the status file.
        with monitor.heartbeats():
            stream = executor.imap(run_campaign_cell, pending)
            try:
                for cell, outcome in zip(pending, stream):
                    persist(cell, outcome)
                    if max_cells is not None and max_cells <= computed < len(pending):
                        interrupted = True
                        interrupt_reason = "max-cells"
                        manifest_path = checkpoint()
                        break
                    manifest_path = checkpoint()
            except (KeyboardInterrupt, ExperimentInterrupted) as exc:
                interrupted = True
                interrupt_reason = "keyboard-interrupt"
                if isinstance(exc, ExperimentInterrupted):
                    # The executor surfaced results that completed before the
                    # interrupt but were never consumed: keep them, they are paid for.
                    for index in sorted(exc.partial):
                        cell = pending[index]
                        if statuses[cell.cell_id] == "pending":
                            persist(cell, exc.partial[index])
                manifest_path = checkpoint()
            finally:
                # Close the stream *before* the executor: an abandoned parallel
                # stream (the --max-cells break) cancels its not-yet-started chunks
                # on GeneratorExit, so the pool shutdown below only waits for the
                # handful of jobs actually in flight instead of the whole campaign.
                closer = getattr(stream, "close", None)
                if closer is not None:
                    closer()
                if owns_executor:
                    executor.close()
                store.flush_index()

        aggregates = timing = None
        if all(status in ("cached", "computed") for status in statuses.values()):
            aggregates, timing = _compute_aggregates(plan, store, cached_payloads)
            interrupted = False
            interrupt_reason = ""
            manifest_path = checkpoint(aggregates, timing)
    monitor.finish("interrupted" if interrupted else "finished", interrupt_reason)
    session = get_session()
    if session is not None:
        session.metrics.counter("campaign.cells_computed").inc(computed)
        session.metrics.counter("campaign.cells_cached").inc(cached_count)
    cached = sum(1 for s in statuses.values() if s == "cached")
    return CampaignResult(
        name=spec.name,
        spec=spec,
        manifest_path=manifest_path,
        total_cells=len(plan.cells),
        computed=computed,
        cached=cached,
        interrupted=interrupted,
        interrupt_reason=interrupt_reason,
        executor=executor.describe(),
        cells=_cell_entries(plan, statuses, timings),
        aggregates=aggregates,
        timing=timing or {},
    )
