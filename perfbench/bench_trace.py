"""Call tracing for the benchmark's traced run, from outside the program.

The traced run wraps the public functions and methods of each ``src/repro``
layer at the attribute its caller resolves (a module global such as
``repro.parallel.jobs.simulate_schedule``, or a method on its class), records
one span per call in memory as ``(name, start, end, parent, attrs)``, and
restores every original attribute afterwards.  Nothing here reads the
program's own telemetry: the spans come only from these wrappers.

Calls made in worker processes pass straight through the wrappers (they
check the process id), so campaign cells computed by the process pool are
attributed only through the per-cell timings the campaign manifest records.
"""

from __future__ import annotations

import functools
import os
import statistics
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import repro.campaigns as campaigns_pkg
import repro.campaigns.runner as campaigns_runner
import repro.campaigns.store as campaigns_store
import repro.experiments as experiments_pkg
import repro.ga.engine as ga_engine
import repro.ga.kernels as ga_kernels
import repro.ga.selection as ga_selection
import repro.parallel.executor as parallel_executor
import repro.parallel.jobs as parallel_jobs
from repro.core.pn_scheduler import PNScheduler
from repro.schedulers.earliest_first import EarliestFirstScheduler
from repro.schedulers.lightest_loaded import LightestLoadedScheduler
from repro.schedulers.max_min import MaxMinScheduler
from repro.schedulers.min_min import MinMinScheduler
from repro.schedulers.round_robin import RoundRobinScheduler
from repro.schedulers.zomaya import ZomayaScheduler

_MISSING = object()

#: The paper's seven schedulers, in its figures' label order.
SCHEDULER_NAMES = ("EF", "LL", "RR", "ZO", "PN", "MM", "MX")

#: Worker processes of the campaign workloads (``run_campaign(jobs=...)``).
CAMPAIGN_JOBS = 2


class Tracer:
    """Records spans from patched attributes; restores them on :meth:`restore`."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent_index, attrs]`` per call, in call order.
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._pid = os.getpid()
        self._patches: List[Tuple[object, str, object]] = []

    # -- span bookkeeping --------------------------------------------------------------
    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, None])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    # -- patching ----------------------------------------------------------------------
    def _remember(self, owner: object, attr: str) -> Callable:
        raw = vars(owner).get(attr, _MISSING)
        if isinstance(raw, (staticmethod, classmethod)):
            raise TypeError(f"cannot trace descriptor {owner!r}.{attr}")
        self._patches.append((owner, attr, raw))
        return getattr(owner, attr)

    def patch(
        self,
        owner: object,
        attr: str,
        name: str,
        attrs: Optional[Callable[[tuple, object], object]] = None,
    ) -> None:
        """Replace ``owner.attr`` by a wrapper recording one span per call.

        ``attrs(args, result)`` is evaluated after the span closes, so its
        cost stays out of the span.
        """
        original = self._remember(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if os.getpid() != tracer._pid:
                return original(*args, **kwargs)
            index = tracer._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(index)
            if attrs is not None:
                tracer.spans[index][4] = attrs(args, result)
            return result

        setattr(owner, attr, traced)

    def patch_stream(self, owner: object, attr: str, name: str) -> None:
        """Wrap a method returning an iterator: one span per blocking ``next``."""
        original = self._remember(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stream = original(*args, **kwargs)
            if os.getpid() != tracer._pid:
                return stream
            return tracer._timed(stream, name)

        setattr(owner, attr, traced)

    def _timed(self, stream: Iterator, name: str) -> Iterator:
        try:
            while True:
                index = self._open(name)
                try:
                    item = next(stream)
                except StopIteration:
                    return
                finally:
                    self._close(index)
                yield item
        finally:
            close = getattr(stream, "close", None)
            if close is not None:
                close()

    def restore(self) -> None:
        """Put every patched attribute back exactly as it was."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            if raw is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Patch every layer boundary for the duration of the block."""
        try:
            install(self)
            yield self
        finally:
            self.restore()


# ---------------------------------------------------------------------------
# The layer boundaries
# ---------------------------------------------------------------------------

def _file_size(args: tuple, path: object) -> int:
    return os.path.getsize(path)


def _batch_size(args: tuple, result: object) -> Tuple[int, int]:
    scheduler, tasks = args[0], args[1]
    return len(tasks), int(getattr(scheduler.batch_sizer, "min_batch", 0))


def _evolve_attrs(args: tuple, result: object) -> Tuple[int, int]:
    history = result.makespan_history
    last = 1
    for generation in range(1, len(history)):
        if history[generation] < history[generation - 1]:
            last = generation + 1
    return int(result.generations), last


def _run_attrs(args: tuple, result: object) -> Tuple[int, int, int, float]:
    busy = sum(
        float(cell.get("elapsed_seconds", 0.0))
        for cell in result.cells
        if cell.get("status") == "computed"
    )
    return result.computed, result.cached, result.total_cells, busy


def traced_attributes() -> List[Tuple[object, str]]:
    """Every ``(owner, attribute)`` the traced run patches (for the tests)."""
    return [(owner, attr) for owner, attr, *_ in _targets()]


def _targets() -> List[tuple]:
    """``(owner, attribute, span name, attrs, is_stream)`` per boundary."""
    targets = [
        # experiments / campaigns: the entry points the benchmark itself calls.
        (experiments_pkg, "compare_schedulers", "experiments.compare", None, False),
        (campaigns_pkg, "run_campaign", "campaigns.run", _run_attrs, False),
        # workloads / cluster / sim: resolved by the comparison repeat worker.
        (parallel_jobs, "generate_workload", "workloads.generate", None, False),
        (parallel_jobs, "heterogeneous_cluster", "cluster.build", None, False),
        (
            parallel_jobs,
            "simulate_schedule",
            "sim.simulate",
            lambda args, result: args[0].name,
            False,
        ),
        # core: PN's batch scheduling call.
        (PNScheduler, "schedule", "core.pn_schedule", _batch_size, False),
        # ga: the engine and the default kernel backend's operators.
        (ga_engine.GeneticAlgorithm, "evolve", "ga.evolve", _evolve_attrs, False),
        (ga_engine, "seeded_population", "ga.init", None, False),
        (ga_engine, "random_population", "ga.init", None, False),
        (ga_engine, "evaluate_assignments", "ga.fitness", None, False),
        (ga_kernels.VectorizedBackend, "decode", "ga.decode", None, False),
        (ga_kernels.VectorizedBackend, "rebalance", "ga.rebalance", None, False),
        (ga_kernels.VectorizedBackend, "crossover", "ga.crossover", None, False),
        (ga_kernels.VectorizedBackend, "mutate", "ga.mutation", None, False),
        # campaigns: cell expansion (cache keys), the fold of the stored
        # outcomes, and the result store, as the runner resolves them.
        (campaigns_runner, "expand_campaign", "campaigns.expand", None, False),
        (
            campaigns_runner,
            "aggregate_scenario_outcomes",
            "campaigns.aggregate",
            None,
            False,
        ),
        (campaigns_store.ResultStore, "put", "campaigns.store_put", None, False),
        (campaigns_store.ResultStore, "has", "campaigns.store_has", None, False),
        (
            campaigns_store.ResultStore,
            "get_record",
            "campaigns.store_get_record",
            None,
            False,
        ),
        (campaigns_store.ResultStore, "flush_index", "campaigns.flush_index", None, False),
        # io: the atomic JSON writer under the two names its callers use.
        (campaigns_runner, "atomic_write_json", "io.atomic_write", _file_size, False),
        (campaigns_store, "atomic_write_json", "io.atomic_write", _file_size, False),
        # parallel: the parent blocking on the process pool's result stream.
        (parallel_executor.ParallelExecutor, "imap", "parallel.wait", None, True),
    ]
    for cls in (
        ga_selection.RouletteWheelSelection,
        ga_selection.TournamentSelection,
        ga_selection.RankSelection,
    ):
        targets.append((cls, "select", "ga.selection", None, False))
    # schedulers: the six non-PN policies' scheduling entry points (batch
    # schedule, and the immediate-mode wave the simulator calls instead).
    for cls in (
        EarliestFirstScheduler,
        LightestLoadedScheduler,
        RoundRobinScheduler,
        MinMinScheduler,
        MaxMinScheduler,
        ZomayaScheduler,
    ):
        targets.append((cls, "schedule", "schedulers.schedule", None, False))
        if hasattr(cls, "select_processors_wave"):
            targets.append(
                (cls, "select_processors_wave", "schedulers.schedule", None, False)
            )
    return targets


def install(tracer: Tracer) -> None:
    """Patch every layer boundary into *tracer*."""
    for owner, attr, name, attrs, is_stream in _targets():
        if is_stream:
            tracer.patch_stream(owner, attr, name)
        else:
            tracer.patch(owner, attr, name, attrs)


# ---------------------------------------------------------------------------
# Per-layer metrics from the recorded spans
# ---------------------------------------------------------------------------

#: Per-layer metric names and units, in the order the traced run prints them.
PER_LAYER_UNITS: Dict[str, str] = {
    "ga.evolve_calls": "count",
    "ga.evolve_s": "s",
    "ga.evolve_p50_ms": "ms",
    "ga.evolve_p90_ms": "ms",
    "ga.generations": "count",
    "ga.us_per_generation": "us",
    "ga.self_s": "s",
    "ga.init_s": "s",
    "ga.decode_s": "s",
    "ga.fitness_s": "s",
    "ga.rebalance_s": "s",
    "ga.selection_s": "s",
    "ga.crossover_s": "s",
    "ga.mutation_s": "s",
    "ga.fitness_calls_per_gen": "count",
    "ga.useful_gen_frac": "ratio",
    "core.pn_batches": "count",
    "core.pn_batch_size_p50": "count",
    "core.pn_batch_size_max": "count",
    "core.pn_min_batch_frac": "ratio",
    "core.pn_schedule_self_s": "s",
    "schedulers.schedule_calls": "count",
    "schedulers.schedule_s": "s",
    "schedulers.self_s": "s",
    "sim.simulate_calls": "count",
    "sim.self_s": "s",
    **{f"sim.by_scheduler.{name}_s": "s" for name in SCHEDULER_NAMES},
    "workloads.generate_s": "s",
    "cluster.build_s": "s",
    "experiments.compare_s": "s",
    "experiments.focus_makespan_ratio": "ratio",
    "campaigns.cold_run_s": "s",
    "campaigns.warm_run_s": "s",
    "campaigns.self_s": "s",
    "campaigns.expand_s": "s",
    "campaigns.aggregate_s": "s",
    "campaigns.persist_s": "s",
    "campaigns.store_put_calls": "count",
    "campaigns.store_put_s": "s",
    "campaigns.store_has_s": "s",
    "campaigns.store_get_record_s": "s",
    "campaigns.flush_index_s": "s",
    "campaigns.cache_hit_frac": "ratio",
    "io.atomic_write_calls": "count",
    "io.atomic_write_s": "s",
    "io.atomic_write_p50_ms": "ms",
    "io.atomic_write_p90_ms": "ms",
    "io.bytes_written": "B",
    "parallel.wait_s": "s",
    "parallel.worker_busy_frac": "ratio",
    "trace.overhead_x": "x",
    "trace.wall_s": "s",
    "trace.uncovered_s": "s",
}


def _union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def _quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile (0 for an empty sample)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def self_times(spans: Sequence[list]) -> List[float]:
    """Each span's duration minus the part of it its direct children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    result = []
    for index, (name, start, end, parent, _) in enumerate(spans):
        covered = _union_length(
            (max(s, start), min(e, end)) for s, e in children.get(index, ()) if e > start
        )
        result.append(max(0.0, (end - start) - covered))
    return result


def layer_metrics(
    spans: Sequence[list], traced_wall: float, untraced_wall: float, focus_ratio: float
) -> Dict[str, float]:
    """The per-layer metrics of one traced pass (sums over the traced units).

    *focus_ratio* is the traced units' mean focus-scheduler makespan over the
    best other scheduler's, reported with the experiments layer.
    """
    selfs = self_times(spans)
    durations: Dict[str, List[float]] = {}
    self_sum: Dict[str, float] = {}
    attrs: Dict[str, list] = {}
    for span, own in zip(spans, selfs):
        name, start, end, _, attr = span
        durations.setdefault(name, []).append(end - start)
        self_sum[name] = self_sum.get(name, 0.0) + own
        attrs.setdefault(name, []).append(attr)

    def total(name: str) -> float:
        return float(sum(durations.get(name, ())))

    def calls(name: str) -> int:
        return len(durations.get(name, ()))

    m: Dict[str, float] = {}
    evolve = durations.get("ga.evolve", [])
    evolve_attrs = attrs.get("ga.evolve", [])
    generations = sum(g for g, _ in evolve_attrs)
    last_improvements = sum(last for _, last in evolve_attrs)
    m["ga.evolve_calls"] = len(evolve)
    m["ga.evolve_s"] = total("ga.evolve")
    m["ga.evolve_p50_ms"] = 1e3 * _quantile(evolve, 0.5)
    m["ga.evolve_p90_ms"] = 1e3 * _quantile(evolve, 0.9)
    m["ga.generations"] = generations
    m["ga.us_per_generation"] = 1e6 * total("ga.evolve") / generations if generations else 0.0
    m["ga.self_s"] = self_sum.get("ga.evolve", 0.0)
    for phase in ("init", "decode", "fitness", "rebalance", "selection", "crossover", "mutation"):
        m[f"ga.{phase}_s"] = total(f"ga.{phase}")
    m["ga.fitness_calls_per_gen"] = calls("ga.fitness") / generations if generations else 0.0
    m["ga.useful_gen_frac"] = last_improvements / generations if generations else 0.0

    batches = attrs.get("core.pn_schedule", [])
    sizes = [size for size, _ in batches]
    m["core.pn_batches"] = len(batches)
    m["core.pn_batch_size_p50"] = statistics.median(sizes) if sizes else 0.0
    m["core.pn_batch_size_max"] = max(sizes) if sizes else 0
    m["core.pn_min_batch_frac"] = (
        sum(1 for size, floor in batches if size <= floor) / len(batches) if batches else 0.0
    )
    m["core.pn_schedule_self_s"] = self_sum.get("core.pn_schedule", 0.0)

    m["schedulers.schedule_calls"] = calls("schedulers.schedule")
    m["schedulers.schedule_s"] = total("schedulers.schedule")
    m["schedulers.self_s"] = self_sum.get("schedulers.schedule", 0.0)

    m["sim.simulate_calls"] = calls("sim.simulate")
    m["sim.self_s"] = self_sum.get("sim.simulate", 0.0)
    by_scheduler = {name: 0.0 for name in SCHEDULER_NAMES}
    simulations = zip(durations.get("sim.simulate", ()), attrs.get("sim.simulate", ()))
    for duration, scheduler in simulations:
        by_scheduler[scheduler] = by_scheduler.get(scheduler, 0.0) + duration
    for name in SCHEDULER_NAMES:
        m[f"sim.by_scheduler.{name}_s"] = by_scheduler[name]

    m["workloads.generate_s"] = total("workloads.generate")
    m["cluster.build_s"] = total("cluster.build")
    m["experiments.compare_s"] = total("experiments.compare")
    m["experiments.focus_makespan_ratio"] = focus_ratio

    runs = list(zip(durations.get("campaigns.run", ()), attrs.get("campaigns.run", ())))
    cold = [(d, a) for d, a in runs if a[0] > 0]
    cold_wall = sum(d for d, _ in cold)
    m["campaigns.cold_run_s"] = cold_wall
    m["campaigns.warm_run_s"] = sum(d for d, a in runs if a[0] == 0)
    m["campaigns.self_s"] = self_sum.get("campaigns.run", 0.0)
    m["campaigns.expand_s"] = total("campaigns.expand")
    m["campaigns.aggregate_s"] = total("campaigns.aggregate")
    m["campaigns.persist_s"] = _union_length(
        (span[1], span[2])
        for span in spans
        if span[0] in ("campaigns.store_put", "campaigns.flush_index", "io.atomic_write")
    )
    m["campaigns.store_put_calls"] = calls("campaigns.store_put")
    m["campaigns.store_put_s"] = total("campaigns.store_put")
    m["campaigns.store_has_s"] = total("campaigns.store_has")
    m["campaigns.store_get_record_s"] = total("campaigns.store_get_record")
    m["campaigns.flush_index_s"] = total("campaigns.flush_index")
    cells = sum(a[2] for _, a in runs)
    m["campaigns.cache_hit_frac"] = sum(a[1] for _, a in runs) / cells if cells else 0.0

    writes = durations.get("io.atomic_write", [])
    m["io.atomic_write_calls"] = len(writes)
    m["io.atomic_write_s"] = total("io.atomic_write")
    m["io.atomic_write_p50_ms"] = 1e3 * _quantile(writes, 0.5)
    m["io.atomic_write_p90_ms"] = 1e3 * _quantile(writes, 0.9)
    m["io.bytes_written"] = sum(attrs.get("io.atomic_write", ()))

    m["parallel.wait_s"] = total("parallel.wait")
    busy = sum(a[3] for _, a in cold)
    m["parallel.worker_busy_frac"] = (
        busy / (cold_wall * CAMPAIGN_JOBS) if cold_wall > 0 else 0.0
    )

    roots = [(span[1], span[2]) for span in spans if span[3] < 0]
    m["trace.overhead_x"] = traced_wall / untraced_wall if untraced_wall > 0 else 0.0
    m["trace.wall_s"] = traced_wall
    m["trace.uncovered_s"] = max(0.0, traced_wall - _union_length(roots))
    return {name: float(m[name]) for name in PER_LAYER_UNITS}
