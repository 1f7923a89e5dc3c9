"""The end-to-end simulation of a scheduler driving a heterogeneous system.

:func:`simulate_schedule` wires together the master (scheduling policy plus
task queues), one worker per processor, the network model, and the
discrete-event engine, and returns the paper's metrics (makespan and
efficiency) together with the full execution trace.

The dispatch protocol follows Sect. 3 of the paper:

1. arriving tasks join the master's unscheduled FCFS queue;
2. the scheduling policy is invoked to map (batches of) unscheduled tasks
   onto per-processor queues held at the master;
3. an idle worker requests its next task; delivering it costs the link's
   (randomly varying) communication time, after which the worker executes the
   task at its current effective rate and reports completion;
4. when a worker's master-side queue runs dry and unscheduled tasks remain,
   the policy is invoked again — this is what makes batch scheduling
   *dynamic* and lets the PN scheduler exploit the communication-cost and
   rate observations accumulated so far.

Cluster dynamics (worker failure/recovery/join, load spikes) are injected by
an optional *dynamics timeline* (see :mod:`repro.scenarios.dynamics`).  The
simulation only requires the timeline to expose ``initially_offline()`` and
``sim_events(next_task_id, rng)``; the handlers below enforce the
conservation invariant that every arrived task completes exactly once:

* a failing worker's in-flight task and master-side queue are re-queued at
  the front of the unscheduled queue and the policy is re-invoked;
* the pending completion event of the lost in-flight task is cancelled;
* offline workers are never handed tasks, and assignments a policy maps to
  them are diverted by the master to the least-loaded online queue.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Protocol, Sequence, Tuple


from ..cluster.cluster import Cluster
from ..schedulers.base import Scheduler
from ..telemetry import get_session
from ..util.errors import SimulationError
from ..util.rng import RNGLike, spawn_rngs
from ..workloads.task import Task, TaskSet
from ..util.buffers import RecordBuffer
from .engine import DiscreteEventEngine
from .events import Event, EventKind
from .fastpath import is_static, run_static_replay
from .master import Master
from .metrics import DynamicsStats, SimulationMetrics, compute_metrics
from .trace import ExecutionTrace
from .worker import WorkerState

__all__ = [
    "SIM_BACKENDS",
    "SimulationConfig",
    "SimulationResult",
    "DynamicsTimelineLike",
    "DistributedSystemSimulation",
    "simulate_schedule",
]


class DynamicsTimelineLike(Protocol):
    """What the simulator needs from a cluster-dynamics timeline.

    Implemented by :class:`repro.scenarios.dynamics.DynamicsTimeline`; kept as
    a protocol here so the sim layer stays import-free of the scenario layer.
    """

    def initially_offline(self) -> Iterable[int]:
        """Processor ids that start outside the cluster (join later)."""
        ...

    def sim_events(
        self, *, next_task_id: int, rng: RNGLike = None
    ) -> Sequence[Tuple[float, EventKind, Dict[str, Any]]]:
        """The ``(time, kind, event data)`` triples to inject at run start."""
        ...


#: Valid values of :attr:`SimulationConfig.sim_backend`.
SIM_BACKENDS = ("event", "fast")


@dataclass
class SimulationConfig:
    """Knobs of the simulated environment (not of any particular scheduler)."""

    #: Smoothing factor of the master's communication-cost observations.
    comm_nu: float = 0.5
    #: Smoothing factor of the master's processor-rate observations.
    rate_nu: float = 0.5
    #: Hard cap on processed events (guards against event storms).
    max_events: int = 10_000_000
    #: Optional simulated-time horizon; ``None`` runs to completion.
    time_horizon: Optional[float] = None
    #: Simulation core: ``"fast"`` (default) replays static simulations
    #: through the batched :mod:`repro.sim.fastpath` backend (bit-identical
    #: to the event engine; runs with cluster dynamics fall back to the
    #: event loop automatically), ``"event"`` always pumps the
    #: discrete-event engine.
    sim_backend: str = "fast"
    #: Attribute wall-clock cost to simulation phases (``scheduling`` —
    #: policy invocations, ``dispatch`` — worker fetches and communication
    #: sampling, ``drain`` — completion processing, including the fast
    #: path's terminal drain).  Off by default: the per-event clock reads
    #: cost real time on the hot path.  Purely observational — results are
    #: bit-identical either way; see :attr:`SimulationResult.phase_seconds`.
    phase_timing: bool = False

    def __post_init__(self) -> None:
        if self.sim_backend not in SIM_BACKENDS:
            raise SimulationError(
                f"unknown sim_backend {self.sim_backend!r}; "
                f"expected one of {list(SIM_BACKENDS)}"
            )


@dataclass
class SimulationResult:
    """Everything produced by one simulated schedule."""

    scheduler_name: str
    metrics: SimulationMetrics
    trace: ExecutionTrace
    scheduler_invocations: int
    batch_sizes: List[int]
    n_tasks: int
    n_processors: int
    #: Extra tasks injected by LOAD_SPIKE dynamics (0 for static runs);
    #: ``n_tasks`` counts the base workload only.
    tasks_injected: int = 0
    #: Events the engine processed end-to-end (throughput benchmarks use this).
    events_processed: int = 0
    #: Wall-clock seconds per simulation phase (``scheduling`` / ``dispatch``
    #: / ``drain``), populated only when
    #: :attr:`SimulationConfig.phase_timing` is on.  Machine-dependent:
    #: excluded from any determinism comparison.
    phase_seconds: Dict[str, float] = field(default_factory=dict)

    @property
    def makespan(self) -> float:
        """Total execution time of the schedule (seconds)."""
        return self.metrics.makespan

    @property
    def efficiency(self) -> float:
        """Fraction of processor-time spent executing rather than communicating or idling."""
        return self.metrics.efficiency


class DistributedSystemSimulation:
    """One simulation run: a scheduler, a cluster, and a set of tasks."""

    def __init__(
        self,
        scheduler: Scheduler,
        cluster: Cluster,
        tasks: TaskSet,
        *,
        config: Optional[SimulationConfig] = None,
        dynamics: Optional[DynamicsTimelineLike] = None,
        rng: RNGLike = None,
    ):
        if len(tasks) == 0:
            raise SimulationError("cannot simulate an empty task set")
        self.scheduler = scheduler
        self.cluster = cluster
        self.tasks = tasks
        self.config = config or SimulationConfig()
        # The third child stream feeds the dynamics timeline (e.g. load-spike
        # task sizes).  SeedSequence children are prefix-stable, so streams 0
        # and 1 are identical to the historical two-stream spawn and static
        # simulations stay bit-identical to earlier releases.
        master_rng, network_rng, dynamics_rng = spawn_rngs(rng, 3)
        self._network_rng = network_rng
        self._dynamics_rng = dynamics_rng
        self._dynamics = dynamics

        self.engine = DiscreteEventEngine(max_events=self.config.max_events)
        self.master = Master(
            scheduler,
            cluster.n_processors,
            initial_rates=cluster.current_rates(0.0),
            comm_nu=self.config.comm_nu,
            rate_nu=self.config.rate_nu,
            rng=master_rng,
        )
        self.workers = [WorkerState(processor=proc) for proc in cluster.processors]
        self.trace = ExecutionTrace(cluster.n_processors)
        self._completed = 0
        self._scheduler_invocation_pending = False
        self._completion_events: Dict[int, Event] = {}
        self._queue_samples = RecordBuffer(
            (("time", float), ("unscheduled", int), ("queued", int))
        )
        self._counts = {"failures": 0, "recoveries": 0, "joins": 0}
        self._injected = 0
        self._phase_seconds = {"scheduling": 0.0, "dispatch": 0.0, "drain": 0.0}
        # Phase attribution turns on when asked for explicitly *or* when a
        # telemetry session is active at construction time (the per-run
        # phase spans would otherwise be empty).  Purely observational
        # either way: results stay bit-identical.
        self._phase_timing = self.config.phase_timing or get_session() is not None

        self.engine.register(EventKind.TASK_ARRIVAL, self._on_task_arrival)
        self.engine.register(
            EventKind.INVOKE_SCHEDULER, self._phased("scheduling", self._on_invoke_scheduler)
        )
        self.engine.register(
            EventKind.WORKER_FETCH, self._phased("dispatch", self._on_worker_fetch)
        )
        self.engine.register(
            EventKind.TASK_COMPLETION, self._phased("drain", self._on_task_completion)
        )
        if dynamics is not None:
            self.engine.register(EventKind.WORKER_FAILURE, self._on_worker_failure)
            self.engine.register(EventKind.WORKER_RECOVERY, self._on_worker_recovery)
            self.engine.register(EventKind.WORKER_JOIN, self._on_worker_join)
            self.engine.register(EventKind.LOAD_SPIKE, self._on_load_spike)
            for proc in dynamics.initially_offline():
                proc = int(proc)
                if not (0 <= proc < cluster.n_processors):
                    raise SimulationError(
                        f"dynamics timeline references processor {proc} outside "
                        f"[0, {cluster.n_processors})"
                    )
                # Not-yet-joined workers are offline from the start but accrue
                # no downtime (they were never part of the cluster).
                self.workers[proc].online = False
                self.master.mark_offline(proc)

    def _phased(
        self, phase: str, handler: Callable[[Event], None]
    ) -> Callable[[Event], None]:
        """Wrap *handler* to attribute its wall time to *phase*.

        Identity when phase timing is off, so the hot event loop pays no
        clock reads unless the attribution was asked for.
        """
        if not self._phase_timing:
            return handler
        seconds = self._phase_seconds

        def timed(event: Event) -> None:
            start = time.perf_counter()
            try:
                handler(event)
            finally:
                seconds[phase] += time.perf_counter() - start

        return timed

    # -- event handlers ---------------------------------------------------------------
    def _on_task_arrival(self, event: Event) -> None:
        task: Task = event.data["task"]
        self.master.task_arrived(task)
        self._request_scheduling(event.time)

    def _request_scheduling(self, time: float) -> None:
        if not self._scheduler_invocation_pending:
            self._scheduler_invocation_pending = True
            self.engine.schedule(time, EventKind.INVOKE_SCHEDULER)

    def _sample_queues(self, time: float) -> None:
        self._queue_samples.append(time, self.master.n_unscheduled, self.master.n_queued_total)

    def _on_invoke_scheduler(self, event: Event) -> None:
        self._scheduler_invocation_pending = False
        self._sample_queues(event.time)
        assigned = self.master.schedule_all_available(event.time)
        if assigned == 0:
            return
        # Wake every idle online worker whose queue now has work.
        for worker in self.workers:
            if (
                worker.online
                and not worker.is_busy
                and self.master.queue_length(worker.proc_id) > 0
            ):
                self.engine.schedule(event.time, EventKind.WORKER_FETCH, proc=worker.proc_id)

    def _on_worker_fetch(self, event: Event) -> None:
        proc = int(event.data["proc"])
        worker = self.workers[proc]
        if not worker.online:
            return  # stale wake-up for a worker that failed in the meantime
        if worker.is_busy:
            return  # stale wake-up: the worker already fetched something
        task = self.master.pop_task_for(proc)
        if task is None:
            # Queue ran dry: ask for more work if any remains unscheduled.
            if self.master.has_unscheduled():
                self._request_scheduling(event.time)
            return
        comm_cost = self.cluster.network.sample_cost(proc, self._network_rng, time=event.time)
        completion_time = worker.start_task(task, event.time, comm_cost)
        self.master.observe_dispatch(proc, comm_cost, event.time)
        self._completion_events[proc] = self.engine.schedule(
            completion_time,
            EventKind.TASK_COMPLETION,
            proc=proc,
            task=task,
            dispatch_time=event.time,
            comm_cost=comm_cost,
        )

    def _on_task_completion(self, event: Event) -> None:
        proc = int(event.data["proc"])
        task: Task = event.data["task"]
        dispatch_time: float = event.data["dispatch_time"]
        comm_cost: float = event.data["comm_cost"]
        worker = self.workers[proc]
        worker.finish_task(event.time)
        self._completion_events.pop(proc, None)

        exec_start = dispatch_time + comm_cost
        exec_seconds = event.time - exec_start
        worker.record_execution(exec_seconds)
        self.master.observe_completion(proc, task, exec_seconds, event.time)
        self.trace.add_record(
            task.task_id,
            proc,
            task.size_mflops,
            task.arrival_time,
            self.master.assigned_time_of(task.task_id),
            dispatch_time,
            exec_start,
            event.time,
        )
        self._completed += 1
        # Fetch the next task (or trigger another scheduling round).
        self.engine.schedule(event.time, EventKind.WORKER_FETCH, proc=proc)

    # -- dynamics handlers ------------------------------------------------------------
    def _on_worker_failure(self, event: Event) -> None:
        proc = int(event.data["proc"])
        worker = self.workers[proc]
        if not worker.online:
            return  # duplicate failure of an already offline worker: no-op
        inflight = worker.fail(event.time)
        pending = self._completion_events.pop(proc, None)
        if pending is not None:
            self.engine.cancel(pending)
        requeued = self.master.mark_offline(proc, inflight)
        self._counts["failures"] += 1
        self._sample_queues(event.time)
        if requeued and self.master.online_processors():
            self._request_scheduling(event.time)

    def _come_online(self, proc: int, time: float) -> None:
        worker = self.workers[proc]
        if worker.online:
            return  # duplicate recovery/join: no-op
        worker.come_online(time)
        self.master.mark_online(proc)
        # Membership changed: pull back every undispatched task and re-invoke
        # the policy so it can spread the backlog over the new member (the
        # per-processor queues live at the master precisely to allow this).
        self.master.reclaim_undispatched()
        self._sample_queues(time)
        if self.master.has_unscheduled():
            self._request_scheduling(time)

    def _on_worker_recovery(self, event: Event) -> None:
        proc = int(event.data["proc"])
        if not self.workers[proc].online:
            self._counts["recoveries"] += 1
        self._come_online(proc, event.time)

    def _on_worker_join(self, event: Event) -> None:
        proc = int(event.data["proc"])
        if not self.workers[proc].online:
            self._counts["joins"] += 1
        self._come_online(proc, event.time)

    def _on_load_spike(self, event: Event) -> None:
        tasks: Sequence[Task] = event.data["tasks"]
        # Counted here (not at schedule time) so a time_horizon that cuts the
        # run short never claims injections that were never delivered.
        self._injected += len(tasks)
        for task in tasks:
            self.master.task_arrived(task)
        self._sample_queues(event.time)
        if tasks:
            self._request_scheduling(event.time)

    # -- run -------------------------------------------------------------------------------
    def uses_fast_path(self) -> bool:
        """Whether :meth:`run` will take the batched static-replay backend."""
        return self.config.sim_backend == "fast" and is_static(self)

    def _run_event_driven(self) -> Tuple[float, int]:
        """Pump the discrete-event engine; returns (end time, events processed)."""
        for task in self.tasks:
            self.engine.schedule(task.arrival_time, EventKind.TASK_ARRIVAL, task=task)
        if self._dynamics is not None:
            next_task_id = max(task.task_id for task in self.tasks) + 1
            for time, kind, data in self._dynamics.sim_events(
                next_task_id=next_task_id, rng=self._dynamics_rng
            ):
                self.engine.schedule(time, kind, **data)
        end_time = self.engine.run(until=self.config.time_horizon)
        return end_time, self.engine.processed_events

    def run(self) -> SimulationResult:
        """Execute the simulation to completion and return metrics plus trace.

        With an active telemetry session the run is wrapped in a
        ``sim:run`` span with one ``phase:*`` child per accumulated phase,
        and the run's volume counters/histograms (events processed,
        tombstones skipped, kernel batch sizes, queue depths) land in the
        session's metrics registry.  All of it reads clocks and counters
        only — never an RNG stream — so the result is bit-identical to an
        unobserved run.
        """
        session = get_session()
        if session is None:
            return self._run_impl()
        with session.span(
            "sim:run",
            scheduler=self.scheduler.name,
            backend="fast" if self.uses_fast_path() else "event",
            n_tasks=len(self.tasks),
            n_processors=self.cluster.n_processors,
        ):
            result = self._run_impl()
            for phase, seconds in self._phase_seconds.items():
                session.record_span(f"phase:{phase}", seconds)
            metrics = session.metrics
            metrics.counter("sim.runs").inc()
            metrics.counter("sim.events_processed").inc(result.events_processed)
            metrics.counter("sim.tombstones_skipped").inc(
                self.engine.queue.tombstones_skipped
            )
            metrics.counter("sim.scheduler_invocations").inc(
                result.scheduler_invocations
            )
            if result.batch_sizes:
                metrics.histogram("sim.batch_sizes").observe_many(result.batch_sizes)
            if len(self._queue_samples):
                metrics.histogram("sim.queue_depth").observe_many(
                    self._queue_samples.column("queued")
                )
        return result

    def _run_impl(self) -> SimulationResult:
        self.scheduler.reset()
        if self.uses_fast_path():
            end_time, events_processed = run_static_replay(self)
        else:
            end_time, events_processed = self._run_event_driven()
        return self._finalise(end_time, events_processed)

    def _finalise(self, end_time: float, events_processed: int) -> SimulationResult:
        """Turn the post-run mutable state into a :class:`SimulationResult`.

        Shared by both backends: the event engine and the static replay
        leave the same result-visible state behind and finish through this
        one path.
        """
        expected = len(self.tasks) + self._injected
        if self.config.time_horizon is None and self._completed != expected:
            raise SimulationError(
                f"simulation finished with {self._completed}/{expected} tasks completed"
            )
        for worker in self.workers:
            worker.finalise_downtime(end_time)
        dynamics_stats = DynamicsStats(
            tasks_rescheduled=self.master.tasks_rescheduled,
            tasks_reclaimed=self.master.tasks_reclaimed,
            tasks_redirected=self.master.tasks_redirected,
            worker_failures=self._counts["failures"],
            worker_recoveries=self._counts["recoveries"],
            worker_joins=self._counts["joins"],
            tasks_injected=self._injected,
            worker_downtime_seconds=float(
                sum(worker.downtime_seconds for worker in self.workers)
            ),
            queue_length_trajectory=tuple(
                (float(t), int(unscheduled), int(queued))
                for t, unscheduled, queued in zip(
                    self._queue_samples.column("time"),
                    self._queue_samples.column("unscheduled"),
                    self._queue_samples.column("queued"),
                )
            ),
        )
        metrics = compute_metrics(self.trace, dynamics=dynamics_stats)
        return SimulationResult(
            scheduler_name=self.scheduler.name,
            metrics=metrics,
            trace=self.trace,
            scheduler_invocations=self.master.invocations,
            batch_sizes=list(self.master.batch_sizes),
            n_tasks=len(self.tasks),
            n_processors=self.cluster.n_processors,
            tasks_injected=self._injected,
            events_processed=events_processed,
            phase_seconds=(dict(self._phase_seconds) if self._phase_timing else {}),
        )


def simulate_schedule(
    scheduler: Scheduler,
    cluster: Cluster,
    tasks: TaskSet,
    *,
    config: Optional[SimulationConfig] = None,
    dynamics: Optional[DynamicsTimelineLike] = None,
    rng: RNGLike = None,
) -> SimulationResult:
    """Convenience wrapper: build a :class:`DistributedSystemSimulation` and run it."""
    simulation = DistributedSystemSimulation(
        scheduler, cluster, tasks, config=config, dynamics=dynamics, rng=rng
    )
    return simulation.run()
