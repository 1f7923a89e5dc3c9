"""Tests of the batched static-replay backend (`repro.sim.fastpath`).

The contract under test is strict: for every static configuration the fast
backend must be *bit-identical* to the event-driven engine on every
trace-visible number — makespan, efficiency, response times, the full
execution trace (values and record order), scheduler invocation accounting,
queue-length trajectory, per-worker bookkeeping and the processed-event
count.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster.topology import (
    heterogeneous_cluster,
    homogeneous_cluster,
    varying_availability_cluster,
)
from repro.scenarios.dynamics import DynamicsTimeline, WorkerFailure
from repro.schedulers.registry import make_scheduler
from repro.sim.simulation import (
    SIM_BACKENDS,
    DistributedSystemSimulation,
    SimulationConfig,
    simulate_schedule,
)
from repro.util.errors import SimulationError
from repro.workloads.generator import generate_workload
from repro.workloads.suites import workload_by_name

from oracles import POLICY_KERNELS, policy_kernels_installed

TRACE_COLUMNS = (
    "task_id",
    "proc_id",
    "size_mflops",
    "arrival_time",
    "assigned_time",
    "dispatch_time",
    "exec_start",
    "exec_end",
)


def build_cluster(kind, n_processors, mean_comm_cost, rng):
    if kind == "hetero":
        return heterogeneous_cluster(n_processors, mean_comm_cost=mean_comm_cost, rng=rng)
    if kind == "homog":
        return homogeneous_cluster(
            n_processors, 120.0, mean_comm_cost=mean_comm_cost, rng=rng
        )
    return varying_availability_cluster(
        n_processors, mean_comm_cost=mean_comm_cost, rng=rng
    )


def run_backend(
    backend,
    *,
    scheduler="MM",
    workload="normal",
    n_tasks=40,
    cluster_kind="hetero",
    n_processors=6,
    mean_comm_cost=8.0,
    seed=0,
    time_horizon=None,
    policy_kernels="vectorized",
):
    tasks = generate_workload(
        workload_by_name(workload, n_tasks), np.random.default_rng(seed)
    )
    cluster = build_cluster(
        cluster_kind, n_processors, mean_comm_cost, np.random.default_rng(seed + 1)
    )
    sched = make_scheduler(
        scheduler,
        n_processors=n_processors,
        batch_size=12,
        max_generations=6,
        rng=seed + 2,
    )
    with policy_kernels_installed(POLICY_KERNELS[policy_kernels]()):
        sim = DistributedSystemSimulation(
            sched,
            cluster,
            tasks,
            config=SimulationConfig(sim_backend=backend, time_horizon=time_horizon),
            rng=seed + 3,
        )
    result = sim.run()
    return sim, result


def assert_identical(event, fast):
    sim_e, res_e = event
    sim_f, res_f = fast
    assert res_f.makespan == res_e.makespan
    assert res_f.efficiency == res_e.efficiency
    assert res_f.metrics.mean_response_time == res_e.metrics.mean_response_time
    assert res_f.metrics.mean_queue_wait == res_e.metrics.mean_queue_wait
    assert res_f.metrics.summary() == res_e.metrics.summary()
    assert res_f.scheduler_invocations == res_e.scheduler_invocations
    assert res_f.batch_sizes == res_e.batch_sizes
    assert res_f.events_processed == res_e.events_processed
    assert (
        res_f.metrics.dynamics.queue_length_trajectory
        == res_e.metrics.dynamics.queue_length_trajectory
    )
    assert len(res_f.trace) == len(res_e.trace)
    for name in TRACE_COLUMNS:
        np.testing.assert_array_equal(
            res_f.trace.column(name), res_e.trace.column(name), err_msg=name
        )
    for worker_e, worker_f in zip(sim_e.workers, sim_f.workers):
        assert worker_f.tasks_completed == worker_e.tasks_completed
        assert worker_f.busy_seconds == worker_e.busy_seconds
        assert worker_f.comm_seconds == worker_e.comm_seconds
        assert worker_f.busy_until == worker_e.busy_until
    np.testing.assert_array_equal(
        sim_f.master.pending_loads, sim_e.master.pending_loads
    )


class TestBackendParity:
    @pytest.mark.parametrize("scheduler", ["EF", "LL", "RR", "MM", "MX"])
    @pytest.mark.parametrize("cluster_kind", ["hetero", "homog", "varying"])
    def test_bit_identical_across_schedulers_and_clusters(self, scheduler, cluster_kind):
        kwargs = dict(scheduler=scheduler, cluster_kind=cluster_kind, seed=11)
        assert_identical(run_backend("event", **kwargs), run_backend("fast", **kwargs))

    @pytest.mark.parametrize("scheduler", ["EF", "MM"])
    def test_bit_identical_with_poisson_arrivals(self, scheduler):
        # Arrivals spread over time interleave with completions in the live
        # merge phase; ties and re-invocations must still replay exactly.
        kwargs = dict(
            scheduler=scheduler, workload="poisson_small", n_tasks=30, seed=5
        )
        assert_identical(run_backend("event", **kwargs), run_backend("fast", **kwargs))

    def test_bit_identical_with_zero_comm_cost(self):
        # mean 0 links never consume the network stream in either backend.
        kwargs = dict(cluster_kind="homog", mean_comm_cost=0.0, seed=3)
        assert_identical(run_backend("event", **kwargs), run_backend("fast", **kwargs))

    def test_bit_identical_homogeneous_ties(self):
        # Homogeneous cluster + deterministic links: masses of simultaneous
        # completions exercise the (time, seq) tie-break replication.
        kwargs = dict(
            cluster_kind="homog", workload="uniform_narrow", n_tasks=36, seed=9
        )
        assert_identical(run_backend("event", **kwargs), run_backend("fast", **kwargs))

    def test_bit_identical_under_time_horizon(self):
        kwargs = dict(scheduler="EF", seed=17, time_horizon=30.0)
        sim_e, res_e = run_backend("event", **kwargs)
        sim_f, res_f = run_backend("fast", **kwargs)
        assert res_f.events_processed == res_e.events_processed
        assert len(res_f.trace) == len(res_e.trace)
        for name in TRACE_COLUMNS:
            np.testing.assert_array_equal(
                res_f.trace.column(name), res_e.trace.column(name), err_msg=name
            )

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(0, 2**20),
        scheduler=st.sampled_from(["EF", "LL", "RR", "MM", "MX"]),
        cluster_kind=st.sampled_from(["hetero", "homog", "varying"]),
        workload=st.sampled_from(["normal", "uniform_wide", "poisson_small"]),
        n_tasks=st.integers(5, 40),
        n_processors=st.integers(1, 8),
        mean_comm_cost=st.sampled_from([0.0, 2.0, 15.0]),
        policy_kernels=st.sampled_from(list(POLICY_KERNELS)),
    )
    def test_property_event_and_fast_results_equal(
        self,
        seed,
        scheduler,
        cluster_kind,
        workload,
        n_tasks,
        n_processors,
        mean_comm_cost,
        policy_kernels,
    ):
        # The policy kernels are drawn too: event/fast equality must hold
        # whether immediate-mode decisions run per task (the loop oracle) or
        # as batched waves (vectorized) — and, transitively, the four
        # combinations agree.
        kwargs = dict(
            scheduler=scheduler,
            workload=workload,
            n_tasks=n_tasks,
            cluster_kind=cluster_kind,
            n_processors=n_processors,
            mean_comm_cost=mean_comm_cost,
            seed=seed,
            policy_kernels=policy_kernels,
        )
        assert_identical(run_backend("event", **kwargs), run_backend("fast", **kwargs))


class TestBackendSelection:
    def test_fast_is_the_default(self):
        assert SimulationConfig().sim_backend == "fast"
        assert "fast" in SIM_BACKENDS and "event" in SIM_BACKENDS

    def test_unknown_backend_rejected(self):
        with pytest.raises(SimulationError, match="sim_backend"):
            SimulationConfig(sim_backend="warp")

    def _sim(self, *, dynamics=None, backend="fast"):
        tasks = generate_workload(
            workload_by_name("normal", 10), np.random.default_rng(0)
        )
        cluster = homogeneous_cluster(3, 100.0, mean_comm_cost=1.0)
        sched = make_scheduler("EF", n_processors=3, batch_size=5, max_generations=5, rng=1)
        return DistributedSystemSimulation(
            sched,
            cluster,
            tasks,
            config=SimulationConfig(sim_backend=backend),
            dynamics=dynamics,
            rng=2,
        )

    def test_static_run_uses_fast_path(self):
        assert self._sim().uses_fast_path()

    def test_event_backend_opts_out(self):
        assert not self._sim(backend="event").uses_fast_path()

    def test_empty_dynamics_timeline_is_static(self):
        assert self._sim(dynamics=DynamicsTimeline(())).uses_fast_path()

    def test_real_dynamics_fall_back_to_event_engine(self):
        sim = self._sim(
            dynamics=DynamicsTimeline([WorkerFailure(time=5.0, proc=0)])
        )
        assert not sim.uses_fast_path()
        result = sim.run()  # and the fallback still completes the workload
        assert result.metrics.tasks_completed == 10

    def test_fast_path_enforces_event_budget(self):
        tasks = generate_workload(
            workload_by_name("normal", 20), np.random.default_rng(0)
        )
        cluster = homogeneous_cluster(2, 100.0, mean_comm_cost=1.0)
        sched = make_scheduler("EF", n_processors=2, batch_size=5, max_generations=5, rng=1)
        with pytest.raises(SimulationError, match="event budget"):
            simulate_schedule(
                sched,
                cluster,
                tasks,
                config=SimulationConfig(sim_backend="fast", max_events=10),
                rng=2,
            )

    @pytest.mark.parametrize("cluster_kind", ["hetero", "homog"])
    def test_budget_exceeded_inside_terminal_drain(self, cluster_kind):
        # Enough budget for the live merge phase but not the drain: the
        # replay must raise the engine's exact storm error either way
        # (stochastic links use the checking sequential drain; deterministic
        # ones fall back to it when the budget cannot cover the drain).
        tasks = generate_workload(
            workload_by_name("normal", 20), np.random.default_rng(0)
        )
        cluster = build_cluster(cluster_kind, 2, 1.0, np.random.default_rng(1))
        budget = 30  # > arrivals + invoke + initial fetches, < full drain
        sched = make_scheduler("EF", n_processors=2, batch_size=5, max_generations=5, rng=1)
        with pytest.raises(SimulationError, match="event budget"):
            simulate_schedule(
                sched,
                cluster,
                tasks,
                config=SimulationConfig(sim_backend="fast", max_events=budget),
                rng=2,
            )
        sched = make_scheduler("EF", n_processors=2, batch_size=5, max_generations=5, rng=1)
        with pytest.raises(SimulationError, match="event budget"):
            simulate_schedule(
                sched,
                cluster,
                tasks,
                config=SimulationConfig(sim_backend="event", max_events=budget),
                rng=2,
            )

    def test_budget_error_preserves_partial_trace_like_event_backend(self):
        # When the storm guard fires, the records completed before the error
        # must already be in the trace — identically in both backends — so a
        # caller debugging the storm sees the same partial execution.
        sims = {}
        for backend in SIM_BACKENDS:
            tasks = generate_workload(
                workload_by_name("normal", 40), np.random.default_rng(0)
            )
            cluster = build_cluster("hetero", 3, 2.0, np.random.default_rng(1))
            sched = make_scheduler(
                "EF", n_processors=3, batch_size=10, max_generations=5, rng=1
            )
            sim = DistributedSystemSimulation(
                sched,
                cluster,
                tasks,
                config=SimulationConfig(sim_backend=backend, max_events=100),
                rng=2,
            )
            with pytest.raises(SimulationError, match="event budget"):
                sim.run()
            sims[backend] = sim
        event_sim, fast_sim = sims["event"], sims["fast"]
        assert len(fast_sim.trace) == len(event_sim.trace) > 0
        assert fast_sim._completed == event_sim._completed
        for name in TRACE_COLUMNS:
            np.testing.assert_array_equal(
                fast_sim.trace.column(name), event_sim.trace.column(name), err_msg=name
            )

    def test_bit_identical_with_time_varying_link_condition(self):
        # No built-in topology varies link conditions over time, but the
        # model supports it; the replay must resolve the per-dispatch mean
        # exactly as CommLink.sample_cost does.
        from repro.cluster.cluster import Cluster
        from repro.cluster.network import CommLink, Network
        from repro.cluster.processor import Processor
        from repro.cluster.variation import SinusoidalAvailability

        def build():
            processors = [Processor(proc_id=i, peak_rate_mflops=100.0) for i in range(3)]
            links = [
                CommLink(
                    proc_id=i,
                    mean_cost=2.0 + i,
                    relative_std=0.2 * i,  # includes a zero-variance varying link
                    condition=SinusoidalAvailability(base=0.8, amplitude=0.15, period=40.0),
                )
                for i in range(3)
            ]
            return Cluster(processors, Network(links))

        tasks = generate_workload(
            workload_by_name("normal", 25), np.random.default_rng(4)
        )
        results = {}
        for backend in SIM_BACKENDS:
            sched = make_scheduler("EF", n_processors=3, batch_size=10, max_generations=5, rng=5)
            results[backend] = simulate_schedule(
                sched,
                build(),
                tasks,
                config=SimulationConfig(sim_backend=backend),
                rng=6,
            )
        event, fast = results["event"], results["fast"]
        assert fast.makespan == event.makespan
        assert fast.events_processed == event.events_processed
        for name in TRACE_COLUMNS:
            np.testing.assert_array_equal(
                fast.trace.column(name), event.trace.column(name), err_msg=name
            )


class TestScaleAndRunnerThreading:
    def test_scale_validates_sim_backend(self):
        from repro.experiments.config import get_scale
        from repro.util.errors import ConfigurationError

        scale = get_scale("smoke")
        assert scale.sim_backend == "fast"
        assert scale.scaled(sim_backend="event").sim_backend == "event"
        with pytest.raises(ConfigurationError, match="sim_backend"):
            scale.scaled(sim_backend="warp")

    @pytest.mark.parametrize("sim_backend", ["event", "fast"])
    def test_scenario_matrix_serial_vs_jobs_identical(self, sim_backend):
        from repro.experiments.config import get_scale
        from repro.parallel.executor import ParallelExecutor
        from repro.scenarios.runner import run_scenario_matrix

        scale = get_scale("smoke").scaled(sim_backend=sim_backend)
        serial = run_scenario_matrix(
            ["steady-state"], scale=scale, schedulers=["EF", "MM"], repeats=2, seed=13
        )
        with ParallelExecutor(jobs=2) as executor:
            parallel = run_scenario_matrix(
                ["steady-state"],
                scale=scale,
                schedulers=["EF", "MM"],
                repeats=2,
                seed=13,
                executor=executor,
            )
        assert serial.signature() == parallel.signature()

    @staticmethod
    def scenario_signatures(scenario, schedulers, repeats):
        from repro.experiments.config import get_scale
        from repro.scenarios.runner import run_scenario_matrix

        return {
            backend: run_scenario_matrix(
                [scenario],
                scale=get_scale("smoke").scaled(sim_backend=backend),
                schedulers=schedulers,
                repeats=repeats,
                seed=13,
            ).signature()
            for backend in SIM_BACKENDS
        }

    def test_scenario_backends_agree_on_static_scenarios(self):
        results = self.scenario_signatures("steady-state", ["EF", "MM"], repeats=2)
        assert results["event"] == results["fast"]

    def test_scenario_backends_agree_over_three_repeats(self):
        # LL's load estimate and a third repeat's seed stream on the same
        # static scenario: the matrix signature must not depend on the engine.
        results = self.scenario_signatures("steady-state", ["EF", "LL"], repeats=3)
        assert results["event"] == results["fast"]

    def test_compare_schedulers_backends_agree(self):
        from repro.experiments.config import get_scale
        from repro.experiments.runner import compare_schedulers

        outcomes = {}
        for backend in SIM_BACKENDS:
            scale = get_scale("smoke").scaled(repeats=2, sim_backend=backend)
            result = compare_schedulers(
                workload_by_name("normal", 30),
                scale,
                mean_comm_cost=5.0,
                scheduler_names=["EF", "MM"],
                seed=21,
            )
            outcomes[backend] = {
                name: (cmp.makespan.mean, cmp.efficiency.mean, cmp.invocations.mean)
                for name, cmp in result.schedulers.items()
            }
        assert outcomes["event"] == outcomes["fast"]

    def test_cell_outcomes_report_wall_clock_and_events_per_second(self):
        from repro.experiments.config import get_scale
        from repro.scenarios.runner import run_scenario_matrix

        result = run_scenario_matrix(
            ["steady-state"],
            scale=get_scale("smoke"),
            schedulers=["EF"],
            repeats=2,
            seed=3,
        )
        for outcome in result.outcomes:
            assert outcome.wall_clock_seconds > 0
            assert outcome.events_per_second > 0
        agg = result.aggregate("steady-state", "EF")
        assert agg.wall_clock_seconds.mean > 0
        assert agg.events_per_second.mean > 0
        timing = result.timing()
        assert timing["steady-state"]["EF"]["events_per_second_mean"] > 0
