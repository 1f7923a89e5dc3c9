"""Tests of the policy kernels (`repro.schedulers.kernels`).

The contract mirrors `repro.ga.kernels`: the ``loop`` oracle
(``tests/oracles.py``) is the semantic reference (the historical per-task
arithmetic) and the production ``vectorized`` backend must be
*bit-identical* to it on every kernel —
including exact float ties, where the documented tie-break contract
(lowest-index argmin; FCFS task ordering among equal sizes)
decides.  On top of kernel-level parity, full simulations must be
bit-identical between the production master, which places immediate-mode
policies by whole waves, and the oracle master that places them one task
per invocation with the loop kernels — on either simulation path, and with
picks on a failed worker diverted.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster.topology import heterogeneous_cluster, homogeneous_cluster
from repro.scenarios.dynamics import DynamicsTimeline, WorkerFailure
from repro.schedulers import (
    MaxMinScheduler,
    MinMinScheduler,
    SchedulingContext,
    VectorizedPolicyBackend,
    default_policy_kernels,
)
from repro.schedulers.base import ImmediateScheduler
from repro.schedulers.registry import make_scheduler
from repro.sim.simulation import DistributedSystemSimulation, SimulationConfig, simulate_schedule
from repro.util.errors import ConfigurationError, SimulationError
from repro.workloads import Task
from repro.workloads.generator import generate_workload
from repro.workloads.suites import workload_by_name

from oracles import (
    POLICY_KERNELS,
    SIM_PATHS,
    LoopPolicyBackend,
    policy_kernels_installed,
    sim_path,
)

POLICY_KERNEL_NAMES = list(POLICY_KERNELS)
TRACE_COLUMNS = (
    "task_id",
    "proc_id",
    "assigned_time",
    "dispatch_time",
    "exec_start",
    "exec_end",
)
#: When worker 2 fails in the wave-vs-per-task runs: about a fifth into
#: their ~48 s makespan, while its queue still holds work.
FAILURE_TIME = 10.0
LOOP = LoopPolicyBackend()
VEC = VectorizedPolicyBackend()

# Small value pools make exact float ties (equal sizes, rates and loads)
# common rather than astronomically rare — the tie-break contract is the
# part of the kernels most worth fuzzing.
SIZE_POOL = [1.0, 2.0, 4.0, 7.5, 16.0]
LOAD_POOL = [0.0, 1.0, 2.0, 8.0, 32.0]
RATE_POOL = [1.0, 2.0, 4.0, 10.0]

dense_states = st.fixed_dictionaries(
    {
        "sizes": st.lists(st.sampled_from(SIZE_POOL), min_size=1, max_size=16),
        "loads": st.lists(st.sampled_from(LOAD_POOL), min_size=1, max_size=6),
        "rates": st.lists(st.sampled_from(RATE_POOL), min_size=1, max_size=6),
    }
)


def unpack(state):
    sizes = np.array(state["sizes"], dtype=float)
    m = min(len(state["loads"]), len(state["rates"]))
    loads = np.array(state["loads"][:m], dtype=float)
    rates = np.array(state["rates"][:m], dtype=float)
    return sizes, loads, rates


class TestKernelParity:
    """Loop and vectorized kernels agree bit-for-bit, ties included."""

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(state=dense_states)
    def test_wave_kernels_bit_identical(self, state):
        sizes, loads, rates = unpack(state)
        loads_a, loads_b = loads.copy(), loads.copy()
        np.testing.assert_array_equal(
            LOOP.earliest_finish_wave(sizes, loads_a, rates),
            VEC.earliest_finish_wave(sizes, loads_b, rates),
        )
        np.testing.assert_array_equal(loads_a, loads_b)
        loads_a, loads_b = loads.copy(), loads.copy()
        np.testing.assert_array_equal(
            LOOP.lightest_loaded_wave(sizes, loads_a),
            VEC.lightest_loaded_wave(sizes, loads_b),
        )
        np.testing.assert_array_equal(loads_a, loads_b)

    @settings(max_examples=40, deadline=None)
    @given(
        n_tasks=st.integers(0, 40),
        n_processors=st.integers(1, 9),
        start=st.integers(0, 30),
    )
    def test_round_robin_wave_matches_iterated_rotation(self, n_tasks, n_processors, start):
        procs_a, next_a = LOOP.round_robin_wave(n_tasks, n_processors, start)
        procs_b, next_b = VEC.round_robin_wave(n_tasks, n_processors, start)
        np.testing.assert_array_equal(procs_a, procs_b)
        assert next_a == next_b

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(state=dense_states, descending=st.booleans(), data=st.data())
    def test_greedy_finish_batch_bit_identical(self, state, descending, data):
        sizes, loads, rates = unpack(state)
        # Shuffled, non-contiguous ids: the FCFS tie-break among equal sizes
        # must key on the id values, not on array positions.
        ids = data.draw(st.permutations([3 * i + 1 for i in range(len(sizes))]))
        task_ids = np.array(ids, dtype=np.int64)
        loads_a, loads_b = loads.copy(), loads.copy()
        order_a, procs_a = LOOP.greedy_finish_batch(sizes, task_ids, loads_a, rates, descending)
        order_b, procs_b = VEC.greedy_finish_batch(sizes, task_ids, loads_b, rates, descending)
        np.testing.assert_array_equal(order_a, order_b)
        np.testing.assert_array_equal(procs_a, procs_b)
        np.testing.assert_array_equal(loads_a, loads_b)


class TestTieBreakContract:
    """The documented tie-break rules, pinned case by case on both backends."""

    @pytest.mark.parametrize("backend", [LOOP, VEC])
    def test_argmin_policies_pick_lowest_index_on_exact_ties(self, backend):
        sizes = np.array([4.0])
        rates = np.array([2.0, 2.0, 2.0])
        assert backend.earliest_finish_wave(sizes, np.zeros(3), rates)[0] == 0
        assert backend.lightest_loaded_wave(sizes, np.zeros(3))[0] == 0

    @pytest.mark.parametrize("backend", [LOOP, VEC])
    def test_ef_wave_is_sequential_in_effect(self, backend):
        # Equal tasks on two equal processors: each placement must see the
        # previous one's load, alternating 0,1,0 — a fully parallel argmin
        # over the frozen initial state would put all three on processor 0.
        procs = backend.earliest_finish_wave(
            np.array([4.0, 4.0, 4.0]), np.zeros(2), np.array([1.0, 1.0])
        )
        assert procs.tolist() == [0, 1, 0]

    @pytest.mark.parametrize("backend", [LOOP, VEC])
    def test_max_min_equal_sizes_placed_in_fcfs_order(self, backend):
        # The regression the kernels fix: sorting with reverse=True over
        # (size, task_id) reversed the id tie-break among equal sizes, so
        # duplicate-size tasks were placed newest-first.  The contract is
        # (-size, task_id): strictly larger first, FCFS among equals.
        sizes = np.array([5.0, 9.0, 5.0, 9.0, 5.0])
        task_ids = np.array([10, 11, 12, 13, 14], dtype=np.int64)
        order, _ = backend.greedy_finish_batch(
            sizes, task_ids, np.zeros(2), np.array([1.0, 1.0]), descending=True
        )
        # Both 9.0s (ids 11, 13) first in id order, then the 5.0s in id order.
        assert order.tolist() == [1, 3, 0, 2, 4]

    @pytest.mark.parametrize("backend", [LOOP, VEC])
    def test_min_min_equal_sizes_placed_in_fcfs_order(self, backend):
        sizes = np.array([9.0, 5.0, 9.0, 5.0])
        task_ids = np.array([0, 1, 2, 3], dtype=np.int64)
        order, _ = backend.greedy_finish_batch(
            sizes, task_ids, np.zeros(2), np.array([1.0, 1.0]), descending=False
        )
        assert order.tolist() == [1, 3, 0, 2]


class TestMaxMinSchedulerRegression:
    """The MaxMin FCFS fix observed through the scheduler and full sims."""

    def make_context(self, rates, backend_name):
        rates = np.asarray(rates, dtype=float)
        return SchedulingContext(
            time=0.0,
            rates=rates,
            pending_loads=np.zeros_like(rates),
            comm_costs=np.zeros_like(rates),
            kernels=POLICY_KERNELS[backend_name](),
        )

    @pytest.mark.parametrize("backend_name", POLICY_KERNEL_NAMES)
    def test_duplicate_sizes_assigned_fcfs(self, backend_name):
        tasks = [Task(i, 12.0) for i in range(3)]
        assignment = MaxMinScheduler(batch_size=10).schedule(
            tasks, self.make_context([10.0, 10.0], backend_name)
        )
        # FCFS among equal sizes: task 0 -> proc 0, task 1 -> proc 1, task 2
        # -> proc 0 again.  The historical reverse=True sort placed 2,1,0.
        assert assignment.queues() == [[0, 2], [1]]

    @pytest.mark.parametrize("backend_name", POLICY_KERNEL_NAMES)
    def test_min_min_and_max_min_agree_on_all_equal_sizes(self, backend_name):
        # With every size equal the two sort directions coincide — only if
        # both tie-break FCFS.
        tasks = [Task(i, 8.0) for i in range(7)]
        ctx = self.make_context([10.0, 20.0, 40.0], backend_name)
        mm = MinMinScheduler(batch_size=10).schedule(tasks, ctx)
        mx = MaxMinScheduler(batch_size=10).schedule(tasks, ctx)
        assert mm.queues() == mx.queues()

    @pytest.mark.parametrize("sim_backend", ["event", "fast"])
    @pytest.mark.parametrize("policy_backend", POLICY_KERNEL_NAMES)
    def test_full_sim_duplicate_sizes(self, sim_backend, policy_backend):
        # Duplicate-size workload through the whole simulation: equal-size
        # tasks must come off the sort in ascending-id order on every
        # backend combination, visible as FCFS placement in the trace.
        tasks = [Task(i, 10.0 + 5.0 * (i % 3)) for i in range(24)]
        cluster = homogeneous_cluster(4, 100.0, mean_comm_cost=0.0)
        scheduler = make_scheduler("MX", n_processors=4, batch_size=24, max_generations=5, rng=1)
        with policy_kernels_installed(POLICY_KERNELS[policy_backend]()), sim_path(sim_backend):
            result = simulate_schedule(scheduler, cluster, tasks, rng=2)
        trace_ids = result.trace.column("task_id")
        trace_procs = result.trace.column("proc_id")
        proc_of = dict(zip(trace_ids.tolist(), trace_procs.tolist()))
        # Recompute the documented placement from the reference kernel and
        # require the simulation to realise exactly it.
        sizes = np.array([t.size_mflops for t in tasks])
        ids = np.arange(len(tasks), dtype=np.int64)
        order, procs = LoopPolicyBackend().greedy_finish_batch(
            sizes, ids, np.zeros(4), np.full(4, 100.0), descending=True
        )
        expected = {int(ids[i]): int(p) for i, p in zip(order.tolist(), procs.tolist())}
        assert proc_of == expected


class TestBatchBoundaries:
    """`preferred_batch_size` at fast-path batch boundaries (MM, batch 200)."""

    @pytest.mark.parametrize("n_tasks", [199, 200, 201])
    def test_event_and_fast_agree_at_the_boundary(self, n_tasks):
        results = {}
        for sim_backend in SIM_PATHS:
            tasks = generate_workload(
                workload_by_name("normal", n_tasks), np.random.default_rng(7)
            )
            cluster = heterogeneous_cluster(
                5, mean_comm_cost=3.0, rng=np.random.default_rng(8)
            )
            scheduler = make_scheduler(
                "MM", n_processors=5, batch_size=200, max_generations=5, rng=9
            )
            with sim_path(sim_backend):
                results[sim_backend] = simulate_schedule(scheduler, cluster, tasks, rng=10)
        event, fast = results["event"], results["fast"]
        assert fast.makespan == event.makespan
        assert fast.batch_sizes == event.batch_sizes
        assert fast.scheduler_invocations == event.scheduler_invocations
        for name in ("task_id", "proc_id", "exec_start", "exec_end"):
            np.testing.assert_array_equal(
                fast.trace.column(name), event.trace.column(name), err_msg=name
            )
        # All tasks arrive at t=0, so the first invocation takes exactly
        # min(batch_size, n_tasks) and a 201st task forces a second batch.
        assert fast.batch_sizes[0] == min(200, n_tasks)
        assert sum(fast.batch_sizes) == n_tasks
        assert len(fast.batch_sizes) == (2 if n_tasks == 201 else 1)


class TestWaveVsPerTask:
    """Wave placement equals per-task placement, offline diversion included."""

    SCHEDULERS = ["EF", "LL", "RR", "MM", "MX"]

    def run(self, scheduler_name, policy_backend, sim_backend="fast", seed=21, failure=False):
        tasks = generate_workload(
            workload_by_name("poisson_small", 60), np.random.default_rng(seed)
        )
        cluster = heterogeneous_cluster(
            6, mean_comm_cost=4.0, rng=np.random.default_rng(seed + 1)
        )
        scheduler = make_scheduler(
            scheduler_name, n_processors=6, batch_size=16, max_generations=5, rng=seed + 2
        )
        # With *failure*, worker 2 fails for good: its queued tasks are
        # placed again, RR's rotation picks the failed worker for some of
        # them, and each such pick must be diverted exactly as per-task
        # placement diverts it.
        dynamics = DynamicsTimeline([WorkerFailure(time=FAILURE_TIME, proc=2)]) if failure else None
        with policy_kernels_installed(POLICY_KERNELS[policy_backend]()), sim_path(sim_backend):
            return simulate_schedule(scheduler, cluster, tasks, dynamics=dynamics, rng=seed + 3)

    @pytest.mark.parametrize("scheduler_name", SCHEDULERS)
    @pytest.mark.parametrize("sim_backend", ["event", "fast"])
    def test_policy_backends_bit_identical(self, scheduler_name, sim_backend):
        for failure in (False, True):
            loop = self.run(scheduler_name, "loop", sim_backend, failure=failure)
            vec = self.run(scheduler_name, "vectorized", sim_backend, failure=failure)
            assert vec.makespan == loop.makespan
            assert vec.efficiency == loop.efficiency
            assert vec.metrics.mean_response_time == loop.metrics.mean_response_time
            # The wave must mirror per-task bookkeeping exactly: N tasks
            # placed in one wave still count as N single-task invocations.
            assert vec.scheduler_invocations == loop.scheduler_invocations
            assert vec.batch_sizes == loop.batch_sizes
            assert vec.events_processed == loop.events_processed
            assert vec.metrics.dynamics.tasks_redirected == loop.metrics.dynamics.tasks_redirected
            for name in TRACE_COLUMNS:
                np.testing.assert_array_equal(
                    vec.trace.column(name), loop.trace.column(name), err_msg=name
                )
        if scheduler_name == "RR":
            assert vec.metrics.dynamics.tasks_redirected > 0

    def test_malformed_wave_is_rejected(self):
        class BrokenEF(ImmediateScheduler):
            name = "EF"

            def select_processors_wave(self, sizes, ctx):
                return np.full(len(sizes), 99, dtype=np.int64)  # out of range

        tasks = generate_workload(workload_by_name("normal", 10), np.random.default_rng(0))
        cluster = homogeneous_cluster(3, 100.0, mean_comm_cost=1.0)
        sim = DistributedSystemSimulation(
            BrokenEF(),
            cluster,
            tasks,
            config=SimulationConfig(),
            rng=1,
        )
        with pytest.raises(SimulationError, match="wave"):
            sim.run()


class TestBackendSelectionAndValidation:
    def test_backend_registry(self):
        assert POLICY_KERNEL_NAMES == ["loop", "vectorized"]
        assert isinstance(POLICY_KERNELS["loop"](), LoopPolicyBackend)
        assert isinstance(POLICY_KERNELS["vectorized"](), VectorizedPolicyBackend)
        for name, backend in POLICY_KERNELS.items():
            assert backend().name == name

    def test_default_backend_is_vectorized(self):
        assert isinstance(default_policy_kernels(), VectorizedPolicyBackend)
        assert default_policy_kernels().name == "vectorized"

    def test_context_resolves_default_and_validates_type(self):
        ctx = SchedulingContext(
            time=0.0,
            rates=np.array([10.0]),
            pending_loads=np.zeros(1),
            comm_costs=np.zeros(1),
        )
        assert ctx.kernels is default_policy_kernels()
        with pytest.raises(ConfigurationError, match="kernels"):
            SchedulingContext(
                time=0.0,
                rates=np.array([10.0]),
                pending_loads=np.zeros(1),
                comm_costs=np.zeros(1),
                kernels="vectorized",  # a name is not a backend instance
            )

    @pytest.mark.parametrize("scheduler_cls", [MinMinScheduler, MaxMinScheduler])
    def test_batch_schedulers_route_through_context_kernels(self, scheduler_cls):
        # The batch schedulers must take their kernels from the context, so
        # a loop-backend context really exercises the reference
        # implementation end to end.
        class Recording(LoopPolicyBackend):
            calls = 0

            def greedy_finish_batch(self, *args):
                Recording.calls += 1
                return super().greedy_finish_batch(*args)

        ctx = SchedulingContext(
            time=0.0,
            rates=np.array([10.0, 20.0]),
            pending_loads=np.zeros(2),
            comm_costs=np.zeros(2),
            kernels=Recording(),
        )
        tasks = [Task(i, float(5 + i)) for i in range(6)]
        assignment = scheduler_cls(batch_size=10).schedule(tasks, ctx)
        assert sorted(assignment.task_ids()) == list(range(6))
        assert Recording.calls == 1
