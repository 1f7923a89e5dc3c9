"""Tests for schedule validation."""

import pytest

from repro.analysis import validate_simulation, validate_trace
from repro.cluster import homogeneous_cluster
from repro.schedulers import EarliestFirstScheduler
from repro.sim import ExecutionTrace, TaskRecord, simulate_schedule
from repro.workloads import Task, TaskSet, UniformSizes, WorkloadSpec, generate_workload


def record(task_id=0, proc=0, size=100.0, dispatch=0.0, start=1.0, end=4.0, arrival=0.0):
    return TaskRecord(
        task_id=task_id,
        proc_id=proc,
        size_mflops=size,
        arrival_time=arrival,
        assigned_time=arrival,
        dispatch_time=dispatch,
        exec_start=start,
        exec_end=end,
    )


@pytest.fixture
def simple_trace():
    trace = ExecutionTrace(2)
    trace.add(record(task_id=0, proc=0, dispatch=0.0, start=1.0, end=5.0))
    trace.add(record(task_id=1, proc=1, dispatch=0.0, start=0.5, end=10.0))
    return trace


class TestValidateTrace:
    def test_clean_trace_passes(self, simple_trace):
        report = validate_trace(simple_trace)
        assert report.ok
        assert report.checks_run >= 3

    def test_duplicate_task_detected(self):
        trace = ExecutionTrace(1)
        trace.add(record(task_id=0, start=1.0, end=2.0))
        trace.add(record(task_id=0, start=3.0, end=4.0, dispatch=2.5))
        report = validate_trace(trace)
        assert not report.ok
        assert any(issue.code == "duplicate-task" for issue in report.issues)

    def test_overlap_detected(self):
        trace = ExecutionTrace(1)
        trace.add(record(task_id=0, start=1.0, end=5.0))
        trace.add(record(task_id=1, start=3.0, end=6.0, dispatch=2.0))
        report = validate_trace(trace)
        assert any(issue.code == "overlap" for issue in report.issues)

    def test_missing_task_detected(self):
        trace = ExecutionTrace(1)
        trace.add(record(task_id=0, size=10.0))
        tasks = TaskSet([Task(0, 10.0), Task(1, 20.0)])
        report = validate_trace(trace, tasks)
        assert any(issue.code == "missing-task" for issue in report.issues)

    def test_size_mismatch_detected(self):
        trace = ExecutionTrace(1)
        trace.add(record(task_id=0, size=999.0))
        report = validate_trace(trace, TaskSet([Task(0, 10.0)]))
        assert any(issue.code == "size-mismatch" for issue in report.issues)

    def test_summary_strings(self, simple_trace):
        report = validate_trace(simple_trace)
        assert "OK" in report.summary()


class TestValidateSimulation:
    def test_real_simulation_is_valid(self):
        cluster = homogeneous_cluster(3, rate_mflops=100.0, mean_comm_cost=0.5)
        tasks = generate_workload(WorkloadSpec(n_tasks=30, sizes=UniformSizes(10, 300)), rng=0)
        result = simulate_schedule(EarliestFirstScheduler(), cluster, tasks, rng=1)
        report = validate_simulation(result, tasks)
        assert report.ok, [str(i) for i in report.issues]

    def test_every_builtin_scheduler_produces_valid_schedules(self, small_cluster, small_tasks):
        from repro.schedulers import make_scheduler, ALL_SCHEDULER_NAMES

        for name in ALL_SCHEDULER_NAMES:
            scheduler = make_scheduler(
                name, n_processors=small_cluster.n_processors, batch_size=6, max_generations=5
            )
            result = simulate_schedule(scheduler, small_cluster, small_tasks, rng=3)
            report = validate_simulation(result, small_tasks)
            assert report.ok, (name, [str(i) for i in report.issues])
