"""Tests for the master (scheduling host) and worker models."""

import numpy as np
import pytest

from repro.cluster import ConstantAvailability, Processor
from repro.schedulers import EarliestFirstScheduler, MinMinScheduler
from repro.sim import Master, WorkerState
from repro.util.errors import SimulationError
from repro.workloads import Task


def make_master(scheduler=None, n=3, rates=(10.0, 20.0, 40.0)):
    return Master(
        scheduler or EarliestFirstScheduler(),
        n_processors=n,
        initial_rates=np.asarray(rates, dtype=float),
        rng=0,
    )


class TestMasterQueues:
    def test_arrivals_join_unscheduled_queue(self):
        master = make_master()
        master.task_arrived(Task(0, 10.0))
        master.task_arrived(Task(1, 20.0))
        assert master.n_unscheduled == 2
        assert master.has_unscheduled()

    def test_run_scheduler_once_moves_tasks_to_proc_queues(self):
        master = make_master(scheduler=MinMinScheduler(batch_size=1))
        for i in range(5):
            master.task_arrived(Task(i, 100.0))
        assignment = master.run_scheduler_once(time=0.0)
        assert assignment.n_tasks == 1  # one batch of batch_size tasks per invocation
        assert master.n_unscheduled == 4
        assert master.pending_loads.sum() == pytest.approx(100.0)

    def test_schedule_all_available_drains_immediate_mode(self):
        master = make_master()
        for i in range(7):
            master.task_arrived(Task(i, 100.0))
        assigned = master.schedule_all_available(time=0.0)
        assert assigned == 7
        assert master.n_unscheduled == 0
        assert master.pending_loads.sum() == pytest.approx(700.0)

    def test_batch_mode_keeps_residual_unscheduled(self):
        master = make_master(scheduler=MinMinScheduler(batch_size=2), n=2, rates=(10.0, 10.0))
        for i in range(10):
            master.task_arrived(Task(i, 50.0))
        master.schedule_all_available(time=0.0)
        # batches of 2 are scheduled until no processor queue is empty, then it stops
        assert master.n_unscheduled > 0
        assert all(len(q) > 0 for q in master.proc_queues)

    def test_scheduler_invocations_counted(self):
        master = make_master()
        for i in range(3):
            master.task_arrived(Task(i, 10.0))
        master.schedule_all_available(time=0.0)
        assert master.invocations == 3
        assert master.batch_sizes == [1, 1, 1]

    def test_pop_task_for(self):
        master = make_master()
        master.task_arrived(Task(0, 10.0))
        master.schedule_all_available(time=0.0)
        proc = next(p for p in range(3) if master.queue_length(p) > 0)
        task = master.pop_task_for(proc)
        assert task.task_id == 0
        assert master.pop_task_for(proc) is None

    def test_assigned_time_recorded(self):
        master = make_master()
        master.task_arrived(Task(0, 10.0))
        master.schedule_all_available(time=3.5)
        assert master.assigned_time_of(0) == 3.5
        with pytest.raises(SimulationError):
            master.assigned_time_of(99)

    def test_empty_queue_scheduling_is_noop(self):
        master = make_master()
        assert master.run_scheduler_once(time=0.0) is None
        assert master.schedule_all_available(time=0.0) == 0


class TestMasterEstimates:
    def test_initial_rates_used_before_observations(self):
        master = make_master()
        assert master.estimated_rates().tolist() == [10.0, 20.0, 40.0]

    def test_rate_estimates_updated_from_completions(self):
        master = make_master()
        master.pending_loads[:] = [100.0, 0.0, 0.0]
        master.observe_completion(0, Task(0, 100.0), processing_time=20.0, time=20.0)
        assert master.estimated_rates()[0] == pytest.approx(5.0)
        assert master.pending_loads[0] == 0.0

    def test_comm_estimates_updated_from_dispatches(self):
        master = make_master()
        assert master.estimated_comm_costs().tolist() == [0.0, 0.0, 0.0]
        master.observe_dispatch(1, comm_cost=4.0, time=0.0)
        assert master.estimated_comm_costs()[1] == 4.0

    def test_context_reflects_estimates(self):
        master = make_master()
        master.observe_dispatch(0, comm_cost=2.0, time=0.0)
        ctx = master.build_context(time=1.0)
        assert ctx.time == 1.0
        assert ctx.comm_costs[0] == 2.0
        assert ctx.rates.tolist() == [10.0, 20.0, 40.0]

    def test_invalid_processor_index(self):
        master = make_master()
        with pytest.raises(SimulationError):
            master.observe_dispatch(9, 1.0, 0.0)

    def test_invalid_initial_rates(self):
        with pytest.raises(SimulationError):
            Master(EarliestFirstScheduler(), 2, initial_rates=np.array([1.0]))
        with pytest.raises(SimulationError):
            Master(EarliestFirstScheduler(), 2, initial_rates=np.array([1.0, 0.0]))


class TestWorkerState:
    def make_worker(self, rate=100.0, availability=None):
        proc = Processor(
            proc_id=0,
            peak_rate_mflops=rate,
            availability=availability or ConstantAvailability(1.0),
        )
        return WorkerState(processor=proc)

    def test_start_and_finish_task(self):
        worker = self.make_worker(rate=100.0)
        task = Task(0, 500.0)
        completion = worker.start_task(task, now=10.0, comm_cost=2.0)
        assert completion == pytest.approx(17.0)  # 10 + 2 + 500/100
        assert worker.is_busy
        finished = worker.finish_task(now=completion)
        assert finished is task
        assert not worker.is_busy
        assert worker.tasks_completed == 1

    def test_cannot_start_while_busy(self):
        worker = self.make_worker()
        worker.start_task(Task(0, 100.0), now=0.0, comm_cost=0.0)
        with pytest.raises(SimulationError):
            worker.start_task(Task(1, 100.0), now=0.0, comm_cost=0.0)

    def test_cannot_finish_before_completion_time(self):
        worker = self.make_worker()
        worker.start_task(Task(0, 100.0), now=0.0, comm_cost=0.0)
        with pytest.raises(SimulationError):
            worker.finish_task(now=0.1)

    def test_cannot_finish_without_task(self):
        with pytest.raises(SimulationError):
            self.make_worker().finish_task(now=1.0)

    def test_execution_rate_reflects_availability(self):
        worker = self.make_worker(rate=100.0, availability=ConstantAvailability(0.5))
        completion = worker.start_task(Task(0, 100.0), now=0.0, comm_cost=0.0)
        assert completion == pytest.approx(2.0)  # effective rate 50 Mflop/s

    def test_comm_seconds_accumulated(self):
        worker = self.make_worker()
        worker.start_task(Task(0, 100.0), now=0.0, comm_cost=3.0)
        assert worker.comm_seconds == 3.0

    def test_negative_comm_cost_rejected(self):
        with pytest.raises(SimulationError):
            self.make_worker().start_task(Task(0, 1.0), now=0.0, comm_cost=-1.0)

    def test_record_execution(self):
        worker = self.make_worker()
        worker.record_execution(2.5)
        assert worker.busy_seconds == 2.5
        with pytest.raises(SimulationError):
            worker.record_execution(-1.0)
