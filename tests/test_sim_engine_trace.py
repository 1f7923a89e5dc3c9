"""Tests for the event queue, discrete-event engine, traces and metrics."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import (
    DiscreteEventEngine,
    Event,
    EventKind,
    EventQueue,
    ExecutionTrace,
    TaskRecord,
    compute_metrics,
)
from repro.util.errors import SimulationError


class TestEventQueue:
    def test_orders_by_time(self):
        q = EventQueue()
        q.push(Event.make(5.0, EventKind.TASK_ARRIVAL))
        q.push(Event.make(1.0, EventKind.TASK_ARRIVAL))
        q.push(Event.make(3.0, EventKind.TASK_ARRIVAL))
        assert [q.pop().time for _ in range(3)] == [1.0, 3.0, 5.0]

    def test_ties_broken_by_sequence_number(self):
        q = EventQueue()
        first = Event.make(1.0, EventKind.WORKER_FETCH, seq=0, proc=0)
        second = Event.make(1.0, EventKind.WORKER_FETCH, seq=1, proc=1)
        q.push(second)
        q.push(first)
        # sequence numbers, not push order, decide: first was created first
        assert q.pop().data["proc"] == 0

    def test_peek_does_not_remove(self):
        q = EventQueue()
        q.push(Event.make(1.0, EventKind.TASK_ARRIVAL))
        assert q.peek().time == 1.0
        assert len(q) == 1

    def test_pop_empty_raises(self):
        with pytest.raises(SimulationError):
            EventQueue().pop()

    def test_negative_time_rejected(self):
        with pytest.raises(SimulationError):
            Event.make(-1.0, EventKind.TASK_ARRIVAL)


class TestDiscreteEventEngine:
    def test_processes_in_time_order(self):
        engine = DiscreteEventEngine()
        seen = []
        engine.register(EventKind.TASK_ARRIVAL, lambda e: seen.append(e.time))
        engine.schedule(3.0, EventKind.TASK_ARRIVAL)
        engine.schedule(1.0, EventKind.TASK_ARRIVAL)
        end = engine.run()
        assert seen == [1.0, 3.0]
        assert end == 3.0
        assert engine.processed_events == 2

    def test_handlers_can_schedule_followups(self):
        engine = DiscreteEventEngine()
        seen = []

        def on_arrival(event):
            seen.append(("arrival", event.time))
            engine.schedule(event.time + 2.0, EventKind.TASK_COMPLETION)

        engine.register(EventKind.TASK_ARRIVAL, on_arrival)
        engine.register(EventKind.TASK_COMPLETION, lambda e: seen.append(("done", e.time)))
        engine.schedule(1.0, EventKind.TASK_ARRIVAL)
        engine.run()
        assert seen == [("arrival", 1.0), ("done", 3.0)]

    def test_cannot_schedule_in_the_past(self):
        engine = DiscreteEventEngine()
        engine.register(EventKind.TASK_ARRIVAL, lambda e: None)
        engine.schedule(5.0, EventKind.TASK_ARRIVAL)
        engine.run()
        with pytest.raises(SimulationError):
            engine.schedule(1.0, EventKind.TASK_ARRIVAL)

    def test_scheduling_without_handler_raises_immediately(self):
        engine = DiscreteEventEngine()
        with pytest.raises(SimulationError, match="no handler is registered"):
            engine.schedule(1.0, EventKind.TASK_ARRIVAL)

    def test_missing_handler_error_names_registered_kinds(self):
        engine = DiscreteEventEngine()
        engine.register(EventKind.TASK_ARRIVAL, lambda e: None)
        with pytest.raises(SimulationError, match="task_arrival"):
            engine.schedule(1.0, EventKind.WORKER_FAILURE)

    def test_sequence_numbers_are_per_engine(self):
        # Event seq counters must not leak across simulations in one process:
        # a fresh engine always starts numbering at zero.
        for _ in range(2):
            engine = DiscreteEventEngine()
            engine.register(EventKind.TASK_ARRIVAL, lambda e: None)
            event = engine.schedule(1.0, EventKind.TASK_ARRIVAL)
            assert event.seq == 0

    def test_cancelled_events_are_skipped(self):
        engine = DiscreteEventEngine()
        seen = []
        engine.register(EventKind.TASK_ARRIVAL, lambda e: seen.append(e.time))
        keep = engine.schedule(1.0, EventKind.TASK_ARRIVAL)
        drop = engine.schedule(2.0, EventKind.TASK_ARRIVAL)
        engine.cancel(drop)
        engine.run()
        assert seen == [keep.time]
        assert engine.processed_events == 1

    def test_event_budget_guards_against_storms(self):
        engine = DiscreteEventEngine(max_events=10)
        engine.register(
            EventKind.TASK_ARRIVAL,
            lambda e: engine.schedule(e.time + 1.0, EventKind.TASK_ARRIVAL),
        )
        engine.schedule(0.0, EventKind.TASK_ARRIVAL)
        with pytest.raises(SimulationError):
            engine.run()


class TestCancellation:
    def test_peek_skips_cancelled_head(self):
        # Regression: peek() must apply the same tombstone skipping as pop(),
        # otherwise a cancelled head event masks the next live one.
        engine = DiscreteEventEngine()
        engine.register(EventKind.TASK_ARRIVAL, lambda e: None)
        doomed = engine.schedule(1.0, EventKind.TASK_ARRIVAL)
        live = engine.schedule(2.0, EventKind.TASK_ARRIVAL)
        engine.cancel(doomed)
        peeked = engine.queue.peek()
        assert peeked.seq == live.seq
        assert peeked.time == 2.0
        assert engine.queue.pop().seq == live.seq

    def test_len_and_bool_ignore_tombstones(self):
        engine = DiscreteEventEngine()
        engine.register(EventKind.TASK_ARRIVAL, lambda e: None)
        only = engine.schedule(1.0, EventKind.TASK_ARRIVAL)
        engine.cancel(only)
        assert len(engine.queue) == 0
        assert not engine.queue

    def test_len_counts_out_non_head_tombstones(self):
        engine = DiscreteEventEngine()
        engine.register(EventKind.TASK_ARRIVAL, lambda e: None)
        engine.schedule(1.0, EventKind.TASK_ARRIVAL)
        doomed = engine.schedule(2.0, EventKind.TASK_ARRIVAL)
        engine.cancel(doomed)
        assert len(engine.queue) == 1  # the cancelled tail event is not live

    def test_stale_cancel_is_harmless_and_pruned(self):
        engine = DiscreteEventEngine()
        seen = []
        engine.register(EventKind.TASK_ARRIVAL, lambda e: seen.append(e.time))
        done = engine.schedule(1.0, EventKind.TASK_ARRIVAL)
        engine.run()
        engine.cancel(done)  # already processed: must not affect anything
        engine.cancel(done)
        live = engine.schedule(2.0, EventKind.TASK_ARRIVAL)
        assert len(engine.queue) == 1  # prunes the stale tombstone
        assert engine.queue._tombstones == set()
        assert engine.queue.pop().seq == live.seq

    def test_cancel_all_leaves_empty_queue(self):
        engine = DiscreteEventEngine()
        engine.register(EventKind.TASK_ARRIVAL, lambda e: None)
        events = [engine.schedule(float(t), EventKind.TASK_ARRIVAL) for t in range(5)]
        for event in events:
            engine.cancel(event)
        assert engine.run() == 0.0
        assert engine.processed_events == 0

    @settings(max_examples=60, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(
                st.floats(0.0, 100.0, allow_nan=False, width=32),
                st.booleans(),  # cancel an (arbitrary) earlier event first?
                st.integers(0, 10**6),
            ),
            min_size=1,
            max_size=40,
        )
    )
    def test_property_order_deterministic_under_schedule_cancel(self, ops):
        """Two engines fed the same interleaved schedule/cancel sequence
        process exactly the same events in exactly the same order."""

        def drive(engine):
            processed = []
            engine.register(
                EventKind.TASK_ARRIVAL, lambda e: processed.append((e.time, e.seq))
            )
            scheduled = []
            for time, cancel_first, pick in ops:
                if cancel_first and scheduled:
                    engine.cancel(scheduled[pick % len(scheduled)])
                scheduled.append(engine.schedule(time, EventKind.TASK_ARRIVAL))
            engine.run()
            return processed

        first = drive(DiscreteEventEngine())
        second = drive(DiscreteEventEngine())
        assert first == second
        # Processed events are in strict (time, seq) order and unique.
        assert first == sorted(first)
        assert len(set(first)) == len(first)


def record(
    task_id=0, proc=0, size=100.0, arrival=0.0, assigned=0.0, dispatch=1.0, start=2.0, end=5.0
):
    return TaskRecord(
        task_id=task_id,
        proc_id=proc,
        size_mflops=size,
        arrival_time=arrival,
        assigned_time=assigned,
        dispatch_time=dispatch,
        exec_start=start,
        exec_end=end,
    )


class TestTaskRecord:
    def test_derived_durations(self):
        r = record()
        assert r.comm_time == pytest.approx(1.0)
        assert r.exec_time == pytest.approx(3.0)
        assert r.queue_wait == pytest.approx(1.0)
        assert r.response_time == pytest.approx(5.0)

    def test_inconsistent_times_rejected(self):
        with pytest.raises(SimulationError):
            record(start=10.0, end=5.0)
        with pytest.raises(SimulationError):
            record(dispatch=0.5, assigned=1.0)


class TestExecutionTrace:
    def test_accumulates_per_processor(self):
        trace = ExecutionTrace(2)
        trace.add(record(task_id=0, proc=0))
        trace.add(record(task_id=1, proc=1, dispatch=1.0, start=1.5, end=2.5))
        assert len(trace) == 2
        assert trace.busy_seconds().tolist() == [3.0, 1.0]
        assert trace.comm_seconds().tolist() == [1.0, 0.5]
        assert trace.tasks_per_processor().tolist() == [1, 1]
        assert trace.completion_time() == 5.0

    def test_record_lookup(self):
        trace = ExecutionTrace(1)
        trace.add(record(task_id=7))
        assert trace.record_of(7).task_id == 7
        with pytest.raises(SimulationError):
            trace.record_of(8)

    def test_invalid_processor_rejected(self):
        trace = ExecutionTrace(1)
        with pytest.raises(SimulationError):
            trace.add(record(proc=3))

    def test_records_for_processor(self):
        trace = ExecutionTrace(2)
        trace.add(record(task_id=0, proc=1))
        assert trace.records_for(0) == []
        assert len(trace.records_for(1)) == 1


class TestComputeMetrics:
    def test_single_processor_fully_busy(self):
        trace = ExecutionTrace(1)
        trace.add(record(task_id=0, dispatch=0.0, start=0.0, end=5.0))
        metrics = compute_metrics(trace)
        assert metrics.makespan == 5.0
        assert metrics.efficiency == pytest.approx(1.0)
        assert metrics.tasks_completed == 1

    def test_efficiency_definition(self):
        # two processors, makespan 10, busy 5 + 10 => efficiency 15/20
        trace = ExecutionTrace(2)
        trace.add(record(task_id=0, proc=0, dispatch=0.0, start=0.0, end=5.0))
        trace.add(record(task_id=1, proc=1, dispatch=0.0, start=0.0, end=10.0))
        metrics = compute_metrics(trace)
        assert metrics.makespan == 10.0
        assert metrics.efficiency == pytest.approx(0.75)
        assert metrics.idle_fraction == pytest.approx(0.25)

    def test_communication_fraction(self):
        trace = ExecutionTrace(1)
        trace.add(record(task_id=0, dispatch=0.0, start=2.0, end=10.0))
        metrics = compute_metrics(trace)
        assert metrics.communication_fraction == pytest.approx(0.2)
        assert metrics.efficiency == pytest.approx(0.8)

    def test_per_processor_stats(self):
        trace = ExecutionTrace(2)
        trace.add(record(task_id=0, proc=0, size=123.0, dispatch=0.0, start=0.0, end=4.0))
        trace.add(record(task_id=1, proc=1, size=7.0, dispatch=0.0, start=0.0, end=8.0))
        metrics = compute_metrics(trace)
        assert metrics.per_processor[0].mflops_processed == 123.0
        assert metrics.per_processor[0].utilisation == pytest.approx(0.5)
        assert metrics.per_processor[1].utilisation == pytest.approx(1.0)

    def test_summary_keys(self):
        trace = ExecutionTrace(1)
        trace.add(record())
        summary = compute_metrics(trace).summary()
        for key in ("makespan", "efficiency", "tasks_completed", "mean_response_time"):
            assert key in summary

    def test_empty_trace_rejected(self):
        with pytest.raises(SimulationError):
            compute_metrics(ExecutionTrace(1))
