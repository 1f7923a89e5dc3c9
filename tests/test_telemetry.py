"""Tests for the telemetry subsystem: spans, metrics, forwarding, CLI.

The two contracts the rest of the repo depends on are pinned here:

* **RNG-inertness** — enabling telemetry changes no result bit, on either
  simulation backend and under every executor;
* **tree integrity** — the span tree stays structurally sound (unique ids,
  resolvable parents) when worker snapshots are merged back across process
  boundaries.
"""

import hashlib
import json
import time

import numpy as np
import pytest

from repro.cli import main
from repro.parallel import executor_from_jobs
from repro.parallel.async_executor import AsyncWorkStealingExecutor
from repro.schedulers import EarliestFirstScheduler, MinMinScheduler
from repro.sim import SimulationConfig, simulate_schedule
from repro.telemetry import (
    MAX_SPANS,
    MetricsRegistry,
    PhaseTimer,
    TelemetrySession,
    Telemetered,
    WorkerTelemetry,
    configure_logging,
    content_run_id,
    critical_path,
    get_session,
    load_run_jsonl,
    render_tree,
    span,
    summarize_spans,
    telemetry_session,
    top_spans,
    traced,
    unwrap,
    validate_span_tree,
    wrap_jobs_fn,
    write_run_jsonl,
)
from repro.util.errors import ConfigurationError


@pytest.fixture(autouse=True)
def _no_session_leak():
    """Every test must leave the process with telemetry disabled."""
    assert get_session() is None
    yield
    assert get_session() is None


def _traced_square(x: int) -> int:
    """Module-level (picklable) worker that records one span per job."""
    with span(f"job:{x}", x=x):
        return x * x


class TestSpans:
    def test_spans_nest_parent_child(self):
        session = TelemetrySession()
        with session.span("root"):
            with session.span("child"):
                pass
        by_name = {s.name: s for s in session.spans}
        assert by_name["child"].parent_id == by_name["root"].span_id
        assert by_name["root"].parent_id is None
        assert validate_span_tree(session.spans) == []

    def test_record_span_attaches_to_open_span(self):
        session = TelemetrySession()
        with session.span("root"):
            child_id = session.record_span("phase:x", 0.5, count=3)
        root = next(s for s in session.spans if s.name == "root")
        child = next(s for s in session.spans if s.span_id == child_id)
        assert child.parent_id == root.span_id
        assert child.duration == 0.5
        assert child.attrs["count"] == 3

    def test_record_span_explicit_parent(self):
        session = TelemetrySession()
        parent = session.record_span("a", 0.1)
        child = session.record_span("b", 0.1, parent_id=parent)
        orphanless = session.record_span("c", 0.1, parent_id=None)
        spans = {s.span_id: s for s in session.spans}
        assert spans[child].parent_id == parent
        assert spans[orphanless].parent_id is None

    def test_span_cap_counts_drops(self):
        session = TelemetrySession(max_spans=2)
        for i in range(5):
            session.record_span(f"s{i}", 0.0)
        assert len(session.spans) == 2
        assert session.dropped_spans == 3

    def test_module_span_is_noop_when_disabled(self):
        first = span("anything")
        second = span("else")
        assert first is second  # the shared singleton: no allocation per call
        with first:
            pass

    def test_module_span_records_when_enabled(self):
        with telemetry_session() as session:
            with span("outer", tag=1):
                with span("inner"):
                    pass
        names = [s.name for s in session.spans]
        assert "outer" in names and "inner" in names
        assert validate_span_tree(session.spans) == []

    def test_telemetry_session_restores_previous(self):
        with telemetry_session() as outer:
            assert get_session() is outer
            with telemetry_session() as inner:
                assert get_session() is inner
            assert get_session() is outer

    def test_traced_decorator(self):
        @traced("my-op")
        def compute(x):
            return x + 1

        with telemetry_session() as session:
            assert compute(1) == 2
        assert [s.name for s in session.spans] == ["my-op"]

    def test_span_closed_on_exception(self):
        with telemetry_session() as session:
            with pytest.raises(ValueError):
                with span("failing"):
                    raise ValueError("boom")
        assert [s.name for s in session.spans] == ["failing"]
        assert session.current_span_id is None


class TestPhaseTimer:
    def test_record_total_count(self):
        timer = PhaseTimer()
        timer.record("phase", 1.0)
        timer.record("phase", 2.0)
        assert timer.total("phase") == 3.0
        assert timer.count("phase") == 2
        assert timer.total("missing") == 0.0
        assert timer.grand_total() == 3.0

    def test_measure_context_manager(self):
        timer = PhaseTimer()
        with timer.measure("body"):
            time.sleep(0.005)
        assert timer.total("body") >= 0.004
        assert timer.count("body") == 1

    def test_flush_disabled_is_noop(self):
        timer = PhaseTimer()
        timer.record("a", 1.0)
        assert timer.flush("run") is None

    def test_flush_emits_subtree(self):
        timer = PhaseTimer()
        timer.record("fitness", 1.0)
        timer.record("selection", 0.5)
        with telemetry_session() as session:
            parent = timer.flush("ga:evolve", generations=7)
        spans = {s.name: s for s in session.spans}
        assert spans["ga:evolve"].span_id == parent
        assert spans["ga:evolve"].attrs["generations"] == 7
        assert spans["ga:evolve"].duration == 1.5
        assert spans["phase:fitness"].parent_id == parent
        assert spans["phase:selection"].attrs["count"] == 1
        assert validate_span_tree(session.spans) == []


class TestMetrics:
    def test_counter_gauge(self):
        registry = MetricsRegistry()
        registry.counter("hits").inc()
        registry.counter("hits").inc(4)
        registry.gauge("depth").set(17)
        snap = registry.snapshot()
        assert snap["counters"]["hits"] == 5.0
        assert snap["gauges"]["depth"] == 17.0
        assert len(registry) == 2

    def test_histogram_binning(self):
        registry = MetricsRegistry()
        hist = registry.histogram("sizes", edges=[1.0, 10.0, 100.0])
        hist.observe(0.5)
        hist.observe_many([5, 50, 500])
        assert hist.total == 4
        assert hist.mean == pytest.approx((0.5 + 5 + 50 + 500) / 4)
        # Bins: (-inf,1], (1,10], (10,100], overflow.
        assert hist.counts.tolist() == [1, 1, 1, 1]

    def test_histogram_observe_many_empty(self):
        hist = MetricsRegistry().histogram("empty")
        hist.observe_many([])
        assert hist.total == 0 and hist.mean == 0.0

    def test_merge_adds_counters_and_bins(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("n").inc(2)
        b.counter("n").inc(3)
        a.histogram("h", edges=[1.0, 2.0]).observe(1.5)
        b.histogram("h", edges=[1.0, 2.0]).observe(1.5)
        b.gauge("g").set(9)
        a.merge(b.snapshot())
        snap = a.snapshot()
        assert snap["counters"]["n"] == 5.0
        assert snap["gauges"]["g"] == 9.0
        assert snap["histograms"]["h"]["counts"] == [0, 2, 0]
        assert snap["histograms"]["h"]["total"] == 2

    def test_merge_mismatched_edges_folds_totals_only(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.histogram("h", edges=[1.0]).observe(0.5)
        b.histogram("h", edges=[1.0, 2.0]).observe(0.5)
        a.merge(b.snapshot())
        hist = a.histogram("h")
        assert hist.total == 2
        assert hist.counts.tolist() == [1, 0]  # foreign bins not summed

    def test_summary_rows_sorted_kinds(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.gauge("g").set(1)
        registry.histogram("h").observe(1)
        kinds = [row["kind"] for row in registry.summary_rows()]
        assert kinds == ["counter", "gauge", "histogram"]


class TestSnapshotMerge:
    def test_merge_remaps_ids_and_attributes_worker(self):
        worker = TelemetrySession()
        with worker.span("cell"):
            worker.record_span("phase:a", 0.1)
        worker.metrics.counter("sim.runs").inc()
        snapshot = worker.snapshot(worker="pid-999")

        driver = TelemetrySession()
        with driver.span("campaign"):
            driver.merge_snapshot(snapshot)
        assert validate_span_tree(driver.spans) == []
        campaign = next(s for s in driver.spans if s.name == "campaign")
        cell = next(s for s in driver.spans if s.name == "cell")
        phase = next(s for s in driver.spans if s.name == "phase:a")
        assert cell.parent_id == campaign.span_id
        assert phase.parent_id == cell.span_id
        assert cell.worker == "pid-999" and phase.worker == "pid-999"
        assert campaign.worker == ""
        assert driver.metrics.snapshot()["counters"]["sim.runs"] == 1.0

    def test_merge_without_open_span_yields_extra_roots(self):
        worker = TelemetrySession()
        with worker.span("cell"):
            pass
        driver = TelemetrySession()
        driver.merge_snapshot(worker.snapshot(worker="pid-1"))
        cell = next(s for s in driver.spans if s.name == "cell")
        assert cell.parent_id is None
        assert validate_span_tree(driver.spans) == []

    def test_wrap_jobs_fn_identity_when_disabled(self):
        assert wrap_jobs_fn(_traced_square) is _traced_square

    def test_worker_wrapper_roundtrip(self):
        with telemetry_session() as session:
            wrapped = wrap_jobs_fn(_traced_square)
            assert isinstance(wrapped, WorkerTelemetry)
            envelope = wrapped(3)
            assert isinstance(envelope, Telemetered)
            assert unwrap(envelope) == 9
            # After the worker call the driver session is active again.
            assert get_session() is session
        assert any(s.name == "job:3" for s in session.spans)

    def test_unwrap_is_identity_for_plain_values(self):
        assert unwrap(41) == 41


class TestJsonlRoundTrip:
    def test_round_trip(self, tmp_path):
        session = TelemetrySession()
        with session.span("root", k="v"):
            session.record_span("leaf", 0.25)
        session.metrics.counter("n").inc(3)
        session.metrics.histogram("h", edges=[1.0, 2.0]).observe(1.5)
        path = str(tmp_path / "run.jsonl")
        run_id = write_run_jsonl(path, session, meta={"command": "test", "seed": 1})

        run = load_run_jsonl(path)
        assert run["run_id"] == run_id == content_run_id({"command": "test", "seed": 1})
        assert run["meta"] == {"command": "test", "seed": 1}
        assert run["dropped_spans"] == 0
        assert [s.to_dict() for s in run["spans"]] == [
            s.to_dict() for s in sorted(session.spans, key=lambda s: s.span_id)
        ]
        assert run["metrics"]["counters"]["n"] == 3.0
        assert run["metrics"]["histograms"]["h"]["total"] == 1

    def test_run_id_is_content_addressed(self, tmp_path):
        a = write_run_jsonl(str(tmp_path / "a.jsonl"), TelemetrySession(), meta={"s": 1})
        b = write_run_jsonl(str(tmp_path / "b.jsonl"), TelemetrySession(), meta={"s": 1})
        c = write_run_jsonl(str(tmp_path / "c.jsonl"), TelemetrySession(), meta={"s": 2})
        assert a == b != c

    def test_load_rejects_non_run_files(self, tmp_path):
        path = tmp_path / "bogus.jsonl"
        path.write_text(json.dumps({"kind": "something"}) + "\n")
        with pytest.raises(ConfigurationError):
            load_run_jsonl(str(path))
        with pytest.raises(ConfigurationError):
            load_run_jsonl(str(tmp_path / "missing.jsonl"))

    def test_load_rejects_future_format(self, tmp_path):
        path = tmp_path / "future.jsonl"
        path.write_text(json.dumps({"kind": "telemetry_run", "format_version": 99}) + "\n")
        with pytest.raises(ConfigurationError):
            load_run_jsonl(str(path))


def _sim_digest(result) -> str:
    """Digest of every deterministic (machine-independent) result field."""
    h = hashlib.sha256()
    trace = result.trace
    for name in ("task_id", "proc_id", "arrival_time", "exec_start", "exec_end"):
        h.update(trace.column(name).tobytes())
    h.update(repr((result.makespan, result.efficiency)).encode())
    h.update(repr(result.metrics.mean_response_time).encode())
    h.update(repr((result.scheduler_invocations, result.events_processed)).encode())
    return h.hexdigest()


class TestRNGInertness:
    """Enabling telemetry must not change a single result bit."""

    @pytest.mark.parametrize("backend", ["fast", "event"])
    def test_sim_bit_identical_enabled_vs_disabled(
        self, backend, small_cluster, small_tasks
    ):
        config = SimulationConfig(sim_backend=backend)

        def run():
            return simulate_schedule(
                MinMinScheduler(batch_size=4), small_cluster, small_tasks,
                config=config, rng=7,
            )

        baseline = _sim_digest(run())
        with telemetry_session() as session:
            observed = _sim_digest(run())
        assert observed == baseline
        assert any(s.name == "sim:run" for s in session.spans)
        # And a run after the session closes matches too (no sticky state).
        assert _sim_digest(run()) == baseline

    @pytest.mark.parametrize("backend", ["fast", "event"])
    def test_phase_seconds_only_appear_when_observed(
        self, backend, small_cluster, small_tasks
    ):
        config = SimulationConfig(sim_backend=backend)
        plain = simulate_schedule(
            EarliestFirstScheduler(), small_cluster, small_tasks, config=config, rng=1
        )
        assert plain.phase_seconds == {}
        with telemetry_session():
            observed = simulate_schedule(
                EarliestFirstScheduler(), small_cluster, small_tasks,
                config=config, rng=1,
            )
        assert observed.phase_seconds  # telemetry implies phase attribution

    def test_sim_metrics_recorded(self, small_cluster, small_tasks):
        with telemetry_session() as session:
            simulate_schedule(
                EarliestFirstScheduler(), small_cluster, small_tasks, rng=1
            )
        counters = session.metrics.snapshot()["counters"]
        assert counters["sim.runs"] == 1.0
        assert counters["sim.events_processed"] > 0


class TestExecutorForwarding:
    """Span-tree integrity across serial / process / async executors."""

    @pytest.mark.parametrize("kind", ["serial", "process", "async"])
    def test_results_and_tree_integrity(self, kind):
        jobs = list(range(8))
        expected = [x * x for x in jobs]
        with telemetry_session() as session:
            with span("root"):
                with executor_from_jobs(2, kind) as executor:
                    results = executor.map(_traced_square, jobs)
        assert results == expected
        assert validate_span_tree(session.spans) == []
        root = next(s for s in session.spans if s.name == "root")
        job_spans = [s for s in session.spans if s.name.startswith("job:")]
        assert len(job_spans) == len(jobs)
        assert all(s.parent_id == root.span_id for s in job_spans)
        if kind == "serial":
            assert all(s.worker == "" for s in job_spans)
        else:
            assert all(s.worker.startswith("pid-") for s in job_spans)

    def test_async_steal_counter_merges(self):
        # Uneven jobs with a tiny block size force steals often enough; the
        # counter only appears when a steal actually happened, so assert the
        # invariant (session counter == executor delta) rather than > 0.
        executor = AsyncWorkStealingExecutor(2, block_size=1)
        with telemetry_session() as session:
            with executor:
                executor.map(_traced_square, list(range(16)))
        counters = session.metrics.snapshot()["counters"]
        assert counters.get("executor.steals", 0.0) == float(executor.steals)

    def test_disabled_executor_passes_plain_results(self):
        with executor_from_jobs(2, "process") as executor:
            results = executor.map(_traced_square, list(range(4)))
        assert results == [0, 1, 4, 9]


class TestCliTelemetry:
    def _scenario_args(self, tmp_path):
        return [
            "scenarios", "run", "failure-storm",
            "--scale", "smoke", "--repeats", "1", "--schedulers", "LL",
            "--telemetry", str(tmp_path / "run.jsonl"),
        ]

    def test_export_and_introspection_commands(self, tmp_path, capsys):
        assert main(self._scenario_args(tmp_path)) == 0
        path = str(tmp_path / "run.jsonl")
        run = load_run_jsonl(path)
        assert run["meta"]["command"] == "scenarios"
        assert validate_span_tree(run["spans"]) == []
        capsys.readouterr()

        assert main(["telemetry", "summarize", path]) == 0
        out = capsys.readouterr().out
        assert "hot phases" in out and "critical path" in out
        assert "sim.runs" in out

        assert main(["telemetry", "tree", path, "--max-depth", "1"]) == 0
        out = capsys.readouterr().out
        assert "scenarios:matrix" in out

        assert main(["telemetry", "top", path, "--limit", "2"]) == 0
        out = capsys.readouterr().out
        assert "top 2 spans" in out

    def test_telemetry_flag_does_not_change_stdout(self, tmp_path, capsys):
        args = [
            "scenarios", "run", "failure-storm",
            "--scale", "smoke", "--repeats", "1", "--schedulers", "LL",
        ]

        def deterministic(text):
            # Strip the two machine-dependent table columns (wall-clock
            # seconds and events/sec); everything else must be identical.
            return [line.rsplit("|", 2)[0] for line in text.splitlines()]

        assert main(args) == 0
        plain = capsys.readouterr().out
        assert main(args + ["--telemetry", str(tmp_path / "t.jsonl")]) == 0
        observed = capsys.readouterr().out
        assert deterministic(observed) == deterministic(plain)

    def test_summarize_missing_file_errors(self, tmp_path, capsys):
        assert main(["telemetry", "summarize", str(tmp_path / "nope.jsonl")]) == 2
        assert "error:" in capsys.readouterr().err


class TestStructuredLogging:
    def test_log_json_emits_json_lines(self, capsys):
        logger = configure_logging(level="info", json_output=True)
        logger.info("hello %s", "world")
        line = capsys.readouterr().err.strip().splitlines()[-1]
        payload = json.loads(line)
        assert payload["message"] == "hello world"
        assert payload["level"] == "info"
        assert payload["logger"] == "repro"
        configure_logging(level="info")  # restore the text handler

    def test_configure_logging_is_idempotent(self):
        logger = configure_logging(level="warning")
        configure_logging(level="warning")
        assert len(logger.handlers) == 1
        configure_logging(level="info")

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError):
            configure_logging(level="loud")

    def test_cli_log_level_silences_progress(self, capsys):
        args = [
            "--log-level", "warning",
            "scenarios", "run", "failure-storm",
            "--scale", "smoke", "--repeats", "1", "--schedulers", "LL",
        ]
        assert main(args) == 0
        captured = capsys.readouterr()
        assert "scenario matrix" not in captured.err
        configure_logging(level="info")


class TestCampaignTelemetry:
    def test_campaign_spans_cover_cells(self, tmp_path):
        from repro.campaigns import CampaignSpec, ResultStore, run_campaign

        spec = CampaignSpec(
            name="tel-test", scale="smoke", seed=5,
            scenarios=("failure-storm",), schedulers=("LL", "EF"), repeats=1,
        )
        store = ResultStore(str(tmp_path / "store"))
        with telemetry_session() as session:
            result = run_campaign(spec, store)
        assert result.complete
        assert validate_span_tree(session.spans) == []
        root = next(s for s in session.spans if s.name == "campaign:tel-test")
        cells = [s for s in session.spans if s.name.startswith("cell:")]
        assert len(cells) == result.computed
        assert all(s.parent_id == root.span_id for s in cells)
        counters = session.metrics.snapshot()["counters"]
        assert counters["campaign.cells_computed"] == float(result.computed)

    def test_introspection_helpers_on_real_tree(self, tmp_path, small_cluster, small_tasks):
        with telemetry_session() as session:
            with span("outer"):
                simulate_schedule(
                    EarliestFirstScheduler(), small_cluster, small_tasks, rng=2
                )
        rows = summarize_spans(session.spans)
        assert rows[0]["name"] == "outer"
        assert rows[0]["share"] == pytest.approx(1.0)
        path = critical_path(session.spans)
        assert path[0].name == "outer"
        rendered = render_tree(session.spans)
        assert rendered.startswith("outer")
        assert top_spans(session.spans, limit=1)[0].name == "outer"

    def test_session_cap_is_sane(self):
        assert TelemetrySession().max_spans == MAX_SPANS


def _raw_span(name, span_id, parent_id=None, duration=0.0):
    from repro.telemetry.spans import Span

    return Span(
        name=name, span_id=span_id, parent_id=parent_id, start=0.0,
        duration=duration,
    )


class TestAdversarialTrees:
    """Malformed span trees must be *reported*, never hung or crashed on.

    Worker merge bugs, truncated exports and hand-edited JSONL all reach
    the introspection helpers eventually; each helper has to degrade to a
    diagnostic, not a traceback (or worse, an infinite parent walk).
    """

    def test_orphan_parent_is_flagged_and_tolerated(self):
        spans = [_raw_span("root", 0, duration=1.0), _raw_span("lost", 5, parent_id=99)]
        problems = validate_span_tree(spans)
        assert any("missing parent 99" in p for p in problems)
        # Introspection treats the orphan as a root instead of dying.
        assert render_tree(spans).splitlines()[1].startswith("lost")
        assert [s.name for s in critical_path(spans)] == ["root"]

    def test_duplicate_ids_flagged(self):
        spans = [_raw_span("a", 1), _raw_span("b", 1)]
        problems = validate_span_tree(spans)
        assert any("duplicate span id 1" in p for p in problems)

    def test_self_parent_flagged_no_hang(self):
        spans = [_raw_span("loop", 3, parent_id=3, duration=1.0)]
        problems = validate_span_tree(spans)
        assert any("its own parent" in p for p in problems)
        assert critical_path(spans) == []  # no root to start from; no hang

    def test_parent_cycle_flagged_no_hang(self):
        # a -> b -> a: any cycle forces some parent_id >= child id, which the
        # precedes-parent check catches; the walkers must also terminate.
        spans = [
            _raw_span("a", 0, parent_id=1, duration=0.5),
            _raw_span("b", 1, parent_id=0, duration=0.5),
        ]
        problems = validate_span_tree(spans)
        assert any("precedes its parent" in p for p in problems)
        assert critical_path(spans) == []
        from repro.telemetry.diff import aggregate_by_path

        assert len(aggregate_by_path(spans)) == 2

    def test_zero_duration_run_summarizes_without_dividing(self):
        spans = [_raw_span("root", 0), _raw_span("leaf", 1, parent_id=0)]
        assert validate_span_tree(spans) == []
        rows = summarize_spans(spans)
        assert all(row["share"] == 0.0 for row in rows)
        assert [s.name for s in critical_path(spans)] == ["root", "leaf"]

    def test_empty_input_everywhere(self):
        assert validate_span_tree([]) == []
        assert summarize_spans([]) == []
        assert critical_path([]) == []
        assert render_tree([]) == "(no spans)"


class TestResourceAttribution:
    def test_probe_sample_and_delta(self):
        from repro.telemetry.resources import ResourceProbe, gc_collections, rss_bytes

        probe = ResourceProbe()
        before = probe.sample()
        # Burn a little CPU + allocate so the monotone counters can move.
        sum(i * i for i in range(200_000))
        after = probe.sample()
        cpu, rss, gcs = ResourceProbe.delta(before, after)
        assert cpu >= 0.0 and gcs >= 0
        assert rss_bytes() > 0  # Linux CI: statm is available
        assert gc_collections() >= 0
        # Clamping: a reversed pair never yields negative cpu/gc.
        assert ResourceProbe.delta(after, before)[0] == 0.0
        assert ResourceProbe.delta(after, before)[2] == 0

    def test_spans_capture_resources_only_when_asked(self):
        def busy():
            with span("busy"):
                return sum(i * i for i in range(300_000))

        with telemetry_session(TelemetrySession()) as plain:
            busy()
        busy_plain = next(s for s in plain.spans if s.name == "busy")
        assert busy_plain.cpu_time == 0.0
        assert busy_plain.rss_delta == 0 and busy_plain.gc_collections == 0

        with telemetry_session(TelemetrySession(capture_resources=True)) as captured:
            busy()
        busy_cap = next(s for s in captured.spans if s.name == "busy")
        assert busy_cap.cpu_time > 0.0

    def test_resource_columns_round_trip_jsonl(self, tmp_path):
        session = TelemetrySession(capture_resources=True)
        with session.span("work"):
            sum(i * i for i in range(100_000))
        path = str(tmp_path / "run.jsonl")
        write_run_jsonl(path, session, meta={"t": 1})
        run = load_run_jsonl(path)
        assert run["format_version"] == 2
        loaded = run["spans"][0]
        original = session.spans[0]
        assert loaded.cpu_time == original.cpu_time
        assert loaded.rss_delta == original.rss_delta
        assert loaded.gc_collections == original.gc_collections

    def test_v1_exports_load_with_zeroed_resources(self, tmp_path):
        # A hand-written version-1 file: span lines lack the resource keys.
        path = tmp_path / "v1.jsonl"
        lines = [
            {"kind": "telemetry_run", "format_version": 1, "run_id": "tr-old",
             "meta": {"legacy": True}, "n_spans": 1, "dropped_spans": 0},
            {"kind": "span", "name": "old", "span_id": 0, "parent_id": None,
             "start": 0.0, "duration": 1.5, "worker": "", "attrs": {}},
            {"kind": "metrics", "counters": {}, "gauges": {}, "histograms": {}},
        ]
        path.write_text("".join(json.dumps(line) + "\n" for line in lines))
        run = load_run_jsonl(str(path))
        assert run["format_version"] == 1
        old = run["spans"][0]
        assert old.duration == 1.5
        assert old.cpu_time == 0.0
        assert old.rss_delta == 0 and old.gc_collections == 0
        # And a v1 run stays diffable against a fresh v2 run.
        from repro.telemetry import diff_runs

        fresh = TelemetrySession(capture_resources=True)
        with fresh.span("old"):
            pass
        v2path = str(tmp_path / "v2.jsonl")
        write_run_jsonl(v2path, fresh, meta={"legacy": False})
        diff = diff_runs(run, load_run_jsonl(v2path))
        assert diff.node("old") is not None

    def test_top_spans_by_cpu_and_rss(self):
        spans = [
            _raw_span("wall", 0, duration=9.0),
            _raw_span("cpu-hog", 1, duration=1.0),
            _raw_span("rss-hog", 2, duration=0.5),
        ]
        spans[1].cpu_time = 5.0
        spans[2].rss_delta = -(1 << 30)  # released memory ranks too (abs)
        assert top_spans(spans, limit=1)[0].name == "wall"
        assert top_spans(spans, limit=1, by="cpu")[0].name == "cpu-hog"
        assert top_spans(spans, limit=1, by="rss")[0].name == "rss-hog"
        with pytest.raises(ValueError, match="unknown top-span key"):
            top_spans(spans, by="disk")

    def test_summarize_folds_resource_totals(self):
        spans = [_raw_span("p", 0, duration=1.0), _raw_span("p", 1, duration=1.0)]
        spans[0].cpu_time = 0.25
        spans[1].cpu_time = 0.5
        spans[1].gc_collections = 2
        row = summarize_spans(spans)[0]
        assert row["total_cpu_seconds"] == pytest.approx(0.75)
        assert row["total_gc_collections"] == 2

    @pytest.mark.parametrize("backend", ["fast", "event"])
    def test_resource_capture_is_rng_inert(self, backend, small_cluster, small_tasks):
        config = SimulationConfig(sim_backend=backend)

        def run():
            return simulate_schedule(
                MinMinScheduler(batch_size=4), small_cluster, small_tasks,
                config=config, rng=7,
            )

        baseline = _sim_digest(run())
        with telemetry_session(TelemetrySession(capture_resources=True)):
            observed = _sim_digest(run())
        assert observed == baseline


class TestDroppedSpansWarning:
    def _capped_export(self, tmp_path):
        session = TelemetrySession(max_spans=2)
        for i in range(6):
            session.record_span(f"s{i}", 0.01)
        path = str(tmp_path / "capped.jsonl")
        write_run_jsonl(path, session, meta={"capped": True})
        return path

    @pytest.mark.parametrize("command", ["summarize", "tree", "top"])
    def test_introspection_warns_loudly(self, command, tmp_path, capsys):
        path = self._capped_export(tmp_path)
        assert main(["telemetry", command, path]) == 0
        err = capsys.readouterr().err
        assert "warning:" in err and "4 spans were dropped" in err

    def test_clean_run_does_not_warn(self, tmp_path, capsys):
        session = TelemetrySession()
        session.record_span("fine", 0.01)
        path = str(tmp_path / "fine.jsonl")
        write_run_jsonl(path, session, meta={})
        assert main(["telemetry", "summarize", path]) == 0
        assert "warning:" not in capsys.readouterr().err
