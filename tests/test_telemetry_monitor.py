"""Tests for the live run monitor (``repro.telemetry.monitor``).

Contracts under test: the status file is always a complete JSON document
(atomic replace, never torn), heartbeats are free when no monitor is in
scope, and an interrupted run leaves an honest post-mortem status behind
that a resume overwrites with a fresh one.
"""

import io
import json
import os

import pytest

from repro.campaigns import CampaignSpec, ResultStore, run_campaign
from repro.cli import main
from repro.parallel.jobs import job_label
from repro.scenarios import run_scenario_matrix
from repro.telemetry.monitor import (
    RECENT_EVENTS,
    RunMonitor,
    WorkerHeartbeat,
    get_heartbeat_dir,
    heartbeat_context,
    load_status,
    load_worker_heartbeats,
    render_status,
    watch,
    wrap_jobs_fn,
)
from repro.util.errors import ConfigurationError


def _square(x):
    return x * x


class TestRunMonitor:
    def test_creates_parent_dirs_and_initial_status(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "run.status.json"
        monitor = RunMonitor(str(path), name="demo", total_units=3)
        status = load_status(str(path))
        assert status["state"] == "running"
        assert status["total_units"] == 3
        assert status["computed"] == 0
        assert os.path.isdir(monitor.workers_dir)

    def test_cell_events_update_counts_and_recent(self, tmp_path):
        path = str(tmp_path / "s.json")
        monitor = RunMonitor(
            path,
            name="demo",
            total_units=4,
            cached=1,
            executor="process[2]",
            interval=0,
        )
        monitor.cell_event("cell-a", "computed", 1.5)
        monitor.cell_event("cell-b", "cached")
        status = load_status(path)
        assert status["computed"] == 1
        assert status["cached"] == 2
        assert status["pending"] == 1
        assert [e["cell_id"] for e in status["recent"]] == ["cell-a", "cell-b"]
        assert status["recent"][0]["elapsed_seconds"] == 1.5

    def test_recent_events_are_bounded(self, tmp_path):
        path = str(tmp_path / "s.json")
        monitor = RunMonitor(path, name="demo", total_units=100, interval=0)
        for i in range(RECENT_EVENTS + 5):
            monitor.cell_event(f"cell-{i}", "computed")
        recent = load_status(path)["recent"]
        assert len(recent) == RECENT_EVENTS
        assert recent[-1]["cell_id"] == f"cell-{RECENT_EVENTS + 4}"

    def test_throttle_skips_steady_writes_but_finish_forces(self, tmp_path):
        path = str(tmp_path / "s.json")
        monitor = RunMonitor(path, name="demo", total_units=2, interval=3600)
        monitor.cell_event("cell-a", "computed")
        # Throttled: the file still shows the initial snapshot...
        assert load_status(path)["computed"] == 0
        monitor.finish("finished")
        # ...but the terminal write goes through regardless.
        status = load_status(path)
        assert status["computed"] == 1 and status["state"] == "finished"

    def test_finish_records_interrupt_reason(self, tmp_path):
        path = str(tmp_path / "s.json")
        monitor = RunMonitor(path, name="demo", total_units=2, interval=0)
        monitor.finish("interrupted", "stopped after max_cells=1")
        status = load_status(path)
        assert status["state"] == "interrupted"
        assert status["interrupt_reason"] == "stopped after max_cells=1"
        assert "resume" in render_status(status)

    def test_stale_worker_files_cleared_on_start(self, tmp_path):
        path = str(tmp_path / "s.json")
        workers_dir = path + ".workers"
        os.makedirs(workers_dir)
        stale = os.path.join(workers_dir, "worker-99999.json")
        with open(stale, "w") as handle:
            handle.write("{}")
        RunMonitor(path, name="demo", total_units=1)
        assert not os.path.exists(stale)

    def test_status_file_is_always_whole_json(self, tmp_path):
        # Atomic replace: even mid-run there is never a torn file on disk.
        path = str(tmp_path / "s.json")
        monitor = RunMonitor(path, name="demo", total_units=50, interval=0)
        for i in range(50):
            monitor.cell_event(f"cell-{i}", "computed")
            with open(path) as handle:
                json.loads(handle.read())


class TestLoadAndRender:
    def test_load_missing_raises(self, tmp_path):
        with pytest.raises(ConfigurationError, match="no run status"):
            load_status(str(tmp_path / "nope.json"))

    def test_load_rejects_wrong_shape(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text(json.dumps({"kind": "something"}))
        with pytest.raises(ConfigurationError):
            load_status(str(path))

    def _status(self, tmp_path, **overrides):
        path = str(tmp_path / "s.json")
        RunMonitor(path, name="demo", total_units=4, executor="process[2]")
        status = load_status(path)
        status.update(overrides)
        return status

    def test_running_status_goes_stale(self, tmp_path):
        status = self._status(tmp_path)
        now = status["updated_at"]
        assert "STALE" not in render_status(status, now=now + 1, stale_after=15)
        assert "STALE" in render_status(status, now=now + 100, stale_after=15)
        # A finished run is just old, not stale.
        status["state"] = "finished"
        assert "STALE" not in render_status(status, now=now + 100, stale_after=15)

    def test_render_includes_progress_and_workers(self, tmp_path):
        status = self._status(tmp_path, computed=2, cached=1, pending=1)
        beat = {
            "kind": "worker_heartbeat",
            "pid": 4242,
            "state": "running",
            "job": "repeat:seed=9",
            "jobs_done": 3,
            "updated_at": status["updated_at"],
        }
        text = render_status(status, [beat], now=status["updated_at"])
        assert "campaign demo [running]  via process[2]" in text
        assert "2 computed + 1 cached = 3/4" in text
        assert "pid 4242" in text and "repeat:seed=9" in text


class TestWorkerHeartbeats:
    def test_wrap_is_identity_without_monitor(self):
        assert get_heartbeat_dir() is None
        assert wrap_jobs_fn(_square) is _square

    def test_heartbeat_context_activates_and_restores(self, tmp_path):
        directory = str(tmp_path / "workers")
        os.makedirs(directory)
        with heartbeat_context(directory):
            assert get_heartbeat_dir() == directory
            wrapped = wrap_jobs_fn(_square)
            assert isinstance(wrapped, WorkerHeartbeat)
            assert wrapped(6) == 36
        assert get_heartbeat_dir() is None

    def test_heartbeat_file_contents(self, tmp_path):
        status_path = str(tmp_path / "s.json")
        directory = status_path + ".workers"
        os.makedirs(directory)
        WorkerHeartbeat(_square, directory)(3)
        beats = load_worker_heartbeats(status_path)
        assert len(beats) == 1
        beat = beats[0]
        assert beat["pid"] == os.getpid()
        assert beat["state"] == "idle"  # written after the job finished
        assert beat["jobs_done"] >= 1

    def test_torn_heartbeat_files_are_skipped(self, tmp_path):
        status_path = str(tmp_path / "s.json")
        directory = status_path + ".workers"
        os.makedirs(directory)
        with open(os.path.join(directory, "worker-1.json"), "w") as handle:
            handle.write('{"kind": "worker_heartbeat", "pid": 1}')
        with open(os.path.join(directory, "worker-2.json"), "w") as handle:
            handle.write('{"torn...')
        beats = load_worker_heartbeats(status_path)
        assert [b["pid"] for b in beats] == [1]

    def test_missing_workers_dir_is_empty(self, tmp_path):
        assert load_worker_heartbeats(str(tmp_path / "s.json")) == []

    def test_heartbeat_survives_unwritable_directory(self, tmp_path):
        # The work matters, the telemetry doesn't: a dead heartbeat target
        # must not take the job down.
        wrapped = WorkerHeartbeat(_square, str(tmp_path / "gone" / "deeper"))
        assert wrapped(4) == 16

    def test_job_label_shapes(self):
        class WithCell:
            cell_id = "scenario/EF/r0"

        class Wrapper:
            job = WithCell()

        assert job_label(WithCell()) == "scenario/EF/r0"
        assert job_label(Wrapper()) == "scenario/EF/r0"
        assert job_label(object()) == "object"


class TestWatch:
    def _finished_status(self, tmp_path, state="finished", reason=""):
        path = str(tmp_path / "s.json")
        monitor = RunMonitor(path, name="demo", total_units=1, interval=0)
        monitor.cell_event("cell-a", "computed")
        monitor.finish(state, reason)
        return path

    def test_once_renders_single_frame(self, tmp_path):
        path = self._finished_status(tmp_path)
        stream = io.StringIO()
        status = watch(path, once=True, stream=stream)
        assert status["state"] == "finished"
        assert stream.getvalue().count("campaign demo") == 1

    def test_exits_when_run_not_running(self, tmp_path):
        path = self._finished_status(tmp_path, "interrupted", "ctrl-c")
        stream = io.StringIO()
        status = watch(path, interval=0.01, stream=stream)
        assert status["state"] == "interrupted"
        assert "ctrl-c" in stream.getvalue()

    def test_max_frames_bounds_a_running_watch(self, tmp_path):
        path = str(tmp_path / "s.json")
        RunMonitor(path, name="demo", total_units=5)  # stays "running"
        stream = io.StringIO()
        status = watch(path, interval=0.01, stream=stream, max_frames=2)
        assert status["state"] == "running"
        assert stream.getvalue().count("campaign demo") == 2


class TestRunnersWriteStatus:
    def _spec(self, name="mon-test"):
        return CampaignSpec(
            name=name, scale="smoke", seed=11,
            scenarios=("failure-storm",), schedulers=("LL", "EF"), repeats=1,
        )

    def test_campaign_writes_finished_status(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        result = run_campaign(self._spec(), store)
        assert result.complete
        status = load_status(store.status_path("mon-test"))
        assert status["state"] == "finished"
        assert status["computed"] == result.computed
        assert status["cached"] == 0
        assert status["total_units"] == 2

    def test_warm_rerun_status_counts_cache_hits(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        run_campaign(self._spec(), store)
        result = run_campaign(self._spec(), store)
        assert result.cached == 2
        status = load_status(store.status_path("mon-test"))
        assert status["state"] == "finished"
        assert status["computed"] == 0 and status["cached"] == 2

    def test_interrupt_then_resume_status_lifecycle(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        spec = self._spec()
        partial = run_campaign(spec, store, max_cells=1)
        assert not partial.complete
        status = load_status(store.status_path("mon-test"))
        assert status["state"] == "interrupted"
        assert status["interrupt_reason"]
        resumed = run_campaign(spec, store)
        assert resumed.complete
        status = load_status(store.status_path("mon-test"))
        assert status["state"] == "finished"
        assert status["cached"] == 1 and status["computed"] == 1

    def test_status_sidecar_not_listed_as_campaign(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        run_campaign(self._spec(), store)
        assert store.manifest_names() == ["mon-test"]

    def test_scenario_matrix_status_file(self, tmp_path):
        status_path = str(tmp_path / "matrix.status.json")
        run_scenario_matrix(
            ["failure-storm"], schedulers=["LL"], repeats=2, seed=3,
            status_path=status_path,
        )
        status = load_status(status_path)
        assert status["state"] == "finished"
        assert status["computed"] == 2
        assert status["name"] == "scenario-matrix"


class TestCliWatch:
    def test_watch_by_store_and_name(self, tmp_path, capsys):
        store = ResultStore(str(tmp_path / "store"))
        spec = CampaignSpec(
            name="cli-watch", scale="smoke", seed=2,
            scenarios=("failure-storm",), schedulers=("LL",), repeats=1,
        )
        run_campaign(spec, store)
        code = main(
            ["campaigns", "watch", "--store", str(tmp_path / "store"),
             "cli-watch", "--once"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "campaign cli-watch [finished]" in out

    def test_watch_status_file_interrupted_exits_3(self, tmp_path, capsys):
        path = str(tmp_path / "s.json")
        RunMonitor(path, name="x", total_units=1).finish("interrupted", "boom")
        assert main(["campaigns", "watch", "--status-file", path, "--once"]) == 3
        capsys.readouterr()

    def test_watch_without_target_errors(self, capsys):
        assert main(["campaigns", "watch", "--once"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_scenarios_run_status_file_flag(self, tmp_path, capsys):
        status_path = tmp_path / "deep" / "scen.status.json"
        code = main(
            ["scenarios", "run", "failure-storm", "--scale", "smoke",
             "--repeats", "1", "--schedulers", "LL",
             "--status-file", str(status_path)]
        )
        assert code == 0
        capsys.readouterr()
        assert load_status(str(status_path))["state"] == "finished"
