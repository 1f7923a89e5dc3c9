"""Tests for the perf scorecard: BENCH schema, history folding, the gate."""

from __future__ import annotations

import json
from glob import glob
from pathlib import Path

import pytest

from repro.analysis.scorecard import (
    BENCH_SCHEMA_VERSION,
    bench_row,
    check_records,
    check_rows,
    find_bench_records,
    fold_into_history,
    load_bench_record,
    load_history,
    machine_fingerprint,
    machines_comparable,
    make_bench_record,
    manifest_record,
    new_history,
    render_bench_markdown,
    render_scorecard_markdown,
    row_label,
    save_history,
    validate_bench_record,
)
from repro.cli import main
from repro.util.errors import ConfigurationError

REPO_ROOT = Path(__file__).resolve().parents[1]

OTHER_MACHINE = {
    "cpu_count": 128,
    "platform": "SomeOther-OS-0.0-arch",
    "python": "3.999.0",
    "numpy": "9.9.9",
}


def speedup_record(value: float, *, machine=None, tolerance=0.25, floor=1.0):
    return make_bench_record(
        "demo_bench",
        [bench_row("speedup", value, "x", scale="smoke", tolerance=tolerance, floor=floor)],
        config={"seed": 42},
        machine=machine,
    )


class TestBenchSchema:
    def test_bench_row_validates_direction_and_tolerance(self):
        with pytest.raises(ConfigurationError, match="direction"):
            bench_row("m", 1.0, "x", direction="sideways")
        with pytest.raises(ConfigurationError, match="tolerance"):
            bench_row("m", 1.0, "x", tolerance=1.5)
        row = bench_row("m", 1, "x", tolerance=0.1, floor=2)
        assert row["value"] == 1.0 and row["floor"] == 2.0

    def test_make_bench_record_fills_machine_and_validates(self):
        record = speedup_record(2.0)
        assert record["schema_version"] == BENCH_SCHEMA_VERSION
        assert record["machine"] == machine_fingerprint()
        validate_bench_record(record)

    def test_validate_rejects_old_schema(self):
        with pytest.raises(ConfigurationError, match="schema_version"):
            validate_bench_record({"schema_version": 1, "benchmark": "x"})

    def test_validate_rejects_missing_machine_fields(self):
        record = speedup_record(2.0)
        del record["machine"]["numpy"]
        with pytest.raises(ConfigurationError, match="numpy"):
            validate_bench_record(record)

    def test_validate_rejects_empty_or_malformed_rows(self):
        record = speedup_record(2.0)
        record["rows"] = []
        with pytest.raises(ConfigurationError, match="rows"):
            validate_bench_record(record)
        record["rows"] = [{"metric": "m", "unit": "x"}]
        with pytest.raises(ConfigurationError, match="value"):
            validate_bench_record(record)
        record["rows"] = [{"metric": "m", "unit": "x", "value": True}]
        with pytest.raises(ConfigurationError, match="number"):
            validate_bench_record(record)

    def test_load_round_trip_and_discovery(self, tmp_path):
        record = speedup_record(2.0)
        path = tmp_path / "BENCH_demo.json"
        path.write_text(json.dumps(record))
        assert load_bench_record(str(path)) == record
        (tmp_path / "not_a_bench.json").write_text("{}")
        found = find_bench_records([str(tmp_path), str(path)])
        assert found == [str(path), str(path)]

    def test_every_committed_bench_record_is_valid(self):
        paths = sorted(glob(str(REPO_ROOT / "benchmarks" / "BENCH_*.json")))
        assert len(paths) >= 5
        for path in paths:
            load_bench_record(path)


class TestMachineFingerprint:
    def test_same_machine_is_comparable(self):
        assert machines_comparable(machine_fingerprint(), machine_fingerprint())

    def test_platform_or_core_count_change_breaks_comparability(self):
        mine = machine_fingerprint()
        assert not machines_comparable(mine, OTHER_MACHINE)
        fewer_cores = dict(mine, cpu_count=(mine["cpu_count"] or 0) + 1)
        assert not machines_comparable(mine, fewer_cores)

    def test_interpreter_upgrade_stays_comparable(self):
        mine = machine_fingerprint()
        upgraded = dict(mine, python="3.999.0", numpy="9.9.9")
        assert machines_comparable(mine, upgraded)

    def test_missing_fingerprint_is_never_comparable(self):
        assert not machines_comparable(None, machine_fingerprint())
        assert not machines_comparable(machine_fingerprint(), {})


class TestHistory:
    def test_fold_is_idempotent(self):
        history = new_history()
        record = speedup_record(2.0)
        assert fold_into_history(history, [record]) == 1
        snapshot = json.dumps(history, sort_keys=True)
        assert fold_into_history(history, [record]) == 0
        assert json.dumps(history, sort_keys=True) == snapshot

    def test_fold_appends_changed_values(self):
        history = new_history()
        fold_into_history(history, [speedup_record(2.0)])
        fold_into_history(history, [speedup_record(3.0)])
        label = row_label("demo_bench", speedup_record(2.0)["rows"][0])
        assert [p["value"] for p in history["entries"][label]] == [2.0, 3.0]

    def test_save_load_round_trip(self, tmp_path):
        history = new_history()
        fold_into_history(history, [speedup_record(2.0)])
        path = str(tmp_path / "SCORECARD.json")
        save_history(history, path)
        assert load_history(path) == history

    def test_load_rejects_non_history_files(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(ConfigurationError, match="repro-scorecard"):
            load_history(str(path))

    def test_label_separator_survives_slashed_names(self):
        row = bench_row("steady-state/LL/events_per_second", 1.0, "events/s")
        label = row_label("campaign/ci", row)
        benchmark, scale, metric = label.split("::", 2)
        assert benchmark == "campaign/ci"
        assert scale == "-"
        assert metric == "steady-state/LL/events_per_second"


class TestGate:
    def test_absolute_floor_always_gates(self):
        history = new_history()  # no trajectory at all
        (check,) = check_rows(
            "demo_bench",
            [bench_row("speedup", 0.8, "x", floor=1.0)],
            machine_fingerprint(),
            history,
        )
        assert check.status == "FAIL"
        assert "floor" in check.message

    def test_floor_only_row_passes_above_floor(self):
        (check,) = check_rows(
            "demo_bench",
            [bench_row("bit_identical", 1.0, "bool", floor=1.0)],
            machine_fingerprint(),
            new_history(),
        )
        assert check.status == "PASS"
        assert "floor" in check.message

    def test_injected_regression_fails_the_trajectory_gate(self):
        """The acceptance check: a regression beyond the band must FAIL."""
        history = new_history()
        fold_into_history(history, [speedup_record(4.0)])
        failed, checks = check_records([speedup_record(2.9)], history)
        assert failed
        assert checks[0].status == "FAIL"
        assert "regressed" in checks[0].message

    def test_value_inside_the_band_passes(self):
        history = new_history()
        fold_into_history(history, [speedup_record(4.0)])
        failed, checks = check_records([speedup_record(3.1)], history)
        assert not failed
        assert checks[0].status == "PASS"

    def test_gate_uses_best_not_latest(self):
        history = new_history()
        fold_into_history(history, [speedup_record(4.0)])
        fold_into_history(history, [speedup_record(2.0)])
        failed, checks = check_records([speedup_record(2.9)], history)
        assert failed, "best recorded value (4.0) sets the bar, not the latest (2.0)"

    def test_lower_is_better_direction(self):
        row = bench_row("latency", 10.0, "ms", direction="lower", tolerance=0.2)
        history = new_history()
        fold_into_history(history, [make_bench_record("demo_bench", [dict(row, value=8.0)])])
        (check,) = check_rows("demo_bench", [row], machine_fingerprint(), history)
        assert check.status == "FAIL"  # 10.0 > 8.0 * 1.2

    def test_ratio_units_compare_across_machines(self):
        history = new_history()
        fold_into_history(history, [speedup_record(4.0, machine=OTHER_MACHINE)])
        failed, checks = check_records([speedup_record(2.9)], history)
        assert failed
        assert checks[0].status == "FAIL"

    def test_absolute_units_skip_across_machines(self):
        rate = bench_row("events_per_second", 10.0, "events/s", tolerance=0.2)
        history = new_history()
        fold_into_history(
            history,
            [make_bench_record("demo_bench", [dict(rate, value=1e9)], machine=OTHER_MACHINE)],
        )
        (check,) = check_rows("demo_bench", [rate], machine_fingerprint(), history)
        assert check.status == "SKIP"
        assert "no comparable history" in check.message

    def test_absolute_units_gate_on_the_same_machine(self):
        rate = bench_row("events_per_second", 10.0, "events/s", tolerance=0.2)
        history = new_history()
        fold_into_history(history, [make_bench_record("demo_bench", [dict(rate, value=100.0)])])
        (check,) = check_rows("demo_bench", [rate], machine_fingerprint(), history)
        assert check.status == "FAIL"

    def test_dashboard_only_rows_never_gate(self):
        (check,) = check_rows(
            "demo_bench",
            [bench_row("wall_clock", 1e9, "s", direction="lower")],
            machine_fingerprint(),
            new_history(),
        )
        assert check.status == "PASS"
        assert "dashboard-only" in check.message

    def test_committed_records_pass_against_committed_history(self):
        history = load_history(str(REPO_ROOT / "benchmarks" / "SCORECARD.json"))
        records = [
            load_bench_record(path)
            for path in sorted(glob(str(REPO_ROOT / "benchmarks" / "BENCH_*.json")))
        ]
        failed, checks = check_records(records, history)
        messages = [f"{c.status} {c.label}: {c.message}" for c in checks]
        assert not failed, "\n".join(messages)


class TestManifestRecord:
    def manifest(self, tmp_path, payload) -> str:
        path = tmp_path / "ci.json"
        path.write_text(json.dumps(payload))
        return str(path)

    def test_timings_become_dashboard_rows(self, tmp_path):
        path = self.manifest(
            tmp_path,
            {
                "kind": "campaign_manifest",
                "name": "ci",
                "executor": "process[2]",
                "machine": machine_fingerprint(),
                "timing": {
                    "scenarios": {
                        "steady-state": {
                            "LL": {
                                "events_per_second_mean": 1000.0,
                                "wall_clock_mean_seconds": 1.5,
                            }
                        }
                    }
                },
            },
        )
        record = manifest_record(path)
        assert record["benchmark"] == "campaign/ci"
        metrics = {row["metric"]: row for row in record["rows"]}
        assert metrics["steady-state/LL/events_per_second"]["value"] == 1000.0
        assert metrics["steady-state/LL/wall_clock"]["direction"] == "lower"
        # Dashboard-only: campaign timings gate nothing.
        assert all(
            row["tolerance"] is None and row["floor"] is None for row in record["rows"]
        )

    def test_manifest_without_timing_yields_none(self, tmp_path):
        path = self.manifest(tmp_path, {"kind": "campaign_manifest", "name": "ci", "timing": {}})
        assert manifest_record(path) is None

    def test_non_manifest_rejected(self, tmp_path):
        path = self.manifest(tmp_path, {"kind": "something_else"})
        with pytest.raises(ConfigurationError, match="manifest"):
            manifest_record(path)

    def test_missing_machine_stays_dashboard_only(self, tmp_path):
        path = self.manifest(
            tmp_path,
            {
                "kind": "campaign_manifest",
                "name": "old",
                "timing": {"scenarios": {"s": {"LL": {"events_per_second_mean": 1.0}}}},
            },
        )
        record = manifest_record(path)
        assert not machines_comparable(record["machine"], machine_fingerprint())


class TestTelemetryDiffRecord:
    def diff_record_file(self, tmp_path, elapsed_b=2.0):
        from repro.telemetry import diff_record, diff_runs
        from repro.telemetry.spans import Span

        def run(run_id, elapsed):
            return {
                "run_id": run_id,
                "meta": {"command": "test"},
                "spans": [
                    Span(name="root", span_id=0, parent_id=None, start=0.0,
                         duration=elapsed),
                    Span(name="phase:x", span_id=1, parent_id=0, start=0.0,
                         duration=elapsed * 0.8),
                ],
                "metrics": {"counters": {}},
            }

        record = diff_record(diff_runs(run("tr-aaaa", 1.0), run("tr-bbbb", elapsed_b)))
        path = tmp_path / "diff.json"
        path.write_text(json.dumps(record))
        return str(path)

    def test_rows_are_dashboard_only(self, tmp_path):
        from repro.analysis.scorecard import telemetry_diff_record

        record = telemetry_diff_record(self.diff_record_file(tmp_path))
        assert record["benchmark"] == "telemetry-diff/tr-bbbb"
        metrics = {row["metric"]: row for row in record["rows"]}
        assert metrics["elapsed_ratio"]["value"] == pytest.approx(2.0)
        assert metrics["elapsed_ratio"]["direction"] == "lower"
        assert metrics["n_regressions"]["value"] == 2
        assert metrics["n_improvements"]["value"] == 0
        assert "path/root" in metrics and "path/root/phase:x" in metrics
        # A diff documents a comparison; it must never gate the build.
        assert all(
            row["tolerance"] is None and row["floor"] is None
            for row in record["rows"]
        )
        validate_bench_record(record)

    def test_malformed_diff_rejected(self, tmp_path):
        from repro.analysis.scorecard import telemetry_diff_record

        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"kind": "nope"}))
        with pytest.raises(ConfigurationError):
            telemetry_diff_record(str(bad))

    def test_build_folds_diff_records(self, tmp_path):
        bench = tmp_path / "records"
        bench.mkdir()
        (bench / "BENCH_demo.json").write_text(json.dumps(speedup_record(4.0)))
        history = str(tmp_path / "SCORECARD.json")
        dashboard = tmp_path / "SCORECARD.md"
        code = main(
            [
                "scorecard", "build", str(bench),
                "--diff", self.diff_record_file(tmp_path),
                "--history", history, "--output", str(dashboard),
            ]
        )
        assert code == 0
        assert "telemetry-diff/tr-bbbb" in dashboard.read_text()
        # Folding a diff never breaks the gate.
        assert main(["scorecard", "check", str(bench), "--history", history]) == 0


class TestRendering:
    def test_bench_markdown_lists_every_row(self):
        record = speedup_record(2.0)
        text = render_bench_markdown(record)
        assert "# BENCH: demo_bench" in text
        assert "| speedup | smoke | 2 |" in text

    def test_scorecard_markdown_groups_by_benchmark(self):
        history = new_history()
        fold_into_history(history, [speedup_record(2.0)])
        fold_into_history(history, [speedup_record(3.0)])
        text = render_scorecard_markdown(history)
        assert "## demo_bench" in text
        # latest 3, best 3, two points
        assert "| speedup | smoke | 3 | x | 3 | 1 | 0.25 | 2 |" in text


class TestScorecardCli:
    @pytest.fixture
    def bench_dir(self, tmp_path):
        directory = tmp_path / "records"
        directory.mkdir()
        (directory / "BENCH_demo.json").write_text(json.dumps(speedup_record(4.0)))
        return directory

    def test_build_then_check_passes(self, bench_dir, tmp_path, capsys):
        history = str(tmp_path / "SCORECARD.json")
        dashboard = str(tmp_path / "SCORECARD.md")
        code = main(
            ["scorecard", "build", str(bench_dir), "--history", history, "--output", dashboard]
        )
        assert code == 0
        assert "demo_bench" in Path(dashboard).read_text()
        assert main(["scorecard", "check", str(bench_dir), "--history", history]) == 0
        out = capsys.readouterr().out
        assert "1 pass, 0 fail" in out

    def test_check_fails_on_injected_regression(self, bench_dir, tmp_path, capsys):
        history = str(tmp_path / "SCORECARD.json")
        dashboard = str(tmp_path / "SCORECARD.md")
        code = main(
            ["scorecard", "build", str(bench_dir), "--history", history, "--output", dashboard]
        )
        assert code == 0
        (bench_dir / "BENCH_demo.json").write_text(json.dumps(speedup_record(2.5)))
        assert main(["scorecard", "check", str(bench_dir), "--history", history]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out

    def test_check_without_history_is_an_error(self, bench_dir, tmp_path, capsys):
        missing = str(tmp_path / "missing.json")
        assert main(["scorecard", "check", str(bench_dir), "--history", missing]) == 2

    def test_build_folds_campaign_manifests(self, bench_dir, tmp_path):
        manifest = tmp_path / "ci.json"
        manifest.write_text(
            json.dumps(
                {
                    "kind": "campaign_manifest",
                    "name": "ci",
                    "machine": machine_fingerprint(),
                    "timing": {"scenarios": {"s": {"LL": {"events_per_second_mean": 5.0}}}},
                }
            )
        )
        history = str(tmp_path / "SCORECARD.json")
        dashboard = tmp_path / "SCORECARD.md"
        code = main(
            [
                "scorecard",
                "build",
                str(bench_dir),
                "--manifest",
                str(manifest),
                "--history",
                history,
                "--output",
                str(dashboard),
            ]
        )
        assert code == 0
        assert "campaign/ci" in dashboard.read_text()

    def test_build_without_records_is_an_error(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        code = main(
            [
                "scorecard",
                "build",
                str(empty),
                "--history",
                str(tmp_path / "h.json"),
                "--output",
                str(tmp_path / "d.md"),
            ]
        )
        assert code == 2
