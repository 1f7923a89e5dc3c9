"""Tests for the sharded scenario-matrix runner and its persistence/report."""

import json

import pytest

from repro.experiments.config import get_scale
from repro.experiments.reporting import scenario_matrix_table
from repro.io.results import save_scenario_matrix_json, scenario_matrix_to_dict
from repro.parallel import ParallelExecutor
from repro.scenarios import (
    ScenarioCell,
    get_scenario,
    run_scenario_cell,
    run_scenario_matrix,
)
from repro.util.errors import ConfigurationError

SMOKE = get_scale("smoke")


def small_matrix(**overrides):
    kwargs = dict(
        scale=SMOKE,
        schedulers=["EF", "LL"],
        repeats=2,
        seed=11,
    )
    kwargs.update(overrides)
    return run_scenario_matrix(["failure-storm", "elastic-scale-out"], **kwargs)


class TestCellDeterminism:
    def test_same_cell_twice_is_identical(self):
        cell = ScenarioCell(
            spec=get_scenario("failure-storm", SMOKE),
            scheduler="EF",
            repeat=0,
            seed_entropy=42,
            batch_size=SMOKE.batch_size,
            max_generations=SMOKE.max_generations,
        )
        assert run_scenario_cell(cell) == run_scenario_cell(cell)


class TestMatrixRunner:
    def test_matrix_shape_and_aggregates(self):
        result = small_matrix()
        assert result.scenarios == ["failure-storm", "elastic-scale-out"]
        assert result.schedulers == ["EF", "LL"]
        assert result.repeats == 2
        assert len(result.outcomes) == 2 * 2 * 2
        agg = result.aggregate("failure-storm", "EF")
        assert agg.repeats == 2
        assert agg.makespan.mean > 0

    def test_conservation_holds_across_matrix(self):
        result = small_matrix()
        assert result.conservation_ok()

    def test_serial_and_parallel_runs_bit_identical(self):
        serial = small_matrix()
        with ParallelExecutor(jobs=2) as executor:
            parallel = small_matrix(executor=executor)
        assert serial.signature() == parallel.signature()
        assert parallel.executor.startswith("process[2]")

    def test_seed_changes_results(self):
        a = small_matrix(seed=1)
        b = small_matrix(seed=2)
        assert a.signature() != b.signature()

    def test_scheduler_default_comes_from_spec(self):
        spec = get_scenario("steady-state", SMOKE).with_schedulers(("RR",))
        result = run_scenario_matrix([spec], scale=SMOKE, repeats=1, seed=5)
        assert result.schedulers == ["RR"]

    def test_best_by_makespan(self):
        result = small_matrix()
        assert result.best_by_makespan("failure-storm") in {"EF", "LL"}

    def test_empty_matrix_rejected(self):
        with pytest.raises(ConfigurationError):
            run_scenario_matrix([], scale=SMOKE, seed=1)

    def test_duplicate_scenarios_rejected(self):
        with pytest.raises(ConfigurationError, match="duplicate"):
            run_scenario_matrix(
                ["steady-state", "steady-state"], scale=SMOKE, seed=1
            )

    def test_invalid_repeats_rejected(self):
        with pytest.raises(ConfigurationError):
            small_matrix(repeats=0)

    def test_duplicate_scheduler_names_deduplicated(self):
        # `--schedulers EF EF` must not silently double EF's repeat count.
        once = small_matrix(schedulers=["EF"], repeats=2)
        twice = small_matrix(schedulers=["EF", "EF"], repeats=2)
        assert twice.aggregate("failure-storm", "EF").repeats == 2
        assert once.signature() == twice.signature()


class TestPhaseAttribution:
    """Per-phase cost records (scheduling vs dispatch vs drain) — PR 5."""

    def test_timing_includes_phase_breakdown(self):
        result = small_matrix()
        timing = result.timing()
        for scenario in result.scenarios:
            for scheduler in result.schedulers:
                row = timing[scenario][scheduler]
                assert set(row) >= {
                    "wall_clock_mean_seconds",
                    "events_per_second_mean",
                    "scheduling_mean_seconds",
                    "dispatch_mean_seconds",
                    "drain_mean_seconds",
                }
                # Phases are real measurements bounded by the cell's clock.
                phases = (
                    row["scheduling_mean_seconds"]
                    + row["dispatch_mean_seconds"]
                    + row["drain_mean_seconds"]
                )
                assert 0.0 < phases <= row["wall_clock_mean_seconds"] * 1.5

    def test_phase_fields_are_outside_the_determinism_signature(self):
        result = small_matrix()
        assert "scheduling_mean_seconds" not in next(
            iter(next(iter(result.signature().values())).values())
        )

    def test_fast_backend_attributes_terminal_drain(self):
        # steady-state has no dynamics, so cells take the fast path whose
        # completion processing happens in the batched terminal drain.
        result = run_scenario_matrix(
            ["steady-state"], scale=SMOKE, schedulers=["EF"], repeats=1, seed=3
        )
        agg = result.aggregate("steady-state", "EF")
        assert agg.drain_seconds.mean > 0.0
        assert agg.scheduling_seconds.mean > 0.0

    def test_phase_timing_off_by_default_outside_the_matrix(self):
        from repro.sim.simulation import SimulationConfig

        cell = ScenarioCell(
            spec=get_scenario("failure-storm", SMOKE),
            scheduler="EF",
            repeat=0,
            seed_entropy=42,
            batch_size=SMOKE.batch_size,
            max_generations=SMOKE.max_generations,
            sim_config=SimulationConfig(phase_timing=False),
        )
        outcome = run_scenario_cell(cell)
        assert outcome.scheduling_seconds == 0.0
        assert outcome.dispatch_seconds == 0.0
        assert outcome.drain_seconds == 0.0

    def test_unmeasured_phases_absent_from_timing_not_reported_as_zero(self):
        from repro.sim.simulation import SimulationConfig

        result = run_scenario_matrix(
            ["failure-storm"],
            scale=SMOKE,
            schedulers=["EF"],
            repeats=1,
            seed=11,
            sim_config=SimulationConfig(phase_timing=False),
        )
        agg = result.aggregate("failure-storm", "EF")
        assert agg.scheduling_seconds is None
        assert agg.dispatch_seconds is None
        assert agg.drain_seconds is None
        row = result.timing()["failure-storm"]["EF"]
        assert "scheduling_mean_seconds" not in row
        assert "wall_clock_mean_seconds" in row


class TestPersistenceAndReport:
    def test_table_lists_every_pair(self):
        result = small_matrix()
        table = scenario_matrix_table(result)
        for scenario in result.scenarios:
            assert scenario in table
        assert "conserved" in table

    def test_json_round_trip(self, tmp_path):
        result = small_matrix()
        path = save_scenario_matrix_json(result, tmp_path / "matrix.json")
        with open(path, encoding="utf8") as handle:
            payload = json.load(handle)
        assert payload["format_version"] == 1
        assert payload["kind"] == "scenario_matrix"
        assert payload["aggregates"] == json.loads(
            json.dumps(result.signature())
        )
        assert payload["conservation_ok"] is True
        assert payload["scale"] == "smoke"

    def test_dict_payload_is_executor_tagged(self):
        result = small_matrix()
        payload = scenario_matrix_to_dict(result)
        assert payload["executor"] == "serial"
        assert payload["kind"] == "scenario_matrix"
