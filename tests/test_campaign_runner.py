"""Tests for the campaign subsystem (repro.campaigns).

Load-bearing guarantees:

* a campaign interrupted after k of n cells resumes to aggregates
  bit-identical to an uninterrupted run;
* a warm-store rerun computes zero cells;
* store hits are bit-identical to fresh computation, on both simulation
  paths;
* campaign aggregates equal the direct ``run_scenario_matrix`` /
  ``sweep_ga_parameter`` results with the same seed.
"""

import pytest

from repro.campaigns import (
    CampaignSpec,
    ResultStore,
    SweepSpec,
    expand_campaign,
    load_manifest,
    run_campaign,
)
from repro.campaigns.runner import run_campaign_cell
from repro.experiments import get_scale, sweep_ga_parameter
from repro.parallel import ParallelExecutor
from repro.scenarios import run_scenario_matrix
from repro.util.errors import ConfigurationError

from oracles import sim_path


@pytest.fixture(scope="module")
def spec():
    return CampaignSpec(
        name="test-campaign",
        scale="smoke",
        seed=7,
        figures=("fig6",),
        scenarios=("failure-storm",),
        schedulers=("EF", "LL"),
        repeats=2,
        sweeps=(SweepSpec(parameter="n_rebalances", values=(0, 1), repeats=2),),
    )


@pytest.fixture(scope="module")
def reference_aggregates(spec, tmp_path_factory):
    """Aggregates of one uninterrupted serial run (shared by the tests)."""
    store = ResultStore(tmp_path_factory.mktemp("reference-store"))
    result = run_campaign(spec, store)
    assert result.complete
    return result.aggregates


class TestSpec:
    def test_roundtrip_through_dict(self, spec):
        assert CampaignSpec.from_dict(spec.to_dict()) == spec

    def test_empty_campaign_rejected(self):
        with pytest.raises(ConfigurationError, match="empty"):
            CampaignSpec(name="nothing")

    def test_unknown_names_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown figures"):
            CampaignSpec(name="x", figures=("fig99",))
        with pytest.raises(ConfigurationError, match="unknown scenarios"):
            CampaignSpec(name="x", scenarios=("no-such-scenario",))
        with pytest.raises(ConfigurationError, match="unknown schedulers"):
            CampaignSpec(name="x", scenarios=("failure-storm",), schedulers=("QQ",))
        with pytest.raises(ConfigurationError, match="unknown scale"):
            CampaignSpec(name="x", figures=("fig6",), scale="enormous")

    def test_duplicates_rejected(self):
        with pytest.raises(ConfigurationError, match="duplicate figures"):
            CampaignSpec(name="x", figures=("fig6", "fig6"))
        with pytest.raises(ConfigurationError, match="duplicate values"):
            SweepSpec(parameter="n_rebalances", values=(1, 1))

    @pytest.mark.parametrize(
        "key, value",
        [
            ("ga_backend", "loop"),
            ("policy_backend", "loop"),
            ("sim_backend", "batch"),
            ("sim_backend", "event"),
            ("sim_backend", "fast"),
        ],
    )
    def test_from_dict_rejects_removed_options(self, key, value):
        # A spec or manifest asking for a removed path must fail loudly
        # instead of silently running the default path in its place.
        payload = CampaignSpec(name="x", figures=("fig6",)).to_dict()
        payload[key] = value
        with pytest.raises(ConfigurationError, match=f"{key}.*removed"):
            CampaignSpec.from_dict(payload)

    def test_from_dict_accepts_null_removed_options(self):
        # Manifests written before the removal carry the keys as null.
        spec = CampaignSpec(name="x", figures=("fig6",))
        payload = dict(spec.to_dict(), ga_backend=None, policy_backend=None, sim_backend=None)
        assert CampaignSpec.from_dict(payload) == spec


class TestExpansion:
    def test_expansion_is_deterministic(self, spec):
        a = expand_campaign(spec)
        b = expand_campaign(spec)
        assert [c.cell_id for c in a.cells] == [c.cell_id for c in b.cells]
        assert [c.key for c in a.cells] == [c.key for c in b.cells]

    def test_cell_inventory(self, spec):
        plan = expand_campaign(spec)
        ids = [c.cell_id for c in plan.cells]
        assert "figure:fig6" in ids
        assert "scenario:failure-storm/EF/r0" in ids
        assert "scenario:failure-storm/LL/r1" in ids
        assert "sweep:n_rebalances=0/r0" in ids
        assert "sweep:n_rebalances=1/r1" in ids
        assert len(ids) == 1 + 4 + 4

    def test_seed_changes_every_stochastic_key(self, spec):
        import dataclasses

        reseeded = dataclasses.replace(spec, seed=8)
        keys_a = {c.cell_id: c.key for c in expand_campaign(spec).cells}
        keys_b = {c.cell_id: c.key for c in expand_campaign(reseeded).cells}
        assert keys_a.keys() == keys_b.keys()
        assert all(keys_a[i] != keys_b[i] for i in keys_a)


class TestRunResumeCache:
    def test_complete_run_and_warm_rerun(self, spec, reference_aggregates, tmp_path):
        store = ResultStore(tmp_path / "store")
        first = run_campaign(spec, store)
        assert first.complete
        assert first.computed == first.total_cells and first.cached == 0
        assert first.aggregates == reference_aggregates
        # Warm store: zero computed cells, identical aggregates.
        second = run_campaign(spec, store)
        assert second.complete
        assert second.computed == 0 and second.cached == second.total_cells
        assert second.aggregates == reference_aggregates

    @pytest.mark.parametrize("k", [1, 3, 7])
    def test_interrupt_then_resume_is_bit_identical(
        self, spec, reference_aggregates, tmp_path, k
    ):
        store = ResultStore(tmp_path / "store")
        partial = run_campaign(spec, store, max_cells=k)
        assert partial.interrupted and partial.interrupt_reason == "max-cells"
        assert partial.computed == k
        assert partial.aggregates is None
        resumed = run_campaign(spec, store)
        assert resumed.complete
        assert resumed.cached == k and resumed.computed == partial.total_cells - k
        assert resumed.aggregates == reference_aggregates

    def test_parallel_and_async_executors_match_serial(
        self, spec, reference_aggregates, tmp_path
    ):
        # The process pool is the one parallel executor left.
        with ParallelExecutor(2) as executor:
            store = ResultStore(tmp_path / "process-store")
            result = run_campaign(spec, store, executor=executor)
        assert result.complete
        assert result.aggregates == reference_aggregates

    @pytest.mark.parametrize("sim_backend", ["fast", "event"])
    def test_store_hits_are_bit_identical_to_fresh_computation(self, tmp_path, sim_backend):
        """A payload stored from either simulation path == a fresh computation."""
        spec = CampaignSpec(
            name=f"parity-{sim_backend}",
            scale="smoke",
            seed=11,
            scenarios=("failure-storm", "steady-state"),
            schedulers=("PN",),
            repeats=1,
            sweeps=(SweepSpec(parameter="n_rebalances", values=(1,), repeats=1),),
        )
        store = ResultStore(tmp_path / "store")
        with sim_path(sim_backend):
            run_campaign(spec, store)
        # Wall-clock measurements legitimately vary run to run; every
        # stochastic result must not.
        timing_fields = {
            "wall_clock_seconds",
            "events_per_second",
            "scheduling_seconds",
            "dispatch_seconds",
            "drain_seconds",
            "elapsed_seconds",
            "wall_time_seconds",
        }
        for cell in expand_campaign(spec).cells:
            fresh = run_campaign_cell(cell)["payload"]
            stored = store.payload(cell.key)
            for payload in (fresh, stored):
                for field in timing_fields:
                    payload.pop(field, None)
            assert stored == fresh, cell.cell_id

    def test_wall_clock_figures_stay_out_of_the_aggregates(self, tmp_path):
        # fig4's series are measured seconds: two independent runs must
        # still produce equal aggregates, with the measurement routed into
        # the machine-dependent timing section instead.
        spec = CampaignSpec(name="timed", scale="smoke", seed=5, figures=("fig4",))
        a = run_campaign(spec, ResultStore(tmp_path / "a"))
        b = run_campaign(spec, ResultStore(tmp_path / "b"))
        assert a.complete and b.complete
        assert a.aggregates == b.aggregates
        assert "figures" not in (a.aggregates or {})
        assert a.timing["figures"]["fig4"]["figure_id"] == "fig4"

    def test_event_engine_campaign_matches_fast(self, tmp_path):
        # A campaign run on the forced event engine folds to the same
        # aggregates as the static replay, into stores keyed identically.
        spec = CampaignSpec(
            name="a", scale="smoke", seed=3, scenarios=("steady-state",),
            schedulers=("EF",), repeats=1,
        )
        fast = run_campaign(spec, ResultStore(tmp_path / "fast"))
        with sim_path("event"):
            event = run_campaign(spec, ResultStore(tmp_path / "event"))
        assert event.computed == event.total_cells
        assert fast.aggregates["scenarios"] == event.aggregates["scenarios"]


class TestAggregatesMatchDirectRuns:
    def test_scenario_aggregates_equal_run_scenario_matrix(
        self, spec, reference_aggregates
    ):
        direct = run_scenario_matrix(
            ["failure-storm"],
            scale=get_scale("smoke"),
            schedulers=["EF", "LL"],
            repeats=2,
            seed=7,
        )
        assert reference_aggregates["scenarios"] == direct.signature()

    def test_sweep_aggregates_equal_sweep_ga_parameter(
        self, spec, reference_aggregates
    ):
        direct = sweep_ga_parameter(
            "n_rebalances", [0, 1], scale=get_scale("smoke"), seed=7, repeats=2
        )
        campaign_points = reference_aggregates["sweeps"]["n_rebalances"]
        for point in direct.points:
            entry = campaign_points[repr(point.value)]
            assert entry["makespan_mean"] == point.makespan.mean
            assert entry["makespan_std"] == point.makespan.std
            assert entry["reduction_mean"] == point.reduction.mean

    def test_figure_payload_present(self, reference_aggregates):
        figure = reference_aggregates["figures"]["fig6"]
        assert figure["figure_id"] == "fig6"
        assert set(figure["series"]) >= {"PN", "EF", "LL"}


class TestManifest:
    def test_manifest_checkpoints_and_final_state(self, spec, tmp_path):
        store = ResultStore(tmp_path / "store")
        partial = run_campaign(spec, store, max_cells=2)
        manifest = load_manifest(store, spec.name)
        assert manifest["interrupted"] is True
        assert manifest["computed_cells"] == 2
        assert manifest["aggregates"] is None
        statuses = {c["cell_id"]: c["status"] for c in manifest["cells"]}
        assert sum(1 for s in statuses.values() if s == "computed") == 2
        assert partial.manifest_path == store.manifest_path(spec.name)

        run_campaign(spec, store)
        manifest = load_manifest(store, spec.name)
        assert manifest["interrupted"] is False
        assert manifest["completed_cells"] == manifest["total_cells"]
        assert manifest["aggregates"] is not None
        assert "scenarios" in manifest["timing"]
        # Per-cell timing is recorded for the perf trajectory.
        scenario_rows = manifest["timing"]["scenarios"]["failure-storm"]
        for row in scenario_rows.values():
            assert "events_per_second_mean" in row
            assert "scheduling_mean_seconds" in row
            assert "dispatch_mean_seconds" in row
            assert "drain_mean_seconds" in row

    def test_resume_roundtrips_the_spec(self, spec, tmp_path):
        store = ResultStore(tmp_path / "store")
        run_campaign(spec, store, max_cells=1)
        manifest = load_manifest(store, spec.name)
        assert CampaignSpec.from_dict(manifest["spec"]) == spec

    def test_colliding_sanitised_names_are_rejected(self, tmp_path):
        # "exp/1" and "exp-1" sanitise onto the same manifest file; the
        # second campaign must fail loudly instead of overwriting the first.
        store = ResultStore(tmp_path / "store")
        first = CampaignSpec(
            name="exp/1", scale="smoke", seed=3,
            scenarios=("steady-state",), schedulers=("EF",), repeats=1,
        )
        run_campaign(first, store)
        import dataclasses

        with pytest.raises(ConfigurationError, match="collides"):
            run_campaign(dataclasses.replace(first, name="exp-1"), store)
        # Re-running the *same* campaign is still fine.
        assert run_campaign(first, store).computed == 0

    def test_unknown_campaign_raises(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        with pytest.raises(ConfigurationError, match="no campaign"):
            load_manifest(store, "missing")

    def test_max_cells_validation(self, spec, tmp_path):
        store = ResultStore(tmp_path / "store")
        with pytest.raises(ConfigurationError, match="max_cells"):
            run_campaign(spec, store, max_cells=0)
