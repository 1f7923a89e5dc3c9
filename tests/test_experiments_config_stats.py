"""Tests for experiment scales and statistics helpers."""

import pytest

from repro.experiments import (
    SCALES,
    ExperimentScale,
    default_scale,
    get_scale,
    summarise,
)
from repro.util.errors import ConfigurationError


class TestExperimentScale:
    def test_all_presets_valid(self):
        assert set(SCALES) == {"smoke", "small", "medium", "paper"}
        for scale in SCALES.values():
            assert scale.n_tasks > 0 and scale.repeats > 0

    def test_paper_scale_matches_publication(self):
        paper = get_scale("paper")
        assert paper.n_processors == 50
        assert paper.n_tasks_large == 10000
        assert paper.batch_size == 200
        assert paper.max_generations == 1000

    def test_inverse_comm_costs(self):
        scale = get_scale("small")
        inverses = scale.inverse_comm_costs()
        assert inverses == pytest.approx([1.0 / c for c in scale.comm_cost_means])

    def test_scaled_override(self):
        scale = get_scale("smoke").scaled(repeats=9)
        assert scale.repeats == 9
        assert scale.n_tasks == get_scale("smoke").n_tasks

    def test_get_scale_case_insensitive(self):
        assert get_scale("SMALL").name == "small"

    def test_unknown_scale_rejected(self):
        with pytest.raises(ConfigurationError):
            get_scale("giant")

    def test_default_scale_env_override(self, monkeypatch):
        monkeypatch.delenv("REPRO_PAPER_SCALE", raising=False)
        assert default_scale().name == "small"
        monkeypatch.setenv("REPRO_PAPER_SCALE", "1")
        assert default_scale().name == "paper"

    def test_invalid_scale_construction(self):
        with pytest.raises(ConfigurationError):
            ExperimentScale(
                name="bad",
                n_tasks=10,
                n_tasks_large=10,
                n_processors=2,
                batch_size=5,
                max_generations=5,
                repeats=1,
                comm_cost_means=(),
            )


class TestSummarise:
    def test_basic_statistics(self):
        summary = summarise([1.0, 2.0, 3.0])
        assert summary.mean == 2.0
        assert summary.minimum == 1.0
        assert summary.maximum == 3.0
        assert summary.count == 3
        assert summary.std == pytest.approx(1.0)

    def test_single_sample_has_zero_std(self):
        summary = summarise([5.0])
        assert summary.std == 0.0
        assert summary.standard_error == 0.0

    def test_confidence_interval_contains_mean(self):
        summary = summarise([1.0, 2.0, 3.0, 4.0])
        low, high = summary.confidence_interval()
        assert low <= summary.mean <= high

    def test_format(self):
        assert "±" in format(summarise([1.0, 2.0]))

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            summarise([])

    def test_non_finite_rejected(self):
        with pytest.raises(ConfigurationError):
            summarise([1.0, float("nan")])
