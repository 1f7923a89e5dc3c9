"""Tests for experiment-result persistence (JSON)."""

import json

import pytest

from repro.experiments import compare_schedulers, figure4, get_scale
from repro.experiments.figures import FigureResult
from repro.io import figure_to_dict
from repro.workloads import normal_paper_workload


@pytest.fixture(scope="module")
def series_figure():
    return FigureResult(
        figure_id="fig5",
        title="efficiency sweep",
        kind="series",
        x_name="1/mean_comm_cost",
        x_values=[0.01, 0.1],
        series={"PN": [0.3, 0.6], "EF": [0.2, 0.4]},
        expectation="PN wins",
        metadata={"scale": "small"},
    )


@pytest.fixture(scope="module")
def real_figure():
    scale = get_scale("smoke").scaled(
        n_tasks=20, n_processors=3, repeats=1, convergence_generations=5, batch_size=10
    )
    return figure4(scale=scale, seed=0, rebalance_levels=(0, 1))


class TestFigureDictRoundTrip:
    def test_payload_carries_the_figure_data(self, series_figure):
        payload = figure_to_dict(series_figure)
        assert payload["format_version"] == 1
        assert payload["figure_id"] == series_figure.figure_id
        assert payload["kind"] == "series"
        assert payload["x_values"] == series_figure.x_values
        assert payload["series"] == series_figure.series
        assert payload["expectation"] == series_figure.expectation
        assert payload["metadata"] == {"scale": "small"}
        assert payload["comparison_summaries"] == []

    def test_dict_is_json_serialisable(self, real_figure):
        payload = figure_to_dict(real_figure)
        text = json.dumps(payload)
        assert "fig4" in text

    def test_comparison_summaries_embedded(self):
        scale = get_scale("smoke").scaled(n_tasks=15, n_processors=3, repeats=1, max_generations=4)
        comparison = compare_schedulers(
            normal_paper_workload(scale.n_tasks),
            scale,
            mean_comm_cost=2.0,
            scheduler_names=["EF", "RR"],
            seed=0,
        )
        figure = FigureResult(
            figure_id="fig6",
            title="t",
            kind="bars",
            x_name="scheduler",
            x_values=[0.0],
            series={"EF": [1.0], "RR": [2.0]},
            expectation="",
            comparisons=[comparison],
        )
        payload = figure_to_dict(figure)
        assert payload["comparison_summaries"][0]["schedulers"]["EF"]["makespan_mean"] > 0
