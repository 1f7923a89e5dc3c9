"""Experiment harness reproducing the paper's evaluation (Figs. 3–11)."""

from .config import SCALES, ExperimentScale, default_scale, get_scale
from .figures import (
    FIGURES,
    FigureResult,
    figure3,
    figure4,
    figure5,
    figure6,
    figure7,
    figure8,
    figure9,
    figure10,
    figure11,
    list_figures,
    run_figure,
)
from .reporting import comparison_table, experiment_summary, figure_report
from .runner import ComparisonResult, SchedulerComparison, compare_schedulers
from .stats import SampleSummary, summarise
from .sweep import SweepPoint, SweepResult, make_benchmark_problem, sweep_ga_parameter

__all__ = [
    "ExperimentScale",
    "SCALES",
    "get_scale",
    "default_scale",
    "FigureResult",
    "figure3",
    "figure4",
    "figure5",
    "figure6",
    "figure7",
    "figure8",
    "figure9",
    "figure10",
    "figure11",
    "FIGURES",
    "run_figure",
    "list_figures",
    "ComparisonResult",
    "SchedulerComparison",
    "compare_schedulers",
    "comparison_table",
    "figure_report",
    "experiment_summary",
    "SampleSummary",
    "summarise",
    "SweepPoint",
    "SweepResult",
    "make_benchmark_problem",
    "sweep_ga_parameter",
]
