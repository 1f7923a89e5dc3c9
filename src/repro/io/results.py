"""Persistence of experiment results as JSON.

The experiment harness can take minutes to hours at paper scale, so its
outputs are stored rather than recomputed: the campaign store keeps each
figure as :func:`figure_to_dict` output, and ``repro scenarios --output``
writes a scenario matrix with :func:`save_scenario_matrix_json`.  Every
file goes through :func:`atomic_write_json`.
"""

from __future__ import annotations

import json
import os
from typing import TYPE_CHECKING, Dict, Union

from ..experiments.figures import FigureResult

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from ..scenarios.runner import ScenarioMatrixResult

__all__ = [
    "atomic_write_json",
    "figure_to_dict",
    "scenario_matrix_to_dict",
    "save_scenario_matrix_json",
]

#: Version stamp embedded in every serialised payload, so a reader can detect
#: future format changes.
FORMAT_VERSION = 1


def atomic_write_json(payload: Dict, path: Union[str, os.PathLike]) -> str:
    """Write *payload* to *path* as pretty JSON, atomically; returns the path.

    The payload is written to a sibling temporary file and moved into place
    with :func:`os.replace`, so a reader (or a crash) can never observe a
    half-written file — the campaign runner checkpoints its manifest after
    every completed cell through this helper.
    """
    path = os.fspath(path)
    tmp_path = f"{path}.tmp.{os.getpid()}"
    with open(tmp_path, "w", encoding="utf8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    os.replace(tmp_path, path)
    return path


def figure_to_dict(figure: FigureResult) -> Dict:
    """Convert a figure result to a JSON-serialisable dictionary.

    The underlying per-condition comparison objects are summarised (means and
    standard deviations only); the full sample lists are not retained.
    """
    comparisons = []
    for comparison in figure.comparisons:
        comparisons.append(
            {
                "condition": comparison.condition,
                "repeats": comparison.repeats,
                "executor": comparison.executor,
                "schedulers": {
                    name: {
                        "makespan_mean": cmp.makespan.mean,
                        "makespan_std": cmp.makespan.std,
                        "efficiency_mean": cmp.efficiency.mean,
                        "efficiency_std": cmp.efficiency.std,
                    }
                    for name, cmp in comparison.schedulers.items()
                },
            }
        )
    return {
        "format_version": FORMAT_VERSION,
        "figure_id": figure.figure_id,
        "title": figure.title,
        "kind": figure.kind,
        "x_name": figure.x_name,
        "x_values": list(map(float, figure.x_values)),
        "series": {name: list(map(float, values)) for name, values in figure.series.items()},
        "expectation": figure.expectation,
        "metadata": dict(figure.metadata),
        "comparison_summaries": comparisons,
    }


def scenario_matrix_to_dict(result: "ScenarioMatrixResult") -> Dict:
    """Convert a scenario-matrix result to a JSON-serialisable dictionary.

    ``aggregates`` holds the executor-independent numbers (the runner's
    :meth:`~repro.scenarios.runner.ScenarioMatrixResult.signature`), so two
    payloads from the same seed must have equal ``aggregates`` regardless of
    how many worker processes computed them — CI relies on this.
    """
    return {
        "format_version": FORMAT_VERSION,
        "kind": "scenario_matrix",
        "scenarios": list(result.scenarios),
        "schedulers": list(result.schedulers),
        "repeats": result.repeats,
        "scale": result.scale_name,
        "executor": result.executor,
        "conservation_ok": result.conservation_ok(),
        "aggregates": result.signature(),
        # Machine-dependent wall-clock / events-per-second summaries; kept
        # outside "aggregates" so determinism comparisons (CI's serial vs
        # --jobs N equality) can ignore them wholesale.
        "timing": result.timing(),
    }


def save_scenario_matrix_json(
    result: "ScenarioMatrixResult", path: Union[str, os.PathLike]
) -> str:
    """Write a scenario-matrix result to *path* as pretty JSON; returns the path."""
    return atomic_write_json(scenario_matrix_to_dict(result), path)
