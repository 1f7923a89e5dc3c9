"""Helpers shared by the benchmark modules.

Three concerns live here:

* :class:`FigureCache` — the figure benchmark modules time one expensive
  experiment once and run several cheap shape assertions against the cached
  result;
* :func:`write_bench_record` — the one writer every ``*_speed.py`` /
  ``*_throughput.py`` script uses to emit its BENCH record.  It normalizes
  the record to the schema-v2 shape (machine fingerprint + flat metric
  rows) that :mod:`repro.analysis.scorecard` folds into the scorecard
  history, prints it, writes the json, and renders the Markdown companion
  next to it.  Gating lives centrally in ``repro scorecard check`` — the
  scripts themselves no longer carry per-benchmark ``--check`` flags;
* :func:`load_oracles` — the test suite's reference kernels, which the
  kernel benchmarks time the production kernels against.
"""

from __future__ import annotations

import json
import os
import sys
from types import ModuleType
from typing import Callable, Dict, Optional, Sequence

from repro.analysis.scorecard import (
    bench_row,
    machine_fingerprint,
    make_bench_record,
    render_bench_markdown,
)

__all__ = [
    "FigureCache",
    "bench_row",
    "load_oracles",
    "machine_fingerprint",
    "write_bench_record",
]

#: Where the test suite's oracle module (``oracles.py``) lives.
TESTS_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tests")


class FigureCache:
    """Per-module cache of one figure result keyed by an arbitrary label."""

    def __init__(self) -> None:
        self._results: Dict[str, object] = {}

    def run_once(self, key: str, compute: Callable[[], object], benchmark=None):
        """Compute (and optionally benchmark) the result for *key* exactly once."""
        if key not in self._results:
            if benchmark is not None:
                self._results[key] = benchmark.pedantic(compute, rounds=1, iterations=1)
            else:
                self._results[key] = compute()
        return self._results[key]

    def get(self, key: str, compute: Callable[[], object]):
        """Return the cached result, computing it without timing if needed."""
        return self.run_once(key, compute, benchmark=None)


def load_oracles() -> ModuleType:
    """The test suite's reference kernels (``tests/oracles.py``).

    The loop implementations of the GA and policy kernels are test oracles,
    not part of the program, so the kernel benchmarks import them from the
    test directory to time the production kernels against.
    """
    if TESTS_DIR not in sys.path:
        sys.path.insert(0, TESTS_DIR)
    import oracles

    return oracles


def write_bench_record(
    benchmark: str,
    rows: Sequence[Dict[str, object]],
    *,
    output: Optional[str] = None,
    config: Optional[Dict] = None,
    detail: Optional[Dict] = None,
) -> Dict[str, object]:
    """Emit one schema-v2 BENCH record: stdout, json file, Markdown companion.

    When *output* is given, the json lands there and the human-readable
    companion replaces its extension with ``.md`` (``BENCH_x.json`` →
    ``BENCH_x.md``).
    """
    record = make_bench_record(benchmark, rows, config=config, detail=detail)
    print(json.dumps(record, indent=2))
    if output:
        with open(output, "w", encoding="utf8") as handle:
            json.dump(record, handle, indent=2)
            handle.write("\n")
        companion = os.path.splitext(output)[0] + ".md"
        rendered = render_bench_markdown(record)
        with open(companion, "w", encoding="utf8") as handle:
            handle.write(rendered if rendered.endswith("\n") else rendered + "\n")
    return record
