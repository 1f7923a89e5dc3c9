"""Perf scorecard: one normalized history + dashboard for every benchmark.

The benchmark scripts under ``benchmarks/`` each emit a BENCH json record.
Historically every record had its own shape and its own ``--check`` gate;
this module normalizes them into one schema (v2), folds them — together
with campaign manifests' per-phase timings — into a single history file
(``benchmarks/SCORECARD.json``), renders a Markdown dashboard from that
history, and provides the one regression gate CI runs
(``repro scorecard check``).

Schema v2 record::

    {
      "schema_version": 2,
      "benchmark": "ga_kernel_speed",
      "machine": {"cpu_count": 8, "platform": "...", "python": "...",
                  "numpy": "..."},
      "config": {"seed": 42, "repeats": 3},
      "rows": [
        {"metric": "vectorized_speedup", "scale": "paper", "value": 7.1,
         "unit": "x", "direction": "higher", "tolerance": 0.25, "floor": 1.0}
      ],
      "detail": {...}                      # free-form, benchmark specific
    }

Gating rules (:func:`check_rows`):

* a row with an absolute ``floor`` always gates — e.g. "vectorized must not
  be slower than loop" (floor 1.0) or the paper-scale replay target;
* a row with a ``tolerance`` also gates against the *recorded trajectory*:
  the best comparable history value, relaxed by the tolerance band, becomes
  the floor.  Ratio-like units (``x``, ``ratio``, ``bool``) are comparable
  across machines; absolute units (``events/s``, ``s``, ...) only compare
  when the machine fingerprints match, so a laptop never false-fails
  against a beefy CI runner;
* rows with neither are dashboard-only.
"""

from __future__ import annotations

import json
import os
import platform
from dataclasses import dataclass
from glob import glob
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..util.errors import ConfigurationError

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "SCORECARD_FORMAT_VERSION",
    "RATIO_UNITS",
    "machine_fingerprint",
    "machines_comparable",
    "bench_row",
    "make_bench_record",
    "validate_bench_record",
    "load_bench_record",
    "find_bench_records",
    "manifest_record",
    "telemetry_diff_record",
    "render_bench_markdown",
    "new_history",
    "load_history",
    "save_history",
    "row_label",
    "fold_into_history",
    "render_scorecard_markdown",
    "RowCheck",
    "check_rows",
    "check_records",
]

#: Current BENCH record schema version (see module docstring).
BENCH_SCHEMA_VERSION = 2
#: Current ``SCORECARD.json`` history format version.
SCORECARD_FORMAT_VERSION = 1

#: Units whose values are machine-independent ratios: trajectory comparisons
#: for these rows never require a matching machine fingerprint.
RATIO_UNITS = frozenset({"x", "ratio", "bool"})

_DIRECTIONS = ("higher", "lower")

#: Fields every machine fingerprint carries.
_MACHINE_FIELDS = ("cpu_count", "platform", "python", "numpy")


def machine_fingerprint() -> Dict[str, object]:
    """The environment fields that make perf numbers (in)comparable."""
    return {
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def machines_comparable(a: Optional[Dict], b: Optional[Dict]) -> bool:
    """Whether absolute rates measured on *a* and *b* can be compared.

    Conservative: identical platform string and core count.  Interpreter or
    numpy version changes intentionally stay comparable — those are exactly
    the regressions a trajectory gate should catch.
    """
    if not a or not b:
        return False
    return (
        a.get("platform") == b.get("platform")
        and a.get("cpu_count") == b.get("cpu_count")
    )


def bench_row(
    metric: str,
    value: float,
    unit: str,
    *,
    scale: str = "",
    direction: str = "higher",
    tolerance: Optional[float] = None,
    floor: Optional[float] = None,
) -> Dict[str, object]:
    """One normalized scorecard row (see module docstring for semantics)."""
    if direction not in _DIRECTIONS:
        raise ConfigurationError(
            f"row direction must be one of {_DIRECTIONS}, got {direction!r}"
        )
    if tolerance is not None and not (0.0 <= float(tolerance) < 1.0):
        raise ConfigurationError(f"row tolerance must lie in [0, 1), got {tolerance}")
    return {
        "metric": str(metric),
        "scale": str(scale),
        "value": float(value),
        "unit": str(unit),
        "direction": direction,
        "tolerance": None if tolerance is None else float(tolerance),
        "floor": None if floor is None else float(floor),
    }


def make_bench_record(
    benchmark: str,
    rows: Sequence[Dict[str, object]],
    *,
    config: Optional[Dict] = None,
    detail: Optional[Dict] = None,
    machine: Optional[Dict] = None,
) -> Dict[str, object]:
    """Assemble (and validate) a schema-v2 BENCH record."""
    record = {
        "schema_version": BENCH_SCHEMA_VERSION,
        "benchmark": str(benchmark),
        "machine": dict(machine) if machine is not None else machine_fingerprint(),
        "config": dict(config or {}),
        "rows": [dict(row) for row in rows],
        "detail": dict(detail or {}),
    }
    validate_bench_record(record, source=benchmark)
    return record


def validate_bench_record(record: Dict, source: str = "record") -> None:
    """Raise :class:`ConfigurationError` unless *record* is valid schema v2."""
    if not isinstance(record, dict):
        raise ConfigurationError(f"{source}: BENCH record must be a json object")
    version = record.get("schema_version")
    if version != BENCH_SCHEMA_VERSION:
        raise ConfigurationError(
            f"{source}: expected schema_version {BENCH_SCHEMA_VERSION}, "
            f"got {version!r} (re-run the benchmark to regenerate the record)"
        )
    if not record.get("benchmark") or not isinstance(record["benchmark"], str):
        raise ConfigurationError(f"{source}: BENCH record needs a 'benchmark' name")
    machine = record.get("machine")
    if not isinstance(machine, dict):
        raise ConfigurationError(f"{source}: BENCH record needs a 'machine' object")
    missing = [field for field in _MACHINE_FIELDS if field not in machine]
    if missing:
        raise ConfigurationError(
            f"{source}: machine fingerprint is missing fields {missing}"
        )
    rows = record.get("rows")
    if not isinstance(rows, list) or not rows:
        raise ConfigurationError(f"{source}: BENCH record needs a non-empty 'rows' list")
    for index, row in enumerate(rows):
        where = f"{source}: rows[{index}]"
        if not isinstance(row, dict):
            raise ConfigurationError(f"{where} must be an object")
        for field in ("metric", "value", "unit"):
            if field not in row:
                raise ConfigurationError(f"{where} is missing {field!r}")
        if row.get("direction", "higher") not in _DIRECTIONS:
            raise ConfigurationError(
                f"{where} has invalid direction {row.get('direction')!r}"
            )
        value = row["value"]
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ConfigurationError(f"{where} value must be a number, got {value!r}")


def load_bench_record(path: str) -> Dict:
    """Load and validate one schema-v2 BENCH record from *path*."""
    with open(path, encoding="utf8") as handle:
        record = json.load(handle)
    validate_bench_record(record, source=os.path.basename(path))
    return record


def find_bench_records(paths: Iterable[str]) -> List[str]:
    """Expand files/directories into the BENCH record files they contain.

    Directories contribute their ``BENCH_*.json`` files; explicit file paths
    are taken as-is (so CI artifact layouts need no particular naming).
    """
    found: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            found.extend(sorted(glob(os.path.join(path, "BENCH_*.json"))))
        else:
            found.append(path)
    return found


def manifest_record(path: str) -> Optional[Dict]:
    """A dashboard-only BENCH record from a campaign manifest's timings.

    Folds the scenario matrix per-phase timing means (wall-clock, events/s,
    scheduling / dispatch / drain attribution) into normalized rows under the
    benchmark name ``campaign/<name>``.  Rows carry no tolerance — absolute
    campaign timings gate nothing, they feed the trajectory dashboard.
    Returns ``None`` when the manifest has no timing section.
    """
    with open(path, encoding="utf8") as handle:
        manifest = json.load(handle)
    if manifest.get("kind") != "campaign_manifest":
        raise ConfigurationError(
            f"{os.path.basename(path)}: not a campaign manifest"
        )
    timing = manifest.get("timing") or {}
    scenarios = timing.get("scenarios") or {}
    rows: List[Dict[str, object]] = []
    phase_units = (
        ("events_per_second_mean", "events_per_second", "events/s", "higher"),
        ("wall_clock_mean_seconds", "wall_clock", "s", "lower"),
        ("scheduling_mean_seconds", "scheduling", "s", "lower"),
        ("dispatch_mean_seconds", "dispatch", "s", "lower"),
        ("drain_mean_seconds", "drain", "s", "lower"),
    )
    for scenario in sorted(scenarios):
        for scheduler in sorted(scenarios[scenario]):
            entry = scenarios[scenario][scheduler]
            for key, name, unit, direction in phase_units:
                if key in entry:
                    rows.append(
                        bench_row(
                            f"{scenario}/{scheduler}/{name}",
                            entry[key],
                            unit,
                            direction=direction,
                        )
                    )
    if not rows:
        return None
    machine = manifest.get("machine")
    return make_bench_record(
        f"campaign/{manifest.get('name', 'unnamed')}",
        rows,
        config={"executor": manifest.get("executor", "")},
        machine=machine if isinstance(machine, dict) else _unknown_machine(),
    )


def telemetry_diff_record(path: str) -> Dict:
    """A dashboard-only BENCH record from a ``repro telemetry diff`` record.

    Folds a machine-readable diff (``telemetry diff --output``) into
    normalized rows under the benchmark name ``telemetry-diff/<candidate
    run id>``: the overall elapsed ratio, the significant regression /
    improvement counts, and the per-path elapsed ratio of each significant
    path (worst first, capped).  Rows carry no tolerance or floor — the
    diff *attributes* a regression the throughput gates caught elsewhere;
    it does not gate on its own.  The deepest regressed path and the
    counter deltas ride along in the record's ``detail``.
    """
    from ..telemetry.diff import load_diff_record

    record = load_diff_record(path)
    total_a = float(record.get("total_elapsed_a") or 0.0)
    total_b = float(record.get("total_elapsed_b") or 0.0)
    rows: List[Dict[str, object]] = [
        bench_row(
            "elapsed_ratio",
            (total_b / total_a) if total_a > 0 else 0.0,
            "x",
            direction="lower",
        ),
        bench_row(
            "n_regressions",
            int(record.get("n_regressions", 0)),
            "count",
            direction="lower",
        ),
        bench_row(
            "n_improvements",
            int(record.get("n_improvements", 0)),
            "count",
            direction="higher",
        ),
    ]
    significant = [
        p
        for p in record.get("paths", [])
        if p.get("significant") and p.get("delta_ratio") is not None
    ]
    significant.sort(key=lambda p: abs(float(p.get("delta_seconds", 0.0))), reverse=True)
    for entry in significant[:10]:
        rows.append(
            bench_row(
                f"path/{entry['path']}",
                1.0 + float(entry["delta_ratio"]),
                "x",
                direction="lower",
            )
        )
    run_b = record.get("run_b") or {}
    return make_bench_record(
        f"telemetry-diff/{run_b.get('run_id', 'unnamed')}",
        rows,
        config={
            "run_a": record.get("run_a"),
            "run_b": record.get("run_b"),
            "threshold": record.get("threshold"),
        },
        detail={
            "deepest_regression": record.get("deepest_regression"),
            "counter_deltas": record.get("counter_deltas"),
        },
        machine=_unknown_machine(),
    )


def _unknown_machine() -> Dict[str, object]:
    """Placeholder fingerprint for records predating machine capture.

    Never comparable to a real fingerprint, so such rows stay dashboard-only.
    """
    return {field: None for field in _MACHINE_FIELDS}


# ---------------------------------------------------------------------------
# History file
# ---------------------------------------------------------------------------


def row_label(benchmark: str, row: Dict) -> str:
    """The history key one row's observations accumulate under.

    ``::`` separated because benchmark and metric names may contain ``/``
    (``campaign/ci``, ``steady-state/LL/events_per_second``).
    """
    scale = row.get("scale") or "-"
    return f"{benchmark}::{scale}::{row['metric']}"


def new_history() -> Dict:
    """An empty scorecard history."""
    return {
        "format": "repro-scorecard",
        "version": SCORECARD_FORMAT_VERSION,
        "entries": {},
    }


def load_history(path: str) -> Dict:
    """Load (and validate) a scorecard history file."""
    with open(path, encoding="utf8") as handle:
        history = json.load(handle)
    if (
        not isinstance(history, dict)
        or history.get("format") != "repro-scorecard"
        or history.get("version") != SCORECARD_FORMAT_VERSION
        or not isinstance(history.get("entries"), dict)
    ):
        raise ConfigurationError(
            f"{os.path.basename(path)}: not a version-{SCORECARD_FORMAT_VERSION} "
            "repro-scorecard history file"
        )
    return history


def save_history(history: Dict, path: str) -> str:
    """Write the history file (atomically, like every other repro saver)."""
    from ..io.results import atomic_write_json

    return atomic_write_json(history, path)


def fold_into_history(history: Dict, records: Iterable[Dict]) -> int:
    """Append each record row to its history series; returns points added.

    Idempotent: a row identical to the newest point of its series (same
    value and machine) is skipped, so re-building from unchanged BENCH
    files leaves the history byte-for-byte unchanged.
    """
    added = 0
    entries = history["entries"]
    for record in records:
        machine = record["machine"]
        for row in record["rows"]:
            label = row_label(record["benchmark"], row)
            point = {
                "value": row["value"],
                "unit": row["unit"],
                "direction": row.get("direction", "higher"),
                "tolerance": row.get("tolerance"),
                "floor": row.get("floor"),
                "machine": machine,
            }
            series = entries.setdefault(label, [])
            if series and series[-1] == point:
                continue
            series.append(point)
            added += 1
    return added


# ---------------------------------------------------------------------------
# Checking
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RowCheck:
    """Outcome of gating one measured row against floors and history."""

    label: str
    status: str  # "PASS" | "FAIL" | "SKIP"
    message: str


def _beats(value: float, limit: float, direction: str) -> bool:
    return value >= limit if direction == "higher" else value <= limit


def _best(values: Sequence[float], direction: str) -> float:
    return max(values) if direction == "higher" else min(values)


def check_rows(
    benchmark: str,
    rows: Sequence[Dict],
    machine: Dict,
    history: Dict,
) -> List[RowCheck]:
    """Gate measured *rows* against absolute floors and the history."""
    checks: List[RowCheck] = []
    entries = history.get("entries", {})
    for row in rows:
        label = row_label(benchmark, row)
        value = float(row["value"])
        direction = row.get("direction", "higher")
        unit = row["unit"]

        floor = row.get("floor")
        if floor is not None and not _beats(value, float(floor), direction):
            checks.append(
                RowCheck(
                    label,
                    "FAIL",
                    f"{value:g} {unit} violates the absolute floor {floor:g}",
                )
            )
            continue

        tolerance = row.get("tolerance")
        if tolerance is None:
            note = (
                f"meets the absolute floor {floor:g}"
                if floor is not None
                else "(dashboard-only)"
            )
            checks.append(RowCheck(label, "PASS", f"{value:g} {unit} {note}"))
            continue

        comparable = [
            float(point["value"])
            for point in entries.get(label, [])
            if unit in RATIO_UNITS
            or machines_comparable(point.get("machine"), machine)
        ]
        if not comparable:
            checks.append(
                RowCheck(
                    label,
                    "SKIP",
                    f"{value:g} {unit}: no comparable history on this machine",
                )
            )
            continue
        best = _best(comparable, direction)
        band = float(tolerance)
        limit = best * (1.0 - band) if direction == "higher" else best * (1.0 + band)
        if _beats(value, limit, direction):
            checks.append(
                RowCheck(
                    label,
                    "PASS",
                    f"{value:g} {unit} within {band:.0%} of best {best:g}",
                )
            )
        else:
            checks.append(
                RowCheck(
                    label,
                    "FAIL",
                    f"{value:g} {unit} regressed more than {band:.0%} from the "
                    f"recorded best {best:g} (limit {limit:g})",
                )
            )
    return checks


def check_records(
    records: Iterable[Dict], history: Dict
) -> Tuple[bool, List[RowCheck]]:
    """Gate every record; returns ``(any_failed, per-row results)``."""
    checks: List[RowCheck] = []
    for record in records:
        checks.extend(
            check_rows(record["benchmark"], record["rows"], record["machine"], history)
        )
    return any(check.status == "FAIL" for check in checks), checks


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def _fmt(value: Optional[float]) -> str:
    if value is None:
        return "—"
    return f"{float(value):g}"


def render_bench_markdown(record: Dict) -> str:
    """The Markdown companion written next to each BENCH json record."""
    machine = record["machine"]
    lines = [
        f"# BENCH: {record['benchmark']}",
        "",
        f"Machine: {machine.get('platform')} · {machine.get('cpu_count')} cores · "
        f"python {machine.get('python')} · numpy {machine.get('numpy')}",
        "",
        "| metric | scale | value | unit | floor | tolerance |",
        "|---|---|---:|---|---:|---:|",
    ]
    for row in record["rows"]:
        lines.append(
            f"| {row['metric']} | {row.get('scale') or '-'} | {row['value']:g} "
            f"| {row['unit']} | {_fmt(row.get('floor'))} "
            f"| {_fmt(row.get('tolerance'))} |"
        )
    lines += [
        "",
        "Generated by the benchmark's record mode; regenerate with the command "
        "in the module docstring.  Gating happens centrally via "
        "`repro scorecard check` (see benchmarks/SCORECARD.md).",
        "",
    ]
    return "\n".join(lines)


def render_scorecard_markdown(history: Dict) -> str:
    """The dashboard: every metric's trajectory, grouped by benchmark."""
    entries = history.get("entries", {})
    by_benchmark: Dict[str, List[Tuple[str, str, List[Dict]]]] = {}
    for label in sorted(entries):
        benchmark, scale, metric = label.split("::", 2)
        by_benchmark.setdefault(benchmark, []).append((scale, metric, entries[label]))

    lines = [
        "# Performance scorecard",
        "",
        "One trajectory per benchmark metric, folded from every BENCH record "
        "and campaign manifest by `repro scorecard build`.  CI gates fresh "
        "measurements against this history with `repro scorecard check`: "
        "rows with an absolute floor always gate; rows with a tolerance gate "
        "against the best comparable recorded value; ratio units (x, bool) "
        "compare across machines, absolute units only on a matching machine "
        "fingerprint.",
        "",
    ]
    for benchmark in sorted(by_benchmark):
        lines += [
            f"## {benchmark}",
            "",
            "| metric | scale | latest | unit | best | floor | tolerance | points |",
            "|---|---|---:|---|---:|---:|---:|---:|",
        ]
        for scale, metric, series in by_benchmark[benchmark]:
            latest = series[-1]
            direction = latest.get("direction", "higher")
            best = _best([float(p["value"]) for p in series], direction)
            lines.append(
                f"| {metric} | {scale} | {latest['value']:g} | {latest['unit']} "
                f"| {best:g} | {_fmt(latest.get('floor'))} "
                f"| {_fmt(latest.get('tolerance'))} | {len(series)} |"
            )
        lines.append("")
    return "\n".join(lines)
