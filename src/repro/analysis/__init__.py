"""Analysis utilities: schedule validation and the benchmark scorecard."""

from .scorecard import (
    RowCheck,
    bench_row,
    check_records,
    fold_into_history,
    load_bench_record,
    load_history,
    machine_fingerprint,
    machines_comparable,
    make_bench_record,
    new_history,
    render_bench_markdown,
    render_scorecard_markdown,
    save_history,
    validate_bench_record,
)
from .schedule_check import (
    ValidationIssue,
    ValidationReport,
    validate_simulation,
    validate_trace,
)

__all__ = [
    "RowCheck",
    "bench_row",
    "check_records",
    "fold_into_history",
    "load_bench_record",
    "load_history",
    "machine_fingerprint",
    "machines_comparable",
    "make_bench_record",
    "new_history",
    "render_bench_markdown",
    "render_scorecard_markdown",
    "save_history",
    "validate_bench_record",
    "ValidationIssue",
    "ValidationReport",
    "validate_trace",
    "validate_simulation",
]
