#!/usr/bin/env python3
"""Benchmark: trace-driven workload replay through the fast simulation path.

Exercises the full trace pipeline end-to-end: synthesize a bursty
(piecewise-rate inhomogeneous-Poisson) arrival trace, write it to disk,
re-load it through :class:`repro.workloads.traces.TraceSpec` (content-hash
verified), materialise the task set, and push it through the fast
simulation backend with an immediate-mode scheduler.  Reports the sustained
simulation throughput in tasks/second plus the per-stage wall-clock split.

Two preset sizes are built in:

* ``smoke`` — 20,000 tasks, CI-sized;
* ``million`` — 1,000,000 tasks on 50 processors: the scale target the
  trace subsystem is gated on (the whole pipeline must stay minutes, not
  hours).

Writes a schema-v2 BENCH record (the default target is the committed one)::

    PYTHONPATH=src python benchmarks/trace_throughput.py \
        --scale smoke --output benchmarks/BENCH_traces.json

Regression gating happens centrally via ``repro scorecard check``: the
``task_conservation`` row carries a hard floor of 1.0 (every trace task must
complete exactly once), and the tasks/s rows gate with a loose 60 %
trajectory tolerance on matching machine fingerprints only.
"""

from __future__ import annotations

import argparse
import os
import tempfile
import time
from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from _shared import bench_row, write_bench_record
from repro.cluster.topology import heterogeneous_cluster
from repro.schedulers.registry import make_scheduler
from repro.sim.simulation import simulate_schedule
from repro.workloads.traces import TraceSpec, make_bursty_trace, save_trace

DEFAULT_RECORD = os.path.join(os.path.dirname(__file__), "BENCH_traces.json")
#: Allowed fractional tasks/s regression below the recorded trajectory.
TASKS_TOLERANCE = 0.6


@dataclass(frozen=True)
class TraceScale:
    """One benchmark problem size."""

    name: str
    n_tasks: int
    n_processors: int
    batch_size: int


SCALES: Dict[str, TraceScale] = {
    "smoke": TraceScale(name="smoke", n_tasks=20000, n_processors=20, batch_size=500),
    "million": TraceScale(
        name="million", n_tasks=1_000_000, n_processors=50, batch_size=1000
    ),
}


def measure_scale(scale: TraceScale, seed: int) -> Dict[str, object]:
    """Per-stage wall-clock of the full trace pipeline at one scale."""
    stages: Dict[str, float] = {}
    start = time.perf_counter()
    trace = make_bursty_trace(scale.n_tasks, seed=seed)
    stages["generate"] = time.perf_counter() - start

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, f"bursty_{scale.name}.csv")
        start = time.perf_counter()
        save_trace(trace, path)
        stages["save"] = time.perf_counter() - start

        start = time.perf_counter()
        spec = TraceSpec.from_file(path)
        tasks = spec.materialise()
        stages["load_materialise"] = time.perf_counter() - start

    cluster = heterogeneous_cluster(
        scale.n_processors, mean_comm_cost=5.0, rng=np.random.default_rng(seed + 1)
    )
    scheduler = make_scheduler(
        "LL",
        n_processors=scale.n_processors,
        batch_size=scale.batch_size,
        max_generations=10,
        rng=seed + 2,
    )
    start = time.perf_counter()
    result = simulate_schedule(scheduler, cluster, tasks, rng=seed + 3)
    stages["simulate"] = time.perf_counter() - start

    completed = result.trace.task_ids()
    conserved = len(completed) == scale.n_tasks and len(set(completed.tolist())) == len(
        completed
    )
    return {
        "n_tasks": scale.n_tasks,
        "n_processors": scale.n_processors,
        "batch_size": scale.batch_size,
        "arrival_span_seconds": round(float(trace.arrival_time[-1]), 1),
        "stages_seconds": {k: round(v, 3) for k, v in stages.items()},
        "end_to_end_seconds": round(sum(stages.values()), 3),
        "sim_tasks_per_second": round(scale.n_tasks / stages["simulate"], 1),
        "task_conservation": conserved,
        "makespan": round(result.makespan, 2),
    }


def run_record(args: argparse.Namespace) -> int:
    names = [args.scale] if args.scale != "all" else sorted(SCALES)
    detail = {name: measure_scale(SCALES[name], args.seed) for name in names}
    rows: List[Dict[str, object]] = []
    for name in names:
        measured = detail[name]
        rows.append(
            bench_row(
                "task_conservation",
                1.0 if measured["task_conservation"] else 0.0,
                "bool",
                scale=name,
                floor=1.0,
            )
        )
        rows.append(
            bench_row(
                "sim_tasks_per_second",
                measured["sim_tasks_per_second"],
                "tasks/s",
                scale=name,
                tolerance=TASKS_TOLERANCE,
            )
        )
        rows.append(
            bench_row(
                "end_to_end_seconds",
                measured["end_to_end_seconds"],
                "s",
                scale=name,
                direction="lower",
            )
        )
    write_bench_record(
        "trace_throughput",
        rows,
        output=args.output,
        config={"seed": args.seed, "workload": "bursty", "scheduler": "LL"},
        detail=detail,
    )
    return 0


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--scale",
        default="smoke",
        choices=[*sorted(SCALES), "all"],
        help="benchmark size to run (default: smoke)",
    )
    parser.add_argument("--seed", type=int, default=42, help="master random seed")
    parser.add_argument("--output", default=None, help="write the BENCH json here")
    return parser.parse_args()


def main() -> int:
    return run_record(parse_args())


if __name__ == "__main__":
    raise SystemExit(main())
