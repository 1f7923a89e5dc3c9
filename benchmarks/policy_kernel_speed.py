#!/usr/bin/env python3
"""Benchmark: loop oracle vs vectorized policy kernels, in sims/second.

Times the same seeded static simulation under both policy-kernel
implementations (``loop``, the test suite's per-task oracle in
``tests/oracles.py``, which runs under the oracle master that places an
immediate-mode policy one task per invocation; ``vectorized``, the
production kernels of :mod:`repro.schedulers.kernels` under the production
master, which places whole immediate-mode arrival waves through one kernel
call) and
reports simulations/second per implementation plus the vectorized/loop
speedup.  Before any timing it asserts the two are *bit-identical* — on
makespan, efficiency, response times, invocation bookkeeping and the full
execution trace — across all four (policy kernels × simulation path)
combinations, the event path forced through the test suite's
``oracles.sim_path`` harness: the kernels are only a win because they
change nothing.

Each scale times three cells:

* ``immediate`` — the EF immediate-mode baseline: one policy invocation per
  task on the loop path, one kernel wave per arrival burst on the
  vectorized path.  The scheduling-bound worst case the ROADMAP targets,
  and the cell the ≥2.5x paper-scale floor applies to;
* ``rotation`` — RR: near-zero decision arithmetic, so the cell isolates
  the pure per-task Python machinery the wave eliminates;
* ``batch`` — MM with the scale's fixed batch size: the sort + greedy
  placement loop routed through the batch kernels.

Two preset sizes are built in: ``smoke`` (CI-sized) and ``paper`` (the
publication's 10,000-task, 50-processor immediate-mode cell).

Writes a schema-v2 BENCH record (the default target is the committed one)::

    PYTHONPATH=src python benchmarks/policy_kernel_speed.py \
        --scale all --output benchmarks/BENCH_policy_kernels.json

Regression gating happens centrally via ``repro scorecard check``: every
cell's speedup row carries a hard floor of 1.0 (vectorized must never lose
to the loop path), the ``immediate`` rows add a 30 % trajectory tolerance,
and the paper-scale ``immediate`` row keeps the 2.5x absolute floor this
work targets.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import time
from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from _shared import bench_row, load_oracles, write_bench_record
from repro.cluster.topology import heterogeneous_cluster
from repro.schedulers.registry import make_scheduler
from repro.sim.simulation import simulate_schedule
from repro.workloads.generator import generate_workload
from repro.workloads.suites import workload_by_name

DEFAULT_RECORD = os.path.join(os.path.dirname(__file__), "BENCH_policy_kernels.json")
_ORACLES = load_oracles()
#: Policy-kernel implementations timed, by record key: ``loop`` (the
#: oracle) and ``vectorized`` (production).
POLICY_KERNELS = _ORACLES.POLICY_KERNELS
#: Minimum vectorized/loop speedup of the ``immediate`` cell at paper scale.
PAPER_IMMEDIATE_FLOOR = 2.5
#: Allowed fractional ``immediate`` speedup regression below the trajectory.
IMMEDIATE_TOLERANCE = 0.3


@dataclass(frozen=True)
class PolicyScale:
    """One benchmark problem size."""

    name: str
    n_tasks: int
    n_processors: int
    batch_size: int
    mean_comm_cost: float


SCALES: Dict[str, PolicyScale] = {
    "smoke": PolicyScale(
        name="smoke", n_tasks=600, n_processors=10, batch_size=120, mean_comm_cost=5.0
    ),
    "paper": PolicyScale(
        name="paper", n_tasks=10000, n_processors=50, batch_size=200, mean_comm_cost=20.0
    ),
}

#: The three timed cells: (cell name, scheduler, batch size resolver).
CELLS = (
    ("immediate", "EF", lambda scale: scale.batch_size),
    ("rotation", "RR", lambda scale: scale.batch_size),
    ("batch", "MM", lambda scale: scale.batch_size),
)


def build_inputs(scale: PolicyScale, seed: int):
    """The workload and cluster shared by every cell of one scale."""
    tasks = generate_workload(
        workload_by_name("normal", scale.n_tasks), np.random.default_rng(seed)
    )
    cluster = heterogeneous_cluster(
        scale.n_processors,
        mean_comm_cost=scale.mean_comm_cost,
        rng=np.random.default_rng(seed + 1),
    )
    return tasks, cluster


def run_once(
    scale: PolicyScale,
    scheduler_name: str,
    batch_size: int,
    kernels_name: str,
    seed: int,
    path: str = "fast",
):
    tasks, cluster = build_inputs(scale, seed)
    scheduler = make_scheduler(
        scheduler_name,
        n_processors=scale.n_processors,
        batch_size=batch_size,
        max_generations=10,
        rng=seed + 2,
    )
    kernels = POLICY_KERNELS[kernels_name]()
    start = time.perf_counter()
    with _ORACLES.policy_kernels_installed(kernels), _ORACLES.sim_path(path):
        result = simulate_schedule(scheduler, cluster, tasks, rng=seed + 3)
    elapsed = time.perf_counter() - start
    return result, elapsed


def result_digest(result) -> str:
    """Digest of every trace-visible number (for the backend-parity check)."""
    h = hashlib.sha256()
    trace = result.trace
    for name in (
        "task_id",
        "proc_id",
        "size_mflops",
        "arrival_time",
        "assigned_time",
        "dispatch_time",
        "exec_start",
        "exec_end",
    ):
        h.update(trace.column(name).tobytes())
    h.update(repr((result.makespan, result.efficiency)).encode())
    h.update(repr(result.metrics.mean_response_time).encode())
    h.update(repr(result.scheduler_invocations).encode())
    h.update(repr(tuple(result.batch_sizes)).encode())
    return h.hexdigest()


def assert_backend_parity(scale: PolicyScale, seed: int) -> None:
    """Fail loudly if any backend combination diverges on this scale's cells.

    Covers the full (policy kernels x simulation path) grid so the
    vectorized wave is gated against the per-task path on *both* simulation
    cores — the wave runs in the master and must be invisible to each.
    """
    for cell, scheduler_name, batch_of in CELLS:
        digests = set()
        for kernels_name in POLICY_KERNELS:
            for path in _ORACLES.SIM_PATHS:
                result, _ = run_once(
                    scale, scheduler_name, batch_of(scale), kernels_name, seed,
                    path=path,
                )
                digests.add(result_digest(result))
        if len(digests) != 1:
            raise SystemExit(
                f"backend parity violated on scale={scale.name} cell={cell}: "
                "loop/vectorized (or event/fast) simulation results differ"
            )


def measure_cell(
    scale: PolicyScale, scheduler_name: str, batch_size: int, seed: int, repeats: int
):
    """Best-of-*repeats* sims/sec per policy-kernel implementation."""
    best: Dict[str, float] = {}
    invocations = 0
    for kernels_name in POLICY_KERNELS:
        fastest = float("inf")
        for _ in range(repeats):
            result, elapsed = run_once(
                scale, scheduler_name, batch_size, kernels_name, seed
            )
            fastest = min(fastest, elapsed)
            invocations = result.scheduler_invocations
        best[kernels_name] = fastest
    return {
        "scheduler": scheduler_name,
        "batch_size": batch_size,
        "scheduler_invocations": invocations,
        "sims_per_second": {
            "loop": round(1.0 / best["loop"], 3),
            "vectorized": round(1.0 / best["vectorized"], 3),
        },
        "speedup": round(best["loop"] / best["vectorized"], 3),
    }


def measure_scale(scale: PolicyScale, seed: int, repeats: int) -> Dict[str, object]:
    assert_backend_parity(scale, seed)
    cells = {
        cell: measure_cell(scale, scheduler_name, batch_of(scale), seed, repeats)
        for cell, scheduler_name, batch_of in CELLS
    }
    return {
        "n_tasks": scale.n_tasks,
        "n_processors": scale.n_processors,
        "batch_size": scale.batch_size,
        "mean_comm_cost": scale.mean_comm_cost,
        "backend_parity": "bit-identical",
        "cells": cells,
    }


def run_record(args: argparse.Namespace) -> int:
    names = sorted(SCALES) if args.scale == "all" else [args.scale]
    detail = {name: measure_scale(SCALES[name], args.seed, args.repeats) for name in names}
    rows: List[Dict[str, object]] = []
    for name in names:
        for cell, data in detail[name]["cells"].items():
            floor = 1.0
            tolerance = None
            if cell == "immediate":
                tolerance = IMMEDIATE_TOLERANCE
                if name == "paper":
                    floor = PAPER_IMMEDIATE_FLOOR
            rows.append(
                bench_row(
                    f"{cell}_speedup",
                    data["speedup"],
                    "x",
                    scale=name,
                    tolerance=tolerance,
                    floor=floor,
                )
            )
    write_bench_record(
        "policy_kernel_speed",
        rows,
        output=args.output,
        config={"seed": args.seed, "repeats": args.repeats},
        detail=detail,
    )
    return 0


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--scale",
        default="all",
        choices=[*sorted(SCALES), "all"],
        help="benchmark size to run (default: all)",
    )
    parser.add_argument("--seed", type=int, default=42, help="master random seed")
    parser.add_argument(
        "--repeats", type=int, default=3, help="timing repeats; the best is kept"
    )
    parser.add_argument("--output", default=None, help="write the BENCH json here")
    return parser.parse_args()


def main() -> int:
    return run_record(parse_args())


if __name__ == "__main__":
    raise SystemExit(main())
