#!/usr/bin/env python3
"""Benchmark: what the telemetry layer costs — and proves it costs nothing off.

Times the fast-path ``replay`` cell of :mod:`sim_core_speed` (one MM
scheduling wave over the whole workload, a static run) three ways:

* **disabled** — no telemetry session active: the production default.  The
  instrumentation must reduce to a module-global read, so this number is
  gated with a 2 % trajectory tolerance against the recorded history — the
  "telemetry off is free" contract of ``repro.telemetry``;
* **enabled** — the same cell inside a :func:`repro.telemetry.
  telemetry_session`: spans, phase attribution and metrics all recording.
  Reported as an overhead ratio over the disabled run with a hard 1.5x
  ceiling (measured overheads are a few percent; the ceiling guards against
  someone accidentally putting allocation on the hot path);
* **resources** — enabled *plus* per-span resource attribution
  (``capture_resources=True``: process-CPU, RSS delta and GC counts read at
  every span boundary).  Reported as ``resource_overhead_x`` over the same
  disabled baseline, gated by the same 1.5x ceiling — the probes are a few
  syscalls per span, not per simulated event, so they must stay in the noise;
* **rng-inert** — before any timing, all three runs must be bit-identical on
  the full execution trace (a ``bool`` row with floor 1.0, so the scorecard
  hard-fails if telemetry — including resource capture — ever perturbs a
  result).

Writes a schema-v2 BENCH record (the default target is the committed one)::

    PYTHONPATH=src python benchmarks/telemetry_overhead.py \
        --scale all --output benchmarks/BENCH_telemetry.json

Gating happens centrally via ``repro scorecard check``.
"""

from __future__ import annotations

import argparse
import os
import time
from typing import Dict, List

from _shared import bench_row, write_bench_record
from sim_core_speed import SCALES, SimScale, build_inputs, result_digest

from repro.schedulers.registry import make_scheduler
from repro.sim.simulation import simulate_schedule
from repro.telemetry import TelemetrySession, telemetry_session

DEFAULT_RECORD = os.path.join(os.path.dirname(__file__), "BENCH_telemetry.json")
#: Allowed fractional regression of the disabled (no-op) path's throughput.
DISABLED_TOLERANCE = 0.02
#: Hard ceiling on the enabled/disabled wall-time ratio; resource capture is
#: held to the same ceiling (its probes are per-span, not per-event).
ENABLED_OVERHEAD_CEILING = 1.5
RESOURCE_OVERHEAD_CEILING = 1.5

#: Benchmark modes: session factory per mode (``None`` = no session).
MODES = (
    ("disabled", None),
    ("enabled", lambda: TelemetrySession()),
    ("resources", lambda: TelemetrySession(capture_resources=True)),
)


def run_once(scale: SimScale, seed: int, session_factory):
    """One fast-path replay simulation; returns ``(result, seconds)``."""
    tasks, cluster = build_inputs(scale, seed)
    scheduler = make_scheduler(
        "MM",
        n_processors=scale.n_processors,
        batch_size=scale.n_tasks,
        max_generations=10,
        rng=seed + 2,
    )
    def timed_run():
        start = time.perf_counter()
        result = simulate_schedule(scheduler, cluster, tasks, rng=seed + 3)
        return result, time.perf_counter() - start

    if session_factory is None:
        return timed_run()
    with telemetry_session(session_factory()):
        return timed_run()


def measure_scale(scale: SimScale, seed: int, repeats: int) -> Dict[str, object]:
    """Best-of-*repeats* timings plus the bit-identity verdict for one scale."""
    digests = {}
    best = {}
    run_once(scale, seed, None)  # warm caches before any timing
    for mode, session_factory in MODES:
        fastest = float("inf")
        for _ in range(repeats):
            result, elapsed = run_once(scale, seed, session_factory)
            fastest = min(fastest, elapsed)
        digests[mode] = result_digest(result)
        best[mode] = fastest
    return {
        "n_tasks": scale.n_tasks,
        "n_processors": scale.n_processors,
        "rng_inert": len(set(digests.values())) == 1,
        "disabled_seconds": round(best["disabled"], 6),
        "enabled_seconds": round(best["enabled"], 6),
        "resources_seconds": round(best["resources"], 6),
        "disabled_sims_per_second": round(1.0 / best["disabled"], 3),
        "enabled_overhead_x": round(best["enabled"] / best["disabled"], 4),
        "resource_overhead_x": round(best["resources"] / best["disabled"], 4),
    }


def run_record(args: argparse.Namespace) -> int:
    names = sorted(SCALES) if args.scale == "all" else [args.scale]
    detail = {name: measure_scale(SCALES[name], args.seed, args.repeats) for name in names}
    rows: List[Dict[str, object]] = []
    for name in names:
        data = detail[name]
        rows.append(
            bench_row(
                "disabled_sims_per_sec",
                data["disabled_sims_per_second"],
                "sims/s",
                scale=name,
                tolerance=DISABLED_TOLERANCE,
            )
        )
        rows.append(
            bench_row(
                "enabled_overhead_x",
                data["enabled_overhead_x"],
                "x",
                scale=name,
                direction="lower",
                floor=ENABLED_OVERHEAD_CEILING,
            )
        )
        rows.append(
            bench_row(
                "resource_overhead_x",
                data["resource_overhead_x"],
                "x",
                scale=name,
                direction="lower",
                floor=RESOURCE_OVERHEAD_CEILING,
            )
        )
        rows.append(
            bench_row(
                "rng_inert",
                1.0 if data["rng_inert"] else 0.0,
                "bool",
                scale=name,
                floor=1.0,
            )
        )
    write_bench_record(
        "telemetry_overhead",
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
        "--repeats", type=int, default=5, help="timing repeats; the best is kept"
    )
    parser.add_argument("--output", default=None, help="write the BENCH json here")
    return parser.parse_args()


def main() -> int:
    return run_record(parse_args())


if __name__ == "__main__":
    raise SystemExit(main())
