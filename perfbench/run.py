"""One-command end-to-end benchmark of the PN scheduling reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload pn-fig5 --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
runs a fixed number of units untraced and then traced, and reports the
per-layer metrics.  Both modes run the correctness checks, print a
human-readable summary and the SHA-256 digest of the workload's aggregates,
and end with one JSON line::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

The exit code is 0 when every check passed, 1 when one failed, and 2 when the
program under test cannot be found (``src/repro`` missing).  See README.md in
this directory for the workloads and how to read the numbers.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("pn-fig5", "heuristics-10k", "campaign-cold", "campaign-warm")
#: Extra set-ups (fresh processes) measured per run; set-up time is the median.
SETUP_PROBES = 2

#: End-to-end metric units (tracing off).
END_TO_END_UNITS = {
    "setup_s": "s",
    "cells_per_s": "1/s",
    "focus_efficiency": "ratio",
    "peak_rss_mb": "MB",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true", help="seconds-long shapes for the benchmark's own tests"
    )
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def peak_rss_mb() -> float:
    """Peak RSS of this process or of its largest waited-for descendant."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def digest(units) -> str:
    payload = json.dumps([unit.aggregates for unit in units], sort_keys=True)
    return hashlib.sha256(payload.encode("utf8")).hexdigest()


def setup_probe(args: argparse.Namespace) -> float:
    """Time one set-up of the workload in a fresh interpreter."""
    command = [
        sys.executable,
        str(HERE / "run.py"),
        "--setup-probe",
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--seconds",
        str(args.seconds),
    ] + (["--tiny"] if args.tiny else [])
    completed = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=150, check=False
    )
    if completed.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {completed.stderr.strip()[-500:]}")
    return float(json.loads(completed.stdout.strip().splitlines()[-1])["setup_s"])


class HostReference:
    """Times a fixed reference loop to follow the host's speed during a run.

    The loop uses no code of the program: small-array NumPy calls and dict
    updates, the kind of call-bound work the GA and the simulator do.  On a
    shared host the same unit's wall-clock swings by up to ~45% between
    minutes, and the loop's time swings with it.  A sample (the median of a
    few loop passes) is taken before the first unit, before any unit that
    starts half a second or more after the previous sample, and after the
    last unit; each unit's rate is then adjusted by the mean of the samples
    bracketing it, and the set-up time by the median of all samples.
    """

    #: Reference-loop time the adjusted rates are expressed against (s).
    NOMINAL_S = 0.010
    PASSES = 5
    INTERVAL_S = 0.5

    def __init__(self) -> None:
        import numpy as np

        self._np = np
        self._array = np.random.default_rng(0).random(4096)
        self.samples: List[float] = []
        self._marks: List[int] = []
        self._last = 0.0

    def _pass(self) -> float:
        np = self._np
        counts: dict = {}
        start = time.perf_counter()
        for i in range(400):
            ordered = np.sort(self._array * i)
            counts[i % 97] = float(ordered[i]) + len(str(i))
            for j in range(20):
                counts[j] = counts.get(j, 0) + j * i
        return time.perf_counter() - start

    def sample(self) -> None:
        self.samples.append(statistics.median(self._pass() for _ in range(self.PASSES)))
        self._last = time.perf_counter()

    def before_unit(self) -> None:
        if not self.samples or time.perf_counter() - self._last >= self.INTERVAL_S:
            self.sample()
        self._marks.append(len(self.samples) - 1)

    def adjusted(self, rates: List[float]) -> List[float]:
        """Each unit's rate as it would read where the loop takes ``NOMINAL_S``."""
        return [
            rate * (self.samples[mark] + self.samples[mark + 1]) / (2 * self.NOMINAL_S)
            for rate, mark in zip(rates, self._marks)
        ]


def run_units(workload, count: int, seconds: float = 0.0, reference=None):
    """Units ``0...`` until *count* ran and *seconds* elapsed; stops at a failure.

    A *reference* samples the host around the units, outside their timing.
    """
    units = []
    start = time.perf_counter()
    while len(units) < count or time.perf_counter() - start < seconds:
        if reference is not None:
            reference.before_unit()
        unit = workload.run_unit(len(units))
        units.append(unit)
        if unit.failures:
            break
    if reference is not None:
        reference.sample()
    return units


@dataclass
class Tally:
    """Operations attempted and failed, with one message per failure."""

    attempted: int = 0
    failed: int = 0
    messages: List[str] = field(default_factory=list)

    def add(self, operations: int, failures: List[str], failed_operations: int) -> None:
        self.attempted += operations
        if failures:
            self.failed += max(failed_operations, 1)
            self.messages.extend(failures)


def untraced_run(args, workload, setup_s: float, tally: Tally):
    """The end-to-end metrics: timed units, host reference, set-up probes."""
    reference = HostReference()
    units = run_units(workload, workload.min_units, args.seconds, reference)
    for unit in units:
        tally.add(unit.cells, unit.failures, unit.cells)
    setups = [setup_s]
    for _ in range(SETUP_PROBES):
        try:
            setups.append(setup_probe(args))
            tally.add(1, [], 0)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            tally.add(1, [str(exc)], 1)
    quality = units[: workload.min_units]
    rates = [u.cells / u.wall_s for u in units]
    host = statistics.median(reference.samples)
    metrics = {
        "setup_s": statistics.median(setups) * HostReference.NOMINAL_S / host,
        "cells_per_s": statistics.median(reference.adjusted(rates)),
        "focus_efficiency": statistics.fmean(u.focus_efficiency for u in quality),
        "peak_rss_mb": peak_rss_mb(),
    }
    notes = [
        "focus_makespan_ratio (reported, not gated) "
        f"{statistics.fmean(u.focus_ratio for u in quality):.6g}",
        f"host reference loop: median {1e3 * host:.2f} ms over {len(reference.samples)} samples"
        f" (nominal {1e3 * HostReference.NOMINAL_S:.0f} ms); unadjusted cells_per_s"
        f" {statistics.median(rates):.6g}, setup_s {statistics.median(setups):.6g}",
    ]
    return units, {name: (metrics[name], unit) for name, unit in END_TO_END_UNITS.items()}, notes


def traced_run(workload, tally: Tally):
    """The per-layer metrics: the traced units run untraced, then traced."""
    import bench_trace

    untraced = run_units(workload, workload.trace_units)
    tracer = bench_trace.Tracer()
    with tracer.installed():
        start = time.perf_counter()
        units = run_units(workload, workload.trace_units)
        traced_wall = time.perf_counter() - start
    for unit in untraced + units:
        tally.add(unit.cells, unit.failures, unit.cells)
    if [u.aggregates for u in units] != [u.aggregates for u in untraced]:
        tally.add(0, ["traced aggregates differ from untraced ones"], 1)
    metrics = bench_trace.layer_metrics(
        tracer.spans,
        traced_wall,
        sum(u.wall_s for u in untraced),
        statistics.fmean(u.focus_ratio for u in units),
    )
    units_of = bench_trace.PER_LAYER_UNITS
    return units, {name: (metrics[name], unit) for name, unit in units_of.items()}, []


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: program under test not found at {SRC / 'repro'}", file=sys.stderr)
        return 2
    setup_start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import numpy

    from bench_workloads import make_workload

    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=work_root)
    workload = make_workload(args.workload, tiny=args.tiny)
    tally = Tally()
    try:
        workload.setup(args.seed, workdir)
        setup_s = time.perf_counter() - setup_start
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.trace:
            units, metrics, notes = traced_run(workload, tally)
        else:
            units, metrics, notes = untraced_run(args, workload, setup_s, tally)
        operations, failures = workload.verify()
        tally.add(operations, failures, len(failures))
    except Exception:  # the run is lost: report it, print no result
        traceback.print_exc()
        return 1
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass

    print(
        f"workload {args.workload}  seed {args.seed}  mode {'traced' if args.trace else 'untraced'}"
        f"  units {len(units)}  nproc {os.cpu_count()}  python {platform.python_version()}"
        f"  numpy {numpy.__version__}"
    )
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.6g} {unit}")
    for line in notes:
        print(line)
    print(f"digest {args.workload} sha256:{digest(units[: workload.trace_units])}")
    for message in tally.messages:
        print(f"FAILED: {message}")
    result = {
        "correct": not tally.messages,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
