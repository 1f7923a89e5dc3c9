"""Trace-driven workloads: record, save and replay task arrival streams.

The paper's workloads are synthetic distributions; real schedulers are
validated against *traces* — recorded streams of (task id, arrival time,
size) rows replayed bit-for-bit.  This module closes that gap:

* :class:`TraceSpec` is a workload specification backed by a CSV or JSON
  event log.  It plugs in anywhere a
  :class:`~repro.workloads.generator.WorkloadSpec` does
  (:func:`~repro.workloads.generator.generate_workload`,
  :class:`~repro.scenarios.spec.ScenarioSpec`, campaigns, the CLI's
  ``--workload trace:<path>``) but its tasks are *replayed*, not drawn:
  the same file always yields the same :class:`~repro.workloads.task.TaskSet`
  regardless of seeds, backends or process placement.
* :func:`trace_from_tasks` records the arrival stream of any existing
  workload into that format, so any scenario in the library can be dumped
  and replayed.
* :func:`make_diurnal_trace` / :func:`make_bursty_trace` generate synthetic
  traces from piecewise-rate inhomogeneous-Poisson profiles
  (:class:`~repro.workloads.arrival.PiecewiseRateArrivals`) at
  up-to-million-task scale, entirely vectorised.

A :class:`TraceSpec` is picklable plain data (path, content hash, task
count); workers re-load and re-verify the file on first use.  The SHA-256
content hash — not the path — is what enters campaign cache keys, so a
trace moved between directories or machines still hits the store.

Trace file formats
------------------
``.csv``: a header row then one task per line, floats in shortest
round-trip (``repr``) form so replay is bit-identical::

    task_id,arrival_time,size_mflops[,comm_cost]
    0,0.0,1023.437
    1,0.25,987.1

``.json``: the same columns, column-major::

    {"format": "repro-trace", "version": 1, "n_tasks": 2,
     "task_id": [0, 1], "arrival_time": [0.0, 0.25],
     "size_mflops": [1023.437, 987.1], "comm_cost": null}

``comm_cost`` (seconds of dispatch transfer per task) is an optional,
informational column that input files may carry: replay re-derives
communication from the cluster's network model.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ..util.errors import ConfigurationError, WorkloadError
from ..util.rng import RNGLike, ensure_rng, spawn_rngs
from .arrival import PiecewiseRateArrivals
from .distributions import NormalSizes, SizeDistribution
from .task import Task, TaskSet

__all__ = [
    "TRACE_FORMAT_VERSION",
    "TraceData",
    "TraceSpec",
    "load_trace",
    "save_trace",
    "trace_sha256",
    "trace_from_tasks",
    "diurnal_profile",
    "bursty_profile",
    "make_diurnal_trace",
    "make_bursty_trace",
    "make_synthetic_trace",
    "SYNTHETIC_TRACE_KINDS",
]

TRACE_FORMAT_VERSION = 1

_CSV_COLUMNS = ("task_id", "arrival_time", "size_mflops")


@dataclass(frozen=True)
class TraceData:
    """The columns of one trace, validated, in (arrival_time, task_id) order."""

    task_id: np.ndarray
    arrival_time: np.ndarray
    size_mflops: np.ndarray
    comm_cost: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        task_id = np.asarray(self.task_id, dtype=np.int64)
        arrival = np.asarray(self.arrival_time, dtype=float)
        sizes = np.asarray(self.size_mflops, dtype=float)
        n = task_id.shape[0]
        if arrival.shape != (n,) or sizes.shape != (n,):
            raise WorkloadError(
                f"trace columns disagree on length: {n} ids, "
                f"{arrival.shape[0]} arrivals, {sizes.shape[0]} sizes"
            )
        if n == 0:
            raise WorkloadError("a trace needs at least one task")
        if np.unique(task_id).shape[0] != n:
            raise WorkloadError("trace task ids must be unique")
        if task_id.min(initial=0) < 0:
            raise WorkloadError("trace task ids must be non-negative")
        if not np.all(np.isfinite(sizes)) or sizes.min() <= 0:
            raise WorkloadError("trace sizes must be positive and finite")
        if not np.all(np.isfinite(arrival)) or arrival.min() < 0:
            raise WorkloadError("trace arrival times must be non-negative and finite")
        comm = self.comm_cost
        if comm is not None:
            comm = np.asarray(comm, dtype=float)
            if comm.shape != (n,):
                raise WorkloadError(
                    f"trace comm_cost column has {comm.shape[0]} rows, expected {n}"
                )
            if not np.all(np.isfinite(comm)) or comm.min() < 0:
                raise WorkloadError("trace comm costs must be non-negative and finite")
        # Canonical row order is submission order: (arrival_time, task_id).
        order = np.lexsort((task_id, arrival))
        object.__setattr__(self, "task_id", task_id[order])
        object.__setattr__(self, "arrival_time", arrival[order])
        object.__setattr__(self, "size_mflops", sizes[order])
        object.__setattr__(
            self, "comm_cost", comm[order] if comm is not None else None
        )

    @property
    def n_tasks(self) -> int:
        return int(self.task_id.shape[0])

    def to_taskset(self) -> TaskSet:
        """Materialise the trace as a :class:`TaskSet` in submission order."""
        return TaskSet(
            Task(
                task_id=int(self.task_id[i]),
                size_mflops=float(self.size_mflops[i]),
                arrival_time=float(self.arrival_time[i]),
            )
            for i in range(self.n_tasks)
        )

    def describe(self) -> Dict[str, float]:
        """Summary statistics (counts, size moments, arrival span)."""
        return {
            "count": float(self.n_tasks),
            "total_mflops": float(self.size_mflops.sum()),
            "mean_mflops": float(self.size_mflops.mean()),
            "min_mflops": float(self.size_mflops.min()),
            "max_mflops": float(self.size_mflops.max()),
            "arrival_span": float(self.arrival_time.max() - self.arrival_time.min()),
        }


# -- file formats ---------------------------------------------------------------


def _format_float(value: float) -> str:
    """Shortest decimal form that round-trips the exact double (via repr)."""
    return repr(float(value))


def save_trace(trace: TraceData, path: str) -> str:
    """Write *trace* to *path*; the extension picks the format (.csv / .json)."""
    ext = os.path.splitext(path)[1].lower()
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    if ext == ".csv":
        _save_csv(trace, path)
    elif ext == ".json":
        _save_json(trace, path)
    else:
        raise ConfigurationError(
            f"unknown trace extension {ext!r} for {path!r}; use .csv or .json"
        )
    return path


def _save_csv(trace: TraceData, path: str) -> None:
    has_comm = trace.comm_cost is not None
    header = ",".join(_CSV_COLUMNS + (("comm_cost",) if has_comm else ()))
    with open(path, "w", encoding="utf8", newline="\n") as handle:
        handle.write(header + "\n")
        for i in range(trace.n_tasks):
            row = (
                f"{int(trace.task_id[i])},"
                f"{_format_float(trace.arrival_time[i])},"
                f"{_format_float(trace.size_mflops[i])}"
            )
            if has_comm:
                row += f",{_format_float(trace.comm_cost[i])}"
            handle.write(row + "\n")


def _save_json(trace: TraceData, path: str) -> None:
    payload = {
        "format": "repro-trace",
        "version": TRACE_FORMAT_VERSION,
        "n_tasks": trace.n_tasks,
        "task_id": [int(x) for x in trace.task_id],
        "arrival_time": [float(x) for x in trace.arrival_time],
        "size_mflops": [float(x) for x in trace.size_mflops],
        "comm_cost": (
            [float(x) for x in trace.comm_cost]
            if trace.comm_cost is not None
            else None
        ),
    }
    with open(path, "w", encoding="utf8") as handle:
        json.dump(payload, handle)
        handle.write("\n")


def load_trace(path: str) -> TraceData:
    """Parse a trace file (CSV or JSON, by extension) into validated columns."""
    if not os.path.exists(path):
        raise ConfigurationError(f"trace file {path!r} does not exist")
    ext = os.path.splitext(path)[1].lower()
    if ext == ".csv":
        return _load_csv(path)
    if ext == ".json":
        return _load_json(path)
    raise ConfigurationError(
        f"unknown trace extension {ext!r} for {path!r}; use .csv or .json"
    )


def _load_csv(path: str) -> TraceData:
    with open(path, "r", encoding="utf8") as handle:
        header = handle.readline().strip()
        columns = tuple(name.strip() for name in header.split(","))
        if columns[: len(_CSV_COLUMNS)] != _CSV_COLUMNS or len(columns) > 4:
            raise ConfigurationError(
                f"trace {path!r} has header {header!r}; expected "
                f"'task_id,arrival_time,size_mflops[,comm_cost]'"
            )
        has_comm = len(columns) == 4
        try:
            data = np.loadtxt(
                handle, delimiter=",", dtype=float, ndmin=2, comments=None
            )
        except ValueError as exc:
            raise ConfigurationError(f"trace {path!r} is not valid CSV: {exc}") from exc
    if data.size == 0:
        raise WorkloadError(f"trace {path!r} has no task rows")
    if data.shape[1] != len(columns):
        raise ConfigurationError(
            f"trace {path!r}: rows have {data.shape[1]} fields, "
            f"header names {len(columns)}"
        )
    ids = data[:, 0]
    if not np.all(ids == np.floor(ids)):
        raise WorkloadError(f"trace {path!r}: task_id column must be integral")
    return TraceData(
        task_id=ids.astype(np.int64),
        arrival_time=data[:, 1],
        size_mflops=data[:, 2],
        comm_cost=data[:, 3] if has_comm else None,
    )


def _load_json(path: str) -> TraceData:
    with open(path, "r", encoding="utf8") as handle:
        try:
            payload = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"trace {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("format") != "repro-trace":
        raise ConfigurationError(
            f"trace {path!r} is not a repro-trace JSON file "
            "(missing 'format': 'repro-trace')"
        )
    if payload.get("version") != TRACE_FORMAT_VERSION:
        raise ConfigurationError(
            f"trace {path!r} has unsupported version {payload.get('version')!r} "
            f"(this build reads version {TRACE_FORMAT_VERSION})"
        )
    missing = [c for c in _CSV_COLUMNS if c not in payload]
    if missing:
        raise ConfigurationError(f"trace {path!r} is missing columns {missing}")
    return TraceData(
        task_id=np.asarray(payload["task_id"], dtype=np.int64),
        arrival_time=np.asarray(payload["arrival_time"], dtype=float),
        size_mflops=np.asarray(payload["size_mflops"], dtype=float),
        comm_cost=(
            np.asarray(payload["comm_cost"], dtype=float)
            if payload.get("comm_cost") is not None
            else None
        ),
    )


def trace_sha256(path: str) -> str:
    """SHA-256 of the trace file's bytes (the content hash in cache keys)."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


# -- replayable workload spec ---------------------------------------------------

#: Loaded traces keyed by absolute path -> (sha256, TraceData); one parse per
#: process however many cells replay the same file.
_TRACE_CACHE: Dict[str, Tuple[str, TraceData]] = {}


def _load_cached(path: str) -> Tuple[str, TraceData]:
    key = os.path.abspath(path)
    cached = _TRACE_CACHE.get(key)
    if cached is None:
        cached = (trace_sha256(path), load_trace(path))
        _TRACE_CACHE[key] = cached
    return cached


class _TraceSizes:
    """Size-distribution facade over a trace (name / mean duck typing)."""

    def __init__(self, spec: "TraceSpec") -> None:
        self._spec = spec

    def mean(self) -> float:
        return self._spec.trace().describe()["mean_mflops"]

    @property
    def name(self) -> str:
        return f"trace({os.path.basename(self._spec.path)})"


class _TraceArrivals:
    """Arrival-process facade over a trace (name duck typing)."""

    def __init__(self, spec: "TraceSpec") -> None:
        self._spec = spec

    @property
    def name(self) -> str:
        return f"trace(sha256:{self._spec.sha256[:12]})"


@dataclass(frozen=True)
class TraceSpec:
    """A workload replayed from a trace file.

    Plain picklable data: the file *path*, its SHA-256 content hash and the
    task count.  Construction (or first use in a fresh process) loads and
    verifies the file; a hash mismatch means the file changed after the spec
    was built, which would silently poison content-addressed cache keys, so
    it is an error.  The campaign fingerprint walks the dataclass fields but
    excludes ``path`` (see ``repro.campaigns.store``): identity is the
    *content*, so a relocated trace still hits the store.
    """

    path: str
    sha256: str = ""
    n_tasks: int = 0

    def __post_init__(self) -> None:
        if not self.path or not str(self.path).strip():
            raise ConfigurationError("trace path must be non-empty")
        sha, data = _load_cached(self.path)
        if self.sha256 and self.sha256 != sha:
            raise ConfigurationError(
                f"trace {self.path!r} content hash {sha[:12]}… does not match "
                f"the spec's {self.sha256[:12]}…; the file changed after the "
                "spec was created"
            )
        if self.n_tasks and self.n_tasks != data.n_tasks:
            raise ConfigurationError(
                f"trace {self.path!r} has {data.n_tasks} tasks, spec expects "
                f"{self.n_tasks}"
            )
        object.__setattr__(self, "sha256", sha)
        object.__setattr__(self, "n_tasks", data.n_tasks)

    @classmethod
    def from_file(cls, path: str) -> "TraceSpec":
        """Build a spec for an existing trace file (hash computed from content)."""
        return cls(path=path)

    def trace(self) -> TraceData:
        """The parsed, verified trace columns (cached per process)."""
        sha, data = _load_cached(self.path)
        if sha != self.sha256:
            raise ConfigurationError(
                f"trace {self.path!r} changed on disk (hash {sha[:12]}… != "
                f"spec {self.sha256[:12]}…)"
            )
        return data

    def materialise(self, rng: RNGLike = None) -> TaskSet:
        """Replay the trace as a :class:`TaskSet`.

        The ``rng`` argument exists for signature compatibility with
        generated workloads and is deliberately unused: a trace replays the
        same task stream under every seed, backend and executor.
        """
        return self.trace().to_taskset()

    # -- WorkloadSpec-facade accessors used by scenarios / reports ------------
    @property
    def sizes(self) -> _TraceSizes:
        return _TraceSizes(self)

    @property
    def arrivals(self) -> _TraceArrivals:
        return _TraceArrivals(self)

    @property
    def first_task_id(self) -> int:
        return int(self.trace().task_id.min())

    def describe(self) -> Dict[str, object]:
        """Human-readable summary (same shape as ``WorkloadSpec.describe``)."""
        return {
            "n_tasks": self.n_tasks,
            "sizes": self.sizes.name,
            "arrivals": self.arrivals.name,
            "first_task_id": self.first_task_id,
        }

    # Pickle by field values only; workers re-load (and re-verify) the file
    # lazily, so a million-task trace costs bytes, not megabytes, to ship.
    def __getstate__(self) -> Dict[str, object]:
        return {"path": self.path, "sha256": self.sha256, "n_tasks": self.n_tasks}

    def __setstate__(self, state: Dict[str, object]) -> None:
        for field_name, value in state.items():
            object.__setattr__(self, field_name, value)


# -- recorder --------------------------------------------------------------------


def trace_from_tasks(tasks: TaskSet) -> TraceData:
    """Record the arrival stream of an existing workload."""
    if len(tasks) == 0:
        raise WorkloadError("cannot record a trace from an empty TaskSet")
    return TraceData(
        task_id=np.asarray(tasks.task_ids, dtype=np.int64),
        arrival_time=tasks.arrival_times(),
        size_mflops=tasks.sizes(),
    )


# -- synthetic profiles ---------------------------------------------------------


def _profile_cycles(n_tasks: int, tasks_per_cycle: float) -> int:
    """Cycles to tile so ~n_tasks arrivals land inside the explicit profile.

    The unit-rate warped time of the n-th arrival concentrates around n
    (± a few sqrt(n)), so tiling to n + 6*sqrt(n) + 10 expected arrivals
    keeps the tail that spills past the profile (where the final segment's
    rate simply continues) negligible.
    """
    target = n_tasks + 6.0 * math.sqrt(n_tasks) + 10.0
    return max(1, int(math.ceil(target / tasks_per_cycle)))


def diurnal_profile(
    n_tasks: int,
    mean_rate: float,
    period: float,
    amplitude: float = 0.8,
    segments_per_period: int = 48,
) -> PiecewiseRateArrivals:
    """A day/night load curve: sinusoidal rate sampled into piecewise segments.

    ``rate(t) = mean_rate * (1 + amplitude * sin(2*pi*t/period))``, held
    constant over each of ``segments_per_period`` equal slices and tiled for
    as many periods as ~``n_tasks`` arrivals need.
    """
    if not 0.0 <= amplitude < 1.0:
        raise ConfigurationError(
            f"diurnal amplitude must be in [0, 1), got {amplitude}"
        )
    if segments_per_period < 2:
        raise ConfigurationError(
            f"diurnal profile needs >= 2 segments per period, got {segments_per_period}"
        )
    midpoints = (np.arange(segments_per_period) + 0.5) / segments_per_period
    rates = mean_rate * (1.0 + amplitude * np.sin(2.0 * np.pi * midpoints))
    cycles = _profile_cycles(n_tasks, mean_rate * period)
    durations = np.full(segments_per_period * cycles, period / segments_per_period)
    return PiecewiseRateArrivals(durations, np.tile(rates, cycles))


def bursty_profile(
    n_tasks: int,
    base_rate: float,
    burst_rate: float,
    burst_seconds: float,
    calm_seconds: float,
) -> PiecewiseRateArrivals:
    """Alternating calm/burst rate plateaus (the classic piecewise-rate IPP)."""
    if burst_rate <= base_rate:
        raise ConfigurationError(
            f"burst_rate ({burst_rate}) must exceed base_rate ({base_rate})"
        )
    tasks_per_cycle = base_rate * calm_seconds + burst_rate * burst_seconds
    cycles = _profile_cycles(n_tasks, tasks_per_cycle)
    durations = np.tile([calm_seconds, burst_seconds], cycles)
    rates = np.tile([base_rate, burst_rate], cycles)
    return PiecewiseRateArrivals(durations, rates)


#: Paper-shaped default sizes for synthetic traces (normal 1000/9e5 MFLOPs).
_DEFAULT_TRACE_SIZES = NormalSizes(1000.0, 9.0e5)


def make_synthetic_trace(
    arrivals: PiecewiseRateArrivals,
    n_tasks: int,
    seed: RNGLike = None,
    sizes: Optional[SizeDistribution] = None,
) -> TraceData:
    """Materialise a synthetic trace: vectorised, no per-task Python objects.

    Draw order matches :func:`~repro.workloads.generator.generate_workload`
    (sizes then arrivals, from two spawned sub-streams), so a trace made with
    seed *s* replays exactly the workload a ``WorkloadSpec`` with the same
    distribution, arrival profile and seed would generate.
    """
    if n_tasks <= 0:
        raise ConfigurationError(f"n_tasks must be positive, got {n_tasks}")
    size_rng, arrival_rng = spawn_rngs(ensure_rng(seed), 2)
    sizes = sizes if sizes is not None else _DEFAULT_TRACE_SIZES
    return TraceData(
        task_id=np.arange(n_tasks, dtype=np.int64),
        arrival_time=arrivals.times(n_tasks, arrival_rng),
        size_mflops=sizes.sample(n_tasks, size_rng),
    )


def make_diurnal_trace(
    n_tasks: int,
    seed: RNGLike = None,
    *,
    mean_rate: float = 25.0,
    period: float = 2000.0,
    amplitude: float = 0.8,
    sizes: Optional[SizeDistribution] = None,
) -> TraceData:
    """A synthetic diurnal trace (sinusoidal inhomogeneous-Poisson arrivals)."""
    profile = diurnal_profile(n_tasks, mean_rate, period, amplitude)
    return make_synthetic_trace(profile, n_tasks, seed, sizes)


def make_bursty_trace(
    n_tasks: int,
    seed: RNGLike = None,
    *,
    base_rate: float = 5.0,
    burst_rate: float = 125.0,
    burst_seconds: float = 40.0,
    calm_seconds: float = 160.0,
    sizes: Optional[SizeDistribution] = None,
) -> TraceData:
    """A synthetic bursty trace: calm trickle punctuated by 25x rate bursts."""
    profile = bursty_profile(n_tasks, base_rate, burst_rate, burst_seconds, calm_seconds)
    return make_synthetic_trace(profile, n_tasks, seed, sizes)


#: Synthetic generator families the CLI exposes (``repro traces make``).
SYNTHETIC_TRACE_KINDS = {
    "diurnal": make_diurnal_trace,
    "bursty": make_bursty_trace,
}
