"""Live campaign monitoring: heartbeat status files and ``campaigns watch``.

A long campaign is opaque from the outside: the manifest checkpoints after
every cell, but reading it needs the store layout, and it says nothing
about what the worker processes are doing *right now*.  This module gives
runners a cheap heartbeat channel:

* :class:`RunMonitor` — driver-side writer.  The campaign/scenario runners
  feed it cell events (started/finished/cached) and it maintains a single
  status JSON file — always written atomically (temp file + ``os.replace``)
  so a watcher can never read a torn update, and throttled so a
  thousand-cell campaign does not turn into a thousand fsyncs.
* :class:`WorkerHeartbeat` — a picklable function wrapper the process-pool
  executor applies next to the telemetry wrapper.  Each worker process
  maintains its own ``worker-<pid>.json`` beside the status file, so the
  watcher can show per-worker in-flight jobs without any extra IPC.
* :func:`watch` / :func:`render_status` — reader side.  ``repro campaigns
  watch <name>`` polls the status file, renders a refreshing terminal view
  (cells/s, ETA, cache hits, per-worker activity), flags staleness (a
  status file that stopped updating usually means the run was killed), and
  exits when the run finishes or is interrupted.

Everything is files: the watcher needs no connection to the run, works
across processes and machines (shared filesystem), and an interrupted run
leaves its last status behind as a post-mortem summary.
"""

from __future__ import annotations

import json
import os
import time
from collections import deque
from contextlib import contextmanager
from typing import Any, Callable, Deque, Dict, Iterator, List, Optional, Sequence, TextIO, TypeVar

from ..util.errors import ConfigurationError

__all__ = [
    "STATUS_FORMAT_VERSION",
    "DEFAULT_WRITE_INTERVAL",
    "DEFAULT_STALE_SECONDS",
    "RunMonitor",
    "WorkerHeartbeat",
    "wrap_jobs_fn",
    "heartbeat_context",
    "get_heartbeat_dir",
    "load_status",
    "load_worker_heartbeats",
    "render_status",
    "watch",
]

J = TypeVar("J")
R = TypeVar("R")

STATUS_FORMAT_VERSION = 1

#: Minimum seconds between throttled status writes.  Events that change the
#: run's *shape* (start, finish, interrupt) always write immediately.
DEFAULT_WRITE_INTERVAL = 0.5

#: A running status older than this is rendered as possibly dead: the writer
#: updates on every cell and at least every throttle interval, so silence
#: this long means the process stopped without saying goodbye.
DEFAULT_STALE_SECONDS = 15.0

#: How many recent cell events the status file retains.
RECENT_EVENTS = 8


def _atomic_write(payload: Dict[str, Any], path: str) -> None:
    """Write *payload* as JSON via a sibling temp file + ``os.replace``.

    Local on purpose: importing :mod:`repro.io.results` from telemetry would
    cycle through the experiment stack.
    """
    tmp_path = f"{path}.tmp.{os.getpid()}"
    with open(tmp_path, "w", encoding="utf8") as handle:
        json.dump(payload, handle, sort_keys=True)
        handle.write("\n")
    os.replace(tmp_path, path)


# -- driver side -------------------------------------------------------------------------


class RunMonitor:
    """Maintains one atomically-updated status file for a running campaign.

    The writer is deliberately dumb: the runner owns all the counting logic
    it already had for its log lines; the monitor just snapshots those
    numbers to disk.  ``interval`` throttles steady-state writes; pass ``0``
    to write on every event (tests, tiny runs).
    """

    def __init__(
        self,
        path: str,
        *,
        name: str,
        total_units: int,
        cached: int = 0,
        executor: str = "",
        interval: float = DEFAULT_WRITE_INTERVAL,
    ) -> None:
        self.path = os.path.abspath(path)
        self.workers_dir = self.path + ".workers"
        self.name = name
        self.total_units = int(total_units)
        self.cached = int(cached)
        self.computed = 0
        self.executor = executor
        self.interval = float(interval)
        self.state = "running"
        self.interrupt_reason = ""
        self.started_at = time.time()
        self._rate_start = time.perf_counter()
        self._last_write = float("-inf")
        self._events: Deque[Dict[str, Any]] = deque(maxlen=RECENT_EVENTS)
        # Satellite contract: the status (and workers) directories must exist
        # *before* the run starts, so a bad path fails in seconds, not after
        # an hour of computed cells.
        os.makedirs(os.path.dirname(self.path) or ".", exist_ok=True)
        os.makedirs(self.workers_dir, exist_ok=True)
        for stale in os.listdir(self.workers_dir):
            if stale.startswith("worker-") and stale.endswith(".json"):
                try:
                    os.remove(os.path.join(self.workers_dir, stale))
                except OSError:
                    pass
        self.write(force=True)

    # -- events --------------------------------------------------------------------------
    def heartbeats(self):
        """Context manager activating worker heartbeats for this monitor."""
        return heartbeat_context(self.workers_dir)

    def cell_event(self, cell_id: str, status: str, elapsed_seconds: float = 0.0) -> None:
        """Record one finished cell (``status``: computed/cached/failed)."""
        if status == "computed":
            self.computed += 1
        elif status == "cached":
            self.cached += 1
        self._events.append(
            {
                "cell_id": cell_id,
                "status": status,
                "elapsed_seconds": float(elapsed_seconds),
                "at": time.time(),
            }
        )
        self.write()

    def finish(self, state: str = "finished", reason: str = "") -> None:
        """Terminal update; always written through the throttle."""
        self.state = state
        self.interrupt_reason = reason
        self.write(force=True)

    # -- persistence ---------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        elapsed = time.perf_counter() - self._rate_start
        rate = self.computed / elapsed if elapsed > 0 else 0.0
        remaining = max(0, self.total_units - self.cached - self.computed)
        eta = remaining / rate if rate > 0 else None
        return {
            "kind": "run_status",
            "format_version": STATUS_FORMAT_VERSION,
            "name": self.name,
            "state": self.state,
            "interrupt_reason": self.interrupt_reason,
            "executor": self.executor,
            "pid": os.getpid(),
            "total_units": self.total_units,
            "computed": self.computed,
            "cached": self.cached,
            "pending": remaining,
            "cells_per_second": rate,
            "eta_seconds": eta,
            "recent": list(self._events),
            "started_at": self.started_at,
            "updated_at": time.time(),
        }

    def write(self, force: bool = False) -> None:
        now = time.monotonic()
        if not force and (now - self._last_write) < self.interval:
            return
        self._last_write = now
        _atomic_write(self.snapshot(), self.path)


# -- worker side -------------------------------------------------------------------------

_HEARTBEAT_DIR: Optional[str] = None
#: Per-process count of jobs this worker completed (module state survives
#: across jobs within one worker process).
_JOBS_DONE = 0


@contextmanager
def heartbeat_context(directory: Optional[str]) -> Iterator[None]:
    """Make *directory* the active heartbeat target for wrapped job functions."""
    global _HEARTBEAT_DIR
    previous = _HEARTBEAT_DIR
    _HEARTBEAT_DIR = directory
    try:
        yield
    finally:
        _HEARTBEAT_DIR = previous


def get_heartbeat_dir() -> Optional[str]:
    """The active heartbeat directory (``None`` = heartbeats off)."""
    return _HEARTBEAT_DIR


def _job_label(job: Any) -> str:
    """A short human-readable label for *job* (best effort, never raises)."""
    try:
        # Lazy: parallel.jobs pulls in the simulation stack, which itself
        # imports telemetry — importing it at module load would cycle.
        from ..parallel.jobs import job_label

        return job_label(job)
    except Exception:
        return type(job).__name__


def _write_heartbeat(directory: str, *, state: str, job: str, started_at: float) -> None:
    payload = {
        "kind": "worker_heartbeat",
        "format_version": STATUS_FORMAT_VERSION,
        "pid": os.getpid(),
        "state": state,
        "job": job,
        "jobs_done": _JOBS_DONE,
        "started_at": started_at,
        "updated_at": time.time(),
    }
    try:
        _atomic_write(payload, os.path.join(directory, f"worker-{os.getpid()}.json"))
    except OSError:
        # A heartbeat must never take the job down with it (read-only FS,
        # deleted directory, quota): the work matters, the telemetry doesn't.
        pass


class WorkerHeartbeat:
    """Picklable wrapper: report job start/finish to ``worker-<pid>.json``.

    Applied by the process-pool executor next to the telemetry wrapper (and, on
    its serial-fallback path, runs harmlessly in the calling process — the
    watcher then shows one "worker" with the driver's pid).
    """

    __slots__ = ("fn", "directory")

    def __init__(self, fn: Callable[[J], R], directory: str) -> None:
        self.fn = fn
        self.directory = directory

    def __call__(self, job: J) -> R:
        global _JOBS_DONE
        label = _job_label(job)
        started = time.time()
        _write_heartbeat(self.directory, state="running", job=label, started_at=started)
        result = self.fn(job)
        _JOBS_DONE += 1
        _write_heartbeat(self.directory, state="idle", job=label, started_at=started)
        return result


def wrap_jobs_fn(fn: Callable[[J], R]) -> Callable[[J], R]:
    """Wrap *fn* for worker heartbeats iff a heartbeat directory is active.

    Mirrors :func:`repro.telemetry.remote.wrap_jobs_fn`: with no monitor in
    scope this is the identity, and the parallel hot path is untouched.
    """
    directory = get_heartbeat_dir()
    if directory is None:
        return fn
    return WorkerHeartbeat(fn, directory)


# -- reader side -------------------------------------------------------------------------


def load_status(path: str) -> Dict[str, Any]:
    """Load (and shape-check) a status file written by :class:`RunMonitor`."""
    if not os.path.exists(path):
        raise ConfigurationError(
            f"no run status at {path!r} — the campaign has not started "
            "(or ran under a version without monitoring)"
        )
    with open(path, encoding="utf8") as handle:
        status = json.load(handle)
    if (
        not isinstance(status, dict)
        or status.get("kind") != "run_status"
        or status.get("format_version") != STATUS_FORMAT_VERSION
    ):
        raise ConfigurationError(
            f"{os.path.basename(path)}: not a version-{STATUS_FORMAT_VERSION} "
            "run status file"
        )
    return status


def load_worker_heartbeats(status_path: str) -> List[Dict[str, Any]]:
    """Every worker heartbeat beside *status_path*, sorted by pid."""
    directory = status_path + ".workers"
    if not os.path.isdir(directory):
        return []
    beats = []
    for filename in sorted(os.listdir(directory)):
        if not (filename.startswith("worker-") and filename.endswith(".json")):
            continue
        try:
            with open(os.path.join(directory, filename), encoding="utf8") as handle:
                beat = json.load(handle)
        except (OSError, ValueError):
            continue  # torn/vanished files lose one refresh, not the watch
        if isinstance(beat, dict) and beat.get("kind") == "worker_heartbeat":
            beats.append(beat)
    beats.sort(key=lambda b: b.get("pid", 0))
    return beats


def _fmt_age(seconds: float) -> str:
    if seconds < 120:
        return f"{seconds:.1f}s"
    if seconds < 7200:
        return f"{seconds / 60.0:.1f}min"
    return f"{seconds / 3600.0:.1f}h"


def render_status(
    status: Dict[str, Any],
    workers: Sequence[Dict[str, Any]] = (),
    *,
    now: Optional[float] = None,
    stale_after: float = DEFAULT_STALE_SECONDS,
) -> str:
    """One refresh frame of the watch view, as plain text."""
    now = time.time() if now is None else now
    age = max(0.0, now - float(status.get("updated_at", now)))
    state = status.get("state", "?")
    stale = state == "running" and age > stale_after
    headline = state + (" — STALE, writer may be dead" if stale else "")
    lines = [
        f"campaign {status.get('name', '?')} [{headline}]  via {status.get('executor') or '?'}",
    ]
    total = int(status.get("total_units", 0))
    computed = int(status.get("computed", 0))
    cached = int(status.get("cached", 0))
    pending = int(status.get("pending", 0))
    rate = float(status.get("cells_per_second") or 0.0)
    eta = status.get("eta_seconds")
    progress = (
        f"cells: {computed} computed + {cached} cached = "
        f"{computed + cached}/{total}, {pending} pending"
    )
    if state == "running":
        progress += f"  ({rate:.2f} cells/s"
        progress += f", eta {_fmt_age(float(eta))})" if eta is not None else ")"
    lines.append(progress)
    reason = status.get("interrupt_reason")
    if reason:
        lines.append(f"interrupted: {reason} (resume with `repro campaigns resume`)")
    recent = status.get("recent") or []
    if recent:
        lines.append("recent cells:")
        for event in recent[-5:]:
            elapsed = float(event.get("elapsed_seconds", 0.0))
            suffix = f" in {elapsed:.2f}s" if event.get("status") == "computed" else ""
            lines.append(f"  {event.get('status', '?'):>8}  {event.get('cell_id', '?')}{suffix}")
    if workers:
        lines.append("workers:")
        for beat in workers:
            beat_age = max(0.0, now - float(beat.get("updated_at", now)))
            lines.append(
                f"  pid {beat.get('pid', '?')}  {beat.get('state', '?'):>7}  "
                f"{beat.get('job', '?')}  ({beat.get('jobs_done', 0)} done, "
                f"{_fmt_age(beat_age)} ago)"
            )
    lines.append(f"last update {_fmt_age(age)} ago")
    return "\n".join(lines)


def watch(
    status_path: str,
    *,
    interval: float = 2.0,
    once: bool = False,
    stream: Optional[TextIO] = None,
    stale_after: float = DEFAULT_STALE_SECONDS,
    max_frames: Optional[int] = None,
) -> Dict[str, Any]:
    """Poll *status_path* and render frames to *stream* until the run ends.

    Returns the final status read.  ``once`` renders a single frame (CI and
    scripting); ``max_frames`` bounds the loop for tests.  On a TTY each
    frame repaints the screen; otherwise frames are separated by a blank
    line so the output stays readable when piped.
    """
    import sys

    stream = stream if stream is not None else sys.stdout
    is_tty = bool(getattr(stream, "isatty", lambda: False)())
    frames = 0
    while True:
        status = load_status(status_path)
        frame = render_status(
            status, load_worker_heartbeats(status_path), stale_after=stale_after
        )
        if is_tty and frames > 0:
            stream.write("\x1b[2J\x1b[H")
        elif frames > 0:
            stream.write("\n")
        stream.write(frame + "\n")
        stream.flush()
        frames += 1
        if once or status.get("state") != "running":
            return status
        if max_frames is not None and frames >= max_frames:
            return status
        time.sleep(interval)
