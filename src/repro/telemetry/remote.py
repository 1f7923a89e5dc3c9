"""Cross-process telemetry: forward worker-side spans/metrics to the driver.

The process-pool executor ships jobs to worker processes; spans recorded there
live in the worker's memory and would be lost at join.  The bridge is a
picklable function wrapper plus a picklable result envelope:

* :func:`wrap_jobs_fn` — called by the executor *in the driver* after the
  picklability probe.  When the driver has an active session it returns
  ``WorkerTelemetry(fn)``; otherwise the function passes through untouched
  and the parallel hot path is exactly what it was before telemetry
  existed.
* :class:`WorkerTelemetry` — runs the job inside a fresh worker-side
  session (always fresh: a session inherited across ``fork`` belongs to the
  driver and must not be written to) and returns ``Telemetered(result,
  snapshot)``.
* :func:`unwrap` — called by the executor as it yields each result, in
  submission order: merges the snapshot into the driver's session — under
  whatever span the driver currently has open, with ``pid-<n>`` worker
  attribution — and hands the bare result onward.

Because the executor yields in job order, merged subtrees land in the
receiving session's tree in job order too, regardless of which worker
computed the job.
"""

from __future__ import annotations

import os
from typing import Any, Callable, Dict, TypeVar

from .spans import TelemetrySession, get_session, telemetry_session

__all__ = ["Telemetered", "WorkerTelemetry", "wrap_jobs_fn", "unwrap"]

J = TypeVar("J")
R = TypeVar("R")


class Telemetered:
    """A job result bundled with the worker-side telemetry snapshot."""

    __slots__ = ("result", "snapshot")

    def __init__(self, result: Any, snapshot: Dict[str, object]) -> None:
        self.result = result
        self.snapshot = snapshot

    def __getstate__(self) -> Dict[str, object]:
        return {"result": self.result, "snapshot": self.snapshot}

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.result = state["result"]
        self.snapshot = state["snapshot"]


class WorkerTelemetry:
    """Picklable wrapper running *fn* inside a per-job worker session.

    A fresh session is created for every call — never the module-global one,
    which on a forked worker is a stale copy of the driver's — and the
    previous global is restored afterwards, so the wrapper also behaves on
    the driver's serial-fallback path (the snapshot is simply merged back
    into the session it was split from).  ``capture_resources`` mirrors the
    driver session's setting at wrap time, so worker subtrees carry their
    own CPU/RSS/GC columns — a worker's resource usage is not measurable
    from the driver process.
    """

    __slots__ = ("fn", "capture_resources")

    def __init__(self, fn: Callable[[J], R], capture_resources: bool = False) -> None:
        self.fn = fn
        self.capture_resources = bool(capture_resources)

    def __call__(self, job: J) -> Telemetered:
        session = TelemetrySession(capture_resources=self.capture_resources)
        with telemetry_session(session):
            result = self.fn(job)
        return Telemetered(result, session.snapshot(worker=f"pid-{os.getpid()}"))


def wrap_jobs_fn(fn: Callable[[J], R]) -> Callable[[J], Any]:
    """Wrap *fn* for telemetry forwarding iff the driver has a session."""
    session = get_session()
    if session is None:
        return fn
    return WorkerTelemetry(fn, capture_resources=session.capture_resources)


def unwrap(value: Any) -> Any:
    """Merge a :class:`Telemetered` envelope into the active session.

    Identity for plain values, so executors can apply it unconditionally to
    everything they yield (including partial results recovered from an
    interrupt).
    """
    if isinstance(value, Telemetered):
        session = get_session()
        if session is not None:
            session.merge_snapshot(value.snapshot)
        return value.result
    return value
