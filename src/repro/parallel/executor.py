"""Experiment executors: serial and process-parallel job mapping.

The experiment harness repeats every measurement 20–50 times at paper scale,
and each repeat is statistically independent (its randomness comes from a
dedicated :class:`numpy.random.SeedSequence` child stream).  That makes the
repeat loop embarrassingly parallel, so the harness routes it through an
:class:`ExperimentExecutor`:

* :class:`SerialExecutor` runs jobs in-process, one after another — the
  reference behaviour, and the default;
* :class:`ParallelExecutor` shards jobs across a
  :class:`concurrent.futures.ProcessPoolExecutor`.

:func:`executor_from_jobs` picks between them from a ``jobs`` count alone.
Both apply the *same* worker function to the *same* job specs and return
results in submission order, so aggregates computed from a parallel run are
bit-identical to the serial run with the same master seed.  Job specs and
worker functions must be picklable for the parallel path (module-level
functions plus plain dataclasses of numpy arrays and scalars); if a job
cannot be pickled the parallel executor transparently degrades to in-process
execution rather than failing the experiment.

Streaming (``imap``)
--------------------
:meth:`ExperimentExecutor.imap` yields results one by one, still in job
order, while later jobs may execute concurrently.  Consumers that checkpoint
after every result (the campaign runner persists each completed cell to its
result store) use it so an interrupted run loses at most the bounded set of
in-flight jobs.  A ``KeyboardInterrupt`` during a parallel ``map``/``imap``
terminates the worker processes instead of hanging on the pool join and is
re-raised as :class:`~repro.util.errors.ExperimentInterrupted` carrying the
results completed so far.
"""

from __future__ import annotations

import os
import pickle
import warnings
from abc import ABC, abstractmethod
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Iterator, List, Optional, Sequence, TypeVar

from ..telemetry import unwrap as _telemetry_unwrap
from ..telemetry import wrap_jobs_fn as _telemetry_wrap
from ..telemetry.monitor import wrap_jobs_fn as _monitor_wrap
from ..util.errors import ConfigurationError, ExperimentInterrupted

__all__ = [
    "ExperimentExecutor",
    "SerialExecutor",
    "ParallelExecutor",
    "executor_from_jobs",
    "resolve_executor",
]

J = TypeVar("J")
R = TypeVar("R")


class ExperimentExecutor(ABC):
    """Maps a worker function over a list of independent job specs.

    Implementations must preserve job order in the returned results and must
    not reorder, drop or duplicate jobs: the experiment harness relies on
    ``results[i]`` being ``fn(jobs[i])`` so that aggregate statistics do not
    depend on which executor ran them.
    """

    #: Number of worker processes the executor uses (1 for serial).
    jobs: int = 1

    @abstractmethod
    def map(self, fn: Callable[[J], R], jobs: Sequence[J]) -> List[R]:
        """Apply *fn* to every job and return the results in job order."""

    def imap(self, fn: Callable[[J], R], jobs: Sequence[J]) -> Iterator[R]:
        """Yield ``fn(job)`` results one by one, in job order.

        The default implementation materialises :meth:`map`; parallel
        executors override it to stream each result as soon as it (and all
        earlier results) are available, so callers can checkpoint
        incrementally while later jobs are still running.
        """
        return iter(self.map(fn, jobs))

    def describe(self) -> str:
        """Short identifier recorded in experiment results.

        Callers record this *after* mapping, so implementations may reflect
        what actually happened (e.g. a serial fallback).
        """
        return "serial"

    def close(self) -> None:
        """Release any worker resources (no-op for in-process executors)."""

    def __enter__(self) -> "ExperimentExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(jobs={self.jobs})"


class SerialExecutor(ExperimentExecutor):
    """Run every job in the current process, in order."""

    jobs = 1

    def map(self, fn: Callable[[J], R], jobs: Sequence[J]) -> List[R]:
        return [fn(job) for job in jobs]

    def imap(self, fn: Callable[[J], R], jobs: Sequence[J]) -> Iterator[R]:
        # Lazy by design: a consumer that stops early (campaign --max-cells)
        # must not compute the jobs it never asked for.
        return (fn(job) for job in jobs)

    def describe(self) -> str:
        return "serial"


def _run_chunk(fn: Callable[[J], R], chunk: Sequence[J]) -> List[R]:
    """Worker-side helper: apply *fn* to one chunk of jobs (module-level
    so it pickles)."""
    return [fn(job) for job in chunk]


class ParallelExecutor(ExperimentExecutor):
    """Shard jobs across worker processes.

    The underlying :class:`~concurrent.futures.ProcessPoolExecutor` is
    created lazily on the first parallel ``map`` and reused for subsequent
    calls, so multi-point experiments (one ``map`` per sweep point / figure
    condition) pay the worker spawn and import cost once.  Call
    :meth:`close` — or use the executor as a context manager — to shut the
    pool down eagerly; otherwise it is reclaimed at interpreter exit.

    A ``KeyboardInterrupt`` while jobs are in flight terminates the worker
    processes (rather than hanging on the pool join waiting for running jobs)
    and raises :class:`~repro.util.errors.ExperimentInterrupted` with the
    results that completed before the interrupt.

    Parameters
    ----------
    jobs:
        Number of worker processes; ``None`` uses the machine's CPU count.
    chunksize:
        How many jobs each worker pulls at a time.  The default of 1 is right
        for the harness's coarse jobs (one simulation repeat or GA run each).
    """

    def __init__(self, jobs: Optional[int] = None, *, chunksize: int = 1) -> None:
        if jobs is None:
            jobs = os.cpu_count() or 1
        if int(jobs) < 1:
            raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
        if int(chunksize) < 1:
            raise ConfigurationError(f"chunksize must be >= 1, got {chunksize}")
        self.jobs = int(jobs)
        self.chunksize = int(chunksize)
        self._pool: Optional[ProcessPoolExecutor] = None
        self._degraded = False

    def describe(self) -> str:
        # Recorded in experiment results after mapping: be honest when an
        # unpicklable job forced the work back in-process.
        if self._degraded:
            return f"process[{self.jobs}]:serial-fallback"
        return f"process[{self.jobs}]"

    def close(self) -> None:
        """Shut down the worker pool (a later ``map`` recreates it)."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def _terminate_workers(self) -> None:
        """Kill the pool's worker processes without waiting on running jobs.

        ``ProcessPoolExecutor.shutdown`` joins the workers, which blocks for
        as long as the longest in-flight job keeps running — at paper scale
        that can be minutes after the user pressed Ctrl-C.  Terminating the
        processes first makes the subsequent shutdown immediate.
        """
        pool = self._pool
        if pool is None:
            return
        for process in list(getattr(pool, "_processes", {}).values()):
            process.terminate()
        pool.shutdown(wait=False, cancel_futures=True)
        self._pool = None

    def _fallback_serial(self, fn, jobs) -> bool:
        if self.jobs <= 1 or len(jobs) <= 1:
            return True
        # Probe the function and the first job only: the harness's job lists
        # are homogeneous, so pickling all of them here would just double
        # the pickling work of the common (picklable) case.
        try:
            pickle.dumps(fn)
            pickle.dumps(jobs[0])
        except Exception:
            self._degraded = True
            warnings.warn(
                "job spec or worker function is not picklable; "
                "running serially in-process instead",
                RuntimeWarning,
                stacklevel=3,
            )
            return True
        return False

    def map(self, fn: Callable[[J], R], jobs: Sequence[J]) -> List[R]:
        return list(self.imap(fn, jobs))

    def imap(self, fn: Callable[[J], R], jobs: Sequence[J]) -> Iterator[R]:
        jobs = list(jobs)
        if self._fallback_serial(fn, jobs):
            # In-process execution: spans nest into the driver's session
            # naturally, no forwarding envelope needed.
            return (fn(job) for job in jobs)
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.jobs)
        # With a telemetry session active in the driver, jobs run inside a
        # worker-side session and come back as (result, snapshot) envelopes;
        # unwrapping merges each worker's spans/metrics into the driver's
        # tree in job order.  Without a session this is fn, untouched.
        # The heartbeat wrap (outermost, so its timestamps include the
        # telemetry envelope) reports per-job worker progress when a run
        # monitor is active; it too is the identity otherwise.
        worker_fn = _monitor_wrap(_telemetry_wrap(fn))
        chunks = [
            jobs[i : i + self.chunksize] for i in range(0, len(jobs), self.chunksize)
        ]
        futures = [self._pool.submit(_run_chunk, worker_fn, chunk) for chunk in chunks]

        def _stream() -> Iterator[R]:
            try:
                for future in futures:
                    for result in future.result():
                        yield _telemetry_unwrap(result)
            except KeyboardInterrupt:
                partial = {}
                for k, future in enumerate(futures):
                    if future.done() and not future.cancelled() and future.exception() is None:
                        for offset, result in enumerate(future.result()):
                            partial[k * self.chunksize + offset] = _telemetry_unwrap(result)
                self._terminate_workers()
                raise ExperimentInterrupted(partial, len(jobs)) from None
            except BaseException:
                # The consumer abandoned the stream (GeneratorExit — e.g. the
                # campaign runner stopping at --max-cells) or a job raised:
                # every chunk was already submitted, so cancel the ones that
                # have not started or they would all still be computed — and
                # waited for — at pool shutdown.
                for future in futures:
                    future.cancel()
                raise

        return _stream()


def executor_from_jobs(jobs: Optional[int]) -> ExperimentExecutor:
    """Build the executor matching a ``jobs`` count.

    ``None`` or ``1`` runs serially in-process; ``jobs > 1`` shards the work
    over a :class:`ParallelExecutor` with that many worker processes.
    """
    if jobs is not None and int(jobs) < 1:
        raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
    if jobs is None or int(jobs) == 1:
        return SerialExecutor()
    return ParallelExecutor(int(jobs))


def resolve_executor(
    executor: Optional[ExperimentExecutor], jobs: Optional[int]
) -> ExperimentExecutor:
    """An explicitly supplied executor wins; otherwise build one from *jobs*."""
    if executor is not None:
        return executor
    return executor_from_jobs(jobs)
