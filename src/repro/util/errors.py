"""Exception hierarchy for the :mod:`repro` package.

All exceptions raised by the library derive from :class:`ReproError`, so that
callers can catch any library failure with a single ``except`` clause while
still being able to distinguish configuration problems from runtime failures.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ConfigurationError",
    "EncodingError",
    "ExperimentInterrupted",
    "SchedulingError",
    "SimulationError",
    "WorkloadError",
]


class ReproError(Exception):
    """Base class for every exception raised by the ``repro`` library."""


class ConfigurationError(ReproError, ValueError):
    """A parameter or configuration object is invalid.

    Raised when user supplied values (population sizes, probabilities,
    processor counts, distribution parameters, ...) are out of range or
    inconsistent with one another.
    """


class EncodingError(ReproError, ValueError):
    """A GA chromosome is malformed.

    Raised when a chromosome does not contain the expected set of task
    identifiers and queue delimiters, or when a decoded schedule references
    unknown tasks or processors.
    """


class SchedulingError(ReproError, RuntimeError):
    """A scheduler could not produce a valid assignment."""


class SimulationError(ReproError, RuntimeError):
    """The discrete event simulation reached an inconsistent state."""


class WorkloadError(ReproError, ValueError):
    """A workload specification or generated task set is invalid."""


class ExperimentInterrupted(ReproError, RuntimeError):
    """An executor map was interrupted (Ctrl-C) before every job finished.

    Raised by the process-pool executor after it has terminated its worker
    processes, instead of letting the ``KeyboardInterrupt`` hang on the pool
    join.  ``partial`` maps *job indices* to completed results the caller
    has not otherwise received — at least every result that finished but was
    never delivered through ``map``/``imap`` — so callers (e.g. the campaign
    runner) can persist the work already paid for.
    """

    def __init__(self, partial: dict, total: int) -> None:
        self.partial = dict(partial)
        self.total = int(total)
        super().__init__(
            f"interrupted after {len(self.partial)}/{self.total} jobs completed"
        )
