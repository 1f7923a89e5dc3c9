"""Scheduler registry: build any of the paper's seven schedulers by name.

The experiment harness constructs all schedulers through this registry so
that every figure uses identically configured policies.  The PN scheduler is
imported lazily to avoid a circular import between :mod:`repro.schedulers`
and :mod:`repro.core`.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..util.errors import ConfigurationError
from ..util.rng import RNGLike
from .base import Scheduler
from .earliest_first import EarliestFirstScheduler
from .lightest_loaded import LightestLoadedScheduler
from .max_min import MaxMinScheduler
from .min_min import MinMinScheduler
from .round_robin import RoundRobinScheduler
from .zomaya import ZomayaScheduler, default_zomaya_ga_config

__all__ = [
    "ALL_SCHEDULER_NAMES",
    "IMMEDIATE_SCHEDULER_NAMES",
    "BATCH_SCHEDULER_NAMES",
    "make_scheduler",
    "make_all_schedulers",
]

#: The seven schedulers compared in the paper, in its figures' label order.
ALL_SCHEDULER_NAMES: List[str] = ["EF", "LL", "RR", "ZO", "PN", "MM", "MX"]
#: The three immediate-mode baselines.
IMMEDIATE_SCHEDULER_NAMES: List[str] = ["EF", "LL", "RR"]
#: The four batch-mode schedulers (three baselines plus the paper's PN).
BATCH_SCHEDULER_NAMES: List[str] = ["MM", "MX", "ZO", "PN"]


def make_scheduler(
    name: str,
    *,
    n_processors: int,
    batch_size: int = 200,
    max_generations: int = 1000,
    dynamic_batch: bool = True,
    rng: RNGLike = None,
) -> Scheduler:
    """Construct one of the paper's schedulers by its two-letter label.

    Parameters
    ----------
    name:
        One of ``EF``, ``LL``, ``RR``, ``MM``, ``MX``, ``ZO``, ``PN``
        (case-insensitive).
    n_processors:
        Number of processors in the target system (needed by PN).
    batch_size:
        Fixed batch size used by the batch-mode baselines (MM, MX, ZO) and by
        PN when ``dynamic_batch`` is False.
    max_generations:
        Generation limit of the GA schedulers (ZO and PN).
    dynamic_batch:
        Whether PN uses the paper's dynamic batch-size rule (True) or the
        same fixed batch size as the baselines (False).
    rng:
        Randomness source passed to the GA schedulers.
    """
    key = name.strip().upper()
    if key == "EF":
        return EarliestFirstScheduler()
    if key == "LL":
        return LightestLoadedScheduler()
    if key == "RR":
        return RoundRobinScheduler()
    if key == "MM":
        return MinMinScheduler(batch_size=batch_size)
    if key == "MX":
        return MaxMinScheduler(batch_size=batch_size)
    if key == "ZO":
        return ZomayaScheduler(
            batch_size=batch_size,
            ga_config=default_zomaya_ga_config(max_generations=max_generations),
            rng=rng,
        )
    if key == "PN":
        # Imported lazily: repro.core depends on repro.schedulers.base.
        from ..core.batching import DynamicBatchSizer, FixedBatchSizer
        from ..core.pn_scheduler import PNScheduler, default_pn_ga_config

        batch_sizer = (
            DynamicBatchSizer(
                min_batch=min(10, batch_size),
                max_batch=batch_size,
                initial_batch=batch_size,
            )
            if dynamic_batch
            else FixedBatchSizer(batch_size=batch_size)
        )
        return PNScheduler(
            n_processors=n_processors,
            ga_config=default_pn_ga_config(max_generations=max_generations),
            batch_sizer=batch_sizer,
            rng=rng,
        )
    raise ConfigurationError(
        f"unknown scheduler {name!r}; expected one of {ALL_SCHEDULER_NAMES}"
    )


def make_all_schedulers(
    *,
    n_processors: int,
    batch_size: int = 200,
    max_generations: int = 1000,
    dynamic_batch: bool = True,
    rng: RNGLike = None,
    names: Optional[List[str]] = None,
) -> Dict[str, Scheduler]:
    """Construct every scheduler in *names* (default: all seven), keyed by label."""
    selected = names or ALL_SCHEDULER_NAMES
    return {
        name: make_scheduler(
            name,
            n_processors=n_processors,
            batch_size=batch_size,
            max_generations=max_generations,
            dynamic_batch=dynamic_batch,
            rng=rng,
        )
        for name in selected
    }
