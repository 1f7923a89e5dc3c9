"""Scheduling policies: the paper's six baselines plus shared interfaces.

The paper's own scheduler (PN) lives in :mod:`repro.core`; it shares the
:class:`~repro.schedulers.base.Scheduler` interface defined here so the
simulator and experiment harness treat all seven policies uniformly.
"""

from .base import (
    BatchScheduler,
    ImmediateScheduler,
    ScheduleAssignment,
    Scheduler,
    SchedulerMode,
    SchedulingContext,
)
from .earliest_first import EarliestFirstScheduler
from .kernels import (
    PolicyKernelBackend,
    VectorizedPolicyBackend,
    default_policy_kernels,
)
from .extended import (
    EXTENDED_SCHEDULER_NAMES,
    MinimumExecutionTimeScheduler,
    OpportunisticLoadBalancingScheduler,
    SufferageScheduler,
)
from .lightest_loaded import LightestLoadedScheduler
from .max_min import MaxMinScheduler
from .min_min import MinMinScheduler
from .registry import (
    ALL_SCHEDULER_NAMES,
    BATCH_SCHEDULER_NAMES,
    IMMEDIATE_SCHEDULER_NAMES,
    make_all_schedulers,
    make_scheduler,
)
from .round_robin import RoundRobinScheduler
from .zomaya import ZomayaScheduler, default_zomaya_ga_config

__all__ = [
    "Scheduler",
    "SchedulerMode",
    "SchedulingContext",
    "ScheduleAssignment",
    "ImmediateScheduler",
    "BatchScheduler",
    "EarliestFirstScheduler",
    "LightestLoadedScheduler",
    "RoundRobinScheduler",
    "MinMinScheduler",
    "MaxMinScheduler",
    "ZomayaScheduler",
    "default_zomaya_ga_config",
    "MinimumExecutionTimeScheduler",
    "OpportunisticLoadBalancingScheduler",
    "SufferageScheduler",
    "EXTENDED_SCHEDULER_NAMES",
    "ALL_SCHEDULER_NAMES",
    "IMMEDIATE_SCHEDULER_NAMES",
    "BATCH_SCHEDULER_NAMES",
    "make_scheduler",
    "make_all_schedulers",
    "PolicyKernelBackend",
    "VectorizedPolicyBackend",
    "default_policy_kernels",
]
