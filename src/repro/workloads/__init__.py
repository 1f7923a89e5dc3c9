"""Workload models: tasks, size distributions, arrival processes, generators."""

from .arrival import (
    AllAtOnce,
    ArrivalProcess,
    BurstArrivals,
    PiecewiseRateArrivals,
    PoissonArrivals,
    UniformArrivals,
)
from .distributions import (
    NormalSizes,
    PoissonSizes,
    SizeDistribution,
    UniformSizes,
)
from .generator import WorkloadSpec, generate_workload
from .suites import (
    normal_paper_workload,
    paper_workloads,
    poisson_large_workload,
    poisson_small_workload,
    uniform_narrow_workload,
    uniform_standard_workload,
    uniform_wide_workload,
    workload_by_name,
)
from .task import Task, TaskSet
from .traces import (
    TraceData,
    TraceSpec,
    bursty_profile,
    diurnal_profile,
    load_trace,
    make_bursty_trace,
    make_diurnal_trace,
    make_synthetic_trace,
    save_trace,
    trace_from_tasks,
    trace_sha256,
)

__all__ = [
    "Task",
    "TaskSet",
    "SizeDistribution",
    "UniformSizes",
    "NormalSizes",
    "PoissonSizes",
    "ArrivalProcess",
    "AllAtOnce",
    "PoissonArrivals",
    "UniformArrivals",
    "BurstArrivals",
    "PiecewiseRateArrivals",
    "TraceData",
    "TraceSpec",
    "load_trace",
    "save_trace",
    "trace_sha256",
    "trace_from_tasks",
    "diurnal_profile",
    "bursty_profile",
    "make_synthetic_trace",
    "make_diurnal_trace",
    "make_bursty_trace",
    "WorkloadSpec",
    "generate_workload",
    "normal_paper_workload",
    "uniform_narrow_workload",
    "uniform_standard_workload",
    "uniform_wide_workload",
    "poisson_small_workload",
    "poisson_large_workload",
    "paper_workloads",
    "workload_by_name",
]
