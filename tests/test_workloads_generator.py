"""Tests for workload specification, generation and the paper's canned suites."""

import numpy as np
import pytest

from repro.util.errors import ConfigurationError
from repro.workloads import (
    AllAtOnce,
    NormalSizes,
    PoissonArrivals,
    UniformSizes,
    WorkloadSpec,
    generate_workload,
    normal_paper_workload,
    paper_workloads,
    poisson_large_workload,
    poisson_small_workload,
    uniform_narrow_workload,
    uniform_standard_workload,
    uniform_wide_workload,
    workload_by_name,
)


class TestWorkloadSpec:
    def test_describe(self):
        spec = WorkloadSpec(n_tasks=10, sizes=UniformSizes(1, 2))
        desc = spec.describe()
        assert desc["n_tasks"] == 10
        assert "uniform" in desc["sizes"]

    def test_negative_tasks_rejected(self):
        with pytest.raises(ConfigurationError):
            WorkloadSpec(n_tasks=-1, sizes=UniformSizes(1, 2))

    def test_negative_first_id_rejected(self):
        with pytest.raises(ConfigurationError):
            WorkloadSpec(n_tasks=1, sizes=UniformSizes(1, 2), first_task_id=-5)


class TestGenerateWorkload:
    def test_count_and_ids(self):
        spec = WorkloadSpec(n_tasks=25, sizes=UniformSizes(1, 2), first_task_id=100)
        tasks = generate_workload(spec, rng=0)
        assert len(tasks) == 25
        assert sorted(tasks.task_ids) == list(range(100, 125))

    def test_deterministic_with_seed(self):
        spec = WorkloadSpec(n_tasks=30, sizes=NormalSizes(100, 10))
        a = generate_workload(spec, rng=7)
        b = generate_workload(spec, rng=7)
        assert np.array_equal(a.sizes(), b.sizes())

    def test_different_seeds_differ(self):
        spec = WorkloadSpec(n_tasks=30, sizes=NormalSizes(100, 10))
        a = generate_workload(spec, rng=1)
        b = generate_workload(spec, rng=2)
        assert not np.array_equal(a.sizes(), b.sizes())

    def test_tasks_ordered_by_arrival(self):
        spec = WorkloadSpec(
            n_tasks=50, sizes=UniformSizes(1, 2), arrivals=PoissonArrivals(5.0)
        )
        tasks = generate_workload(spec, rng=0)
        arrivals = tasks.arrival_times()
        assert np.all(np.diff(arrivals) >= 0)

    def test_all_at_once_default(self):
        spec = WorkloadSpec(n_tasks=10, sizes=UniformSizes(1, 2))
        tasks = generate_workload(spec, rng=0)
        assert np.all(tasks.arrival_times() == 0.0)

    def test_empty_workload(self):
        spec = WorkloadSpec(n_tasks=0, sizes=UniformSizes(1, 2))
        assert len(generate_workload(spec, rng=0)) == 0


class TestPaperSuites:
    def test_normal_parameters(self):
        spec = normal_paper_workload(100)
        assert spec.n_tasks == 100
        assert spec.sizes.mean() == 1000.0
        assert isinstance(spec.arrivals, AllAtOnce)

    def test_uniform_ranges(self):
        assert uniform_narrow_workload(1).sizes.name == "uniform(10, 100)"
        assert uniform_standard_workload(1).sizes.name == "uniform(10, 1000)"
        assert uniform_wide_workload(1).sizes.name == "uniform(10, 10000)"

    def test_poisson_means(self):
        assert poisson_small_workload(1).sizes.mean() == 10.0
        assert poisson_large_workload(1).sizes.mean() == 100.0

    def test_paper_workloads_contains_all_six(self):
        suite = paper_workloads(10)
        assert set(suite) == {
            "normal",
            "uniform_narrow",
            "uniform_standard",
            "uniform_wide",
            "poisson_small",
            "poisson_large",
        }

    def test_workload_by_name(self):
        spec = workload_by_name("normal", 20)
        assert spec.n_tasks == 20

    def test_workload_by_name_unknown(self):
        with pytest.raises(ConfigurationError):
            workload_by_name("gamma", 20)
