"""Tests of the test oracles and of their separation from the program.

* **time rescaling** — :class:`PiecewiseRateArrivals` samples an
  inhomogeneous Poisson process; mapped through the cumulative intensity
  ``Λ`` (integrated independently in ``tests/oracles.py``), its arrival
  times must become a unit-rate Poisson process, i.e. the gaps must pass a
  Kolmogorov-Smirnov test against Exp(1) (the time-rescaling goodness-of-fit
  test of Hohmann 2019);
* **the oracles reach the engine** — a parity test against an oracle is
  vacuous if the oracle never runs, so the ``kernels=`` injection points are
  checked to use what they are handed;
* **isolation** — the oracles are test code: no module of the program may
  import from ``tests/``.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from repro.cluster.topology import homogeneous_cluster
from repro.ga import GAConfig, GeneticAlgorithm, VectorizedBackend
from repro.schedulers.registry import make_scheduler
from repro.sim.simulation import DistributedSystemSimulation
from repro.workloads import PiecewiseRateArrivals, Task, TaskSet

from oracles import (
    LoopBackend,
    LoopPolicyBackend,
    piecewise_cumulative_intensity,
    policy_kernels_installed,
)

REPO = Path(__file__).resolve().parents[1]


def ks_exponential(sample):
    """One-sample Kolmogorov-Smirnov test of *sample* against Exp(1).

    Returns the statistic ``D = sup |F_n(x) - (1 - e^-x)|`` and its
    asymptotic p-value ``P(K > sqrt(n) D)`` from the Kolmogorov
    distribution (within a few percent of the exact p-value for the
    thousands of points used here).  Each of the two standard series for
    ``K`` is summed where it converges fast.
    """
    x = np.sort(np.asarray(sample, dtype=float))
    n = x.size
    cdf = -np.expm1(-x)
    d_plus = np.max(np.arange(1, n + 1) / n - cdf)
    d_minus = np.max(cdf - np.arange(n) / n)
    statistic = max(d_plus, d_minus)
    lam = np.sqrt(n) * statistic
    k = np.arange(1, 51)
    if lam < 1.0:
        odd = (2 * k - 1) ** 2
        cdf_k = np.sqrt(2 * np.pi) / lam * np.exp(-odd * np.pi**2 / (8 * lam**2)).sum()
        pvalue = 1.0 - cdf_k
    else:
        pvalue = 2.0 * ((-1.0) ** (k - 1) * np.exp(-2.0 * k**2 * lam**2)).sum()
    return statistic, float(np.clip(pvalue, 0.0, 1.0))


#: Diurnal-shaped profile: quiet, a 15x burst, a trough, then the tail rate.
DURATIONS = (100.0, 50.0, 200.0)
RATES = (2.0, 30.0, 0.5)
START = 5.0


class TestPiecewiseRateTimeRescaling:
    def rescaled_gaps(self, times):
        warped = piecewise_cumulative_intensity(times, DURATIONS, RATES, start=START)
        return np.diff(np.concatenate(([0.0], warped)))

    def test_oracle_integrates_the_profile(self):
        ends = START + np.cumsum(DURATIONS)
        times = [START, *ends, ends[-1] + 10.0]
        intensity = piecewise_cumulative_intensity(times, DURATIONS, RATES, start=START)
        assert intensity == pytest.approx([0.0, 200.0, 1700.0, 1800.0, 1805.0])

    def test_rescaled_gaps_are_unit_exponential(self):
        # 2000 arrivals cover every segment and ~200 fall past the profile's
        # end, where the last rate continues.
        process = PiecewiseRateArrivals(DURATIONS, RATES, start=START)
        times = process.times(2000, rng=np.random.default_rng(20190))
        assert np.all(np.diff(times) >= 0)
        assert times[-1] > START + sum(DURATIONS)
        gaps = self.rescaled_gaps(times)
        assert np.all(gaps > 0)
        statistic, pvalue = ks_exponential(gaps)
        assert pvalue > 0.01, (statistic, pvalue)

    def test_a_wrong_intensity_is_rejected(self):
        # Power check: rescaling by the profile's *mean* rate (a homogeneous
        # model of the same traffic) must fail the same test decisively.
        process = PiecewiseRateArrivals(DURATIONS, RATES, start=START)
        times = process.times(2000, rng=np.random.default_rng(20190))
        mean_rate = sum(d * r for d, r in zip(DURATIONS, RATES)) / sum(DURATIONS)
        gaps = np.diff(np.concatenate(([0.0], mean_rate * (times - START))))
        statistic, pvalue = ks_exponential(gaps)
        assert pvalue < 1e-6, (statistic, pvalue)

    def test_ks_helper_matches_known_values(self):
        # A perfect Exp(1) quantile grid has D = 1/(2n); a sample shifted by
        # 0.5 has D = 1 - e^-0.5 (the empirical CDF is 0 below 0.5).
        n = 1000
        grid = -np.log1p(-(np.arange(n) + 0.5) / n)
        statistic, pvalue = ks_exponential(grid)
        assert statistic == pytest.approx(0.5 / n)
        assert pvalue == pytest.approx(1.0)
        statistic, pvalue = ks_exponential(grid + 0.5)
        assert statistic == pytest.approx(-np.expm1(-0.5), abs=1e-3)
        assert pvalue < 1e-12


class TestOraclesReachTheEngine:
    def test_genetic_algorithm_uses_the_kernels_it_is_given(self):
        oracle = LoopBackend()
        assert GeneticAlgorithm(GAConfig(), rng=0, kernels=oracle).backend is oracle
        assert isinstance(GeneticAlgorithm(GAConfig(), rng=0).backend, VectorizedBackend)

    def test_simulation_master_uses_the_installed_policy_kernels(self):
        calls = []

        class CountingOracle(LoopPolicyBackend):
            def greedy_finish_batch(self, sizes, task_ids, loads, rates, descending):
                calls.append(len(sizes))
                return super().greedy_finish_batch(sizes, task_ids, loads, rates, descending)

        oracle = CountingOracle()
        tasks = TaskSet(Task(i, 10.0 + i) for i in range(12))
        cluster = homogeneous_cluster(3, 100.0, mean_comm_cost=1.0)
        scheduler = make_scheduler("MM", n_processors=3, batch_size=5, rng=0)
        with policy_kernels_installed(oracle):
            sim = DistributedSystemSimulation(scheduler, cluster, tasks, rng=1)
        assert sim.master.policy_kernels is oracle
        result = sim.run()
        # Every MinMin batch was placed by the oracle's kernel.
        assert calls == result.batch_sizes and sum(calls) == 12


class TestOracleIsolation:
    def test_no_program_module_imports_from_tests(self):
        test_modules = {path.stem for path in (REPO / "tests").glob("*.py")} | {"tests"}
        offenders = []
        for path in sorted((REPO / "src" / "repro").rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf8"))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names = [node.module or ""]
                else:
                    continue
                for name in names:
                    if name.split(".")[0] in test_modules:
                        offenders.append(f"{path.relative_to(REPO)}:{node.lineno}: {name}")
        assert offenders == []
