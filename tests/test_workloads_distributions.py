"""Tests for task-size distributions and arrival processes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.errors import ConfigurationError
from repro.workloads import (
    AllAtOnce,
    BurstArrivals,
    NormalSizes,
    PoissonArrivals,
    PoissonSizes,
    UniformArrivals,
    UniformSizes,
)


class TestUniformSizes:
    def test_samples_within_range(self):
        dist = UniformSizes(10.0, 1000.0)
        samples = dist.sample(500, rng=0)
        assert samples.min() >= 10.0 and samples.max() <= 1000.0

    def test_mean(self):
        assert UniformSizes(10.0, 1000.0).mean() == pytest.approx(505.0)

    def test_invalid_range_rejected(self):
        with pytest.raises(ConfigurationError):
            UniformSizes(100.0, 10.0)

    def test_deterministic_with_seed(self):
        a = UniformSizes(1, 10).sample(20, rng=5)
        b = UniformSizes(1, 10).sample(20, rng=5)
        assert np.array_equal(a, b)

    def test_zero_samples(self):
        assert UniformSizes(1, 10).sample(0, rng=0).size == 0

    def test_negative_count_rejected(self):
        with pytest.raises(ConfigurationError):
            UniformSizes(1, 10).sample(-1)


class TestNormalSizes:
    def test_paper_parameters(self):
        dist = NormalSizes(1000.0, 9.0e5)
        assert dist.mean() == 1000.0
        assert dist.std == pytest.approx(np.sqrt(9.0e5))

    def test_samples_clamped_to_minimum(self):
        dist = NormalSizes(10.0, 1.0e6, minimum=1.0)  # huge variance forces clamping
        samples = dist.sample(1000, rng=0)
        assert samples.min() >= 1.0

    def test_sample_mean_near_theoretical(self):
        dist = NormalSizes(1000.0, 100.0)
        samples = dist.sample(2000, rng=0)
        assert samples.mean() == pytest.approx(1000.0, rel=0.02)

    def test_negative_variance_rejected(self):
        with pytest.raises(ConfigurationError):
            NormalSizes(100.0, -1.0)


class TestPoissonSizes:
    def test_sample_mean_near_theoretical(self):
        dist = PoissonSizes(100.0)
        samples = dist.sample(3000, rng=0)
        assert samples.mean() == pytest.approx(100.0, rel=0.05)

    def test_small_mean_clamped_to_minimum(self):
        samples = PoissonSizes(1.0, minimum=1.0).sample(500, rng=0)
        assert samples.min() >= 1.0

    def test_integer_valued_before_clamp(self):
        samples = PoissonSizes(10.0).sample(100, rng=0)
        assert np.allclose(samples, np.round(samples))


class TestDistributionFactory:
    @given(n=st.integers(min_value=0, max_value=200))
    @settings(max_examples=30, deadline=None)
    def test_all_samples_strictly_positive(self, n):
        """Property: every distribution only produces strictly positive sizes."""
        for dist in (
            UniformSizes(10, 100),
            NormalSizes(50, 2500),
            PoissonSizes(3),
        ):
            samples = dist.sample(n, rng=0)
            assert samples.shape == (n,)
            assert np.all(samples > 0)


class TestArrivalProcesses:
    def test_all_at_once(self):
        times = AllAtOnce().times(5, rng=0)
        assert np.all(times == 0.0)

    def test_all_at_once_custom_instant(self):
        assert np.all(AllAtOnce(at=3.0).times(4) == 3.0)

    def test_poisson_arrivals_monotone(self):
        times = PoissonArrivals(rate_per_second=2.0).times(100, rng=0)
        assert np.all(np.diff(times) >= 0)
        assert times[0] > 0

    def test_poisson_arrivals_rate(self):
        times = PoissonArrivals(rate_per_second=10.0).times(2000, rng=0)
        # mean gap should be close to 1/rate
        assert np.diff(times).mean() == pytest.approx(0.1, rel=0.1)

    def test_uniform_arrivals_within_window(self):
        times = UniformArrivals(duration=100.0, start=50.0).times(200, rng=0)
        assert times.min() >= 50.0 and times.max() <= 150.0
        assert np.all(np.diff(times) >= 0)

    def test_burst_arrivals_grouping(self):
        times = BurstArrivals(n_bursts=4, gap=10.0).times(8, rng=0)
        assert set(times.tolist()) == {0.0, 10.0, 20.0, 30.0}

    def test_zero_arrivals(self):
        assert PoissonArrivals(1.0).times(0).size == 0
