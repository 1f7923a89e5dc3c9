"""Tests for processors and availability-variation models."""

import numpy as np
import pytest

from repro.cluster import (
    ConstantAvailability,
    Processor,
    RandomWalkAvailability,
    SinusoidalAvailability,
)
from repro.cluster.variation import MIN_AVAILABILITY
from repro.util.errors import ConfigurationError


class TestConstantAvailability:
    def test_always_returns_level(self):
        model = ConstantAvailability(0.7)
        for t in (0.0, 10.0, 1e6):
            assert model.availability(t) == 0.7

    def test_mean_equals_level(self):
        assert ConstantAvailability(0.5).mean_availability() == 0.5

    def test_level_out_of_range_rejected(self):
        with pytest.raises(ConfigurationError):
            ConstantAvailability(1.5)


class TestSinusoidalAvailability:
    def test_bounded(self):
        model = SinusoidalAvailability(base=0.7, amplitude=0.5, period=100.0)
        values = [model.availability(t) for t in np.linspace(0, 500, 200)]
        assert min(values) >= MIN_AVAILABILITY and max(values) <= 1.0

    def test_periodicity(self):
        model = SinusoidalAvailability(base=0.7, amplitude=0.2, period=100.0)
        assert model.availability(13.0) == pytest.approx(model.availability(113.0))

    def test_zero_amplitude_is_constant(self):
        model = SinusoidalAvailability(base=0.8, amplitude=0.0)
        assert model.availability(5.0) == pytest.approx(0.8)


class TestRandomWalkAvailability:
    def test_bounded(self):
        model = RandomWalkAvailability(base=0.8, sigma=0.2, step=10.0, seed=1)
        values = [model.availability(t) for t in np.linspace(0, 1000, 100)]
        assert min(values) >= MIN_AVAILABILITY and max(values) <= 1.0

    def test_deterministic_given_seed(self):
        a = RandomWalkAvailability(seed=5)
        b = RandomWalkAvailability(seed=5)
        for t in (0.0, 123.0, 999.0):
            assert a.availability(t) == b.availability(t)

    def test_out_of_order_queries_consistent(self):
        model = RandomWalkAvailability(seed=2, step=10.0)
        late = model.availability(500.0)
        early = model.availability(50.0)
        assert model.availability(500.0) == late
        assert model.availability(50.0) == early

    def test_piecewise_constant_within_bucket(self):
        model = RandomWalkAvailability(seed=3, step=100.0)
        assert model.availability(10.0) == model.availability(90.0)

    def test_negative_time_rejected(self):
        with pytest.raises(ConfigurationError):
            RandomWalkAvailability(seed=1).availability(-1.0)


class TestProcessor:
    def test_current_rate_scales_with_availability(self):
        proc = Processor(proc_id=0, peak_rate_mflops=200.0, availability=ConstantAvailability(0.5))
        assert proc.current_rate(0.0) == pytest.approx(100.0)

    def test_dedicated_by_default(self):
        proc = Processor(proc_id=1, peak_rate_mflops=100.0)
        assert proc.is_dedicated()
        assert proc.current_rate(50.0) == 100.0

    def test_execution_time(self):
        proc = Processor(proc_id=0, peak_rate_mflops=100.0)
        assert proc.execution_time(500.0) == pytest.approx(5.0)

    def test_default_name(self):
        assert Processor(proc_id=3, peak_rate_mflops=1.0).name == "proc3"

    def test_invalid_peak_rate(self):
        with pytest.raises(ConfigurationError):
            Processor(proc_id=0, peak_rate_mflops=0.0)

    def test_invalid_id(self):
        with pytest.raises(ConfigurationError):
            Processor(proc_id=-1, peak_rate_mflops=1.0)

    def test_mean_rate_with_varying_availability(self):
        proc = Processor(
            proc_id=0,
            peak_rate_mflops=100.0,
            availability=SinusoidalAvailability(base=0.5, amplitude=0.3, period=100.0),
        )
        assert 20.0 < proc.mean_rate(horizon=1000.0) < 80.0


# ---------------------------------------------------------------------------
# Hypothesis properties: every availability model stays clamped to
# [MIN_AVAILABILITY, 1], and lazily drawn models are re-evaluation
# deterministic (the same time always yields the same value).
# ---------------------------------------------------------------------------

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

# Bounded so lazily drawn models extend at most a few hundred buckets per
# query (times up to 1e6 would make every example extend ~40k buckets).
times = st.floats(min_value=0.0, max_value=2e3, allow_nan=False, allow_infinity=False)


def _models(seed: int):
    """One instance of every availability family, some deliberately extreme."""
    return [
        ConstantAvailability(0.5),
        SinusoidalAvailability(base=0.5, amplitude=3.0, period=120.0, phase=1.0),
        RandomWalkAvailability(base=0.6, sigma=0.5, step=25.0, seed=seed),
    ]


class TestAvailabilityClampProperty:
    @given(time=times, seed=st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=100, deadline=None)
    def test_every_model_stays_in_bounds(self, time, seed):
        for model in _models(seed):
            value = model.availability(time)
            assert MIN_AVAILABILITY <= value <= 1.0, (model, time, value)


class TestLazyDrawDeterminism:
    @given(
        query_times=st.lists(times, min_size=1, max_size=20),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=50, deadline=None)
    def test_random_walk_reevaluation_identical(self, query_times, seed):
        model = RandomWalkAvailability(base=0.7, sigma=0.1, step=10.0, seed=seed)
        first = [model.availability(t) for t in query_times]
        # Re-query in reverse (and again in order): lazily drawn buckets must
        # return exactly the values they returned the first time.
        second = [model.availability(t) for t in reversed(query_times)]
        assert first == [model.availability(t) for t in query_times]
        assert second == list(reversed(first))

    @given(
        query_times=st.lists(times, min_size=1, max_size=20),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=50, deadline=None)
    def test_random_walk_independent_instances_agree(self, query_times, seed):
        # Two instances with the same seed must agree even when queried in
        # different orders (trajectory extension is order-independent).
        a = RandomWalkAvailability(base=0.7, sigma=0.1, step=10.0, seed=seed)
        b = RandomWalkAvailability(base=0.7, sigma=0.1, step=10.0, seed=seed)
        values_a = [a.availability(t) for t in query_times]
        values_b = [b.availability(t) for t in reversed(query_times)]
        assert values_a == list(reversed(values_b))
