"""Tests for the exponential smoothing (Γ) helpers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.errors import ConfigurationError
from repro.util.smoothing import ExponentialSmoother, SmoothedMap


class TestExponentialSmoother:
    def test_first_observation_becomes_value(self):
        s = ExponentialSmoother(nu=0.3)
        assert s.update(42.0) == 42.0
        assert s.value == 42.0

    def test_update_follows_paper_recurrence(self):
        s = ExponentialSmoother(nu=0.5)
        s.update(10.0)
        assert s.update(20.0) == pytest.approx(15.0)
        assert s.update(20.0) == pytest.approx(17.5)

    def test_nu_zero_freezes_first_value(self):
        s = ExponentialSmoother(nu=0.0)
        s.update(5.0)
        for value in (100.0, -3.0, 7.0):
            assert s.update(value) == 5.0

    def test_nu_one_tracks_latest_value(self):
        s = ExponentialSmoother(nu=1.0)
        s.update(5.0)
        assert s.update(99.0) == 99.0
        assert s.update(-1.0) == -1.0

    def test_initial_value_used_before_observations(self):
        s = ExponentialSmoother(nu=0.5, initial=8.0)
        assert s.value == 8.0
        assert s.is_initialised
        assert s.update(0.0) == pytest.approx(4.0)

    def test_count_tracks_observations(self):
        s = ExponentialSmoother(nu=0.5)
        assert s.count == 0
        s.update(1.0)
        s.update(2.0)
        assert s.count == 2

    def test_peek_returns_default_when_uninitialised(self):
        s = ExponentialSmoother(nu=0.5)
        assert s.peek(default=3.0) == 3.0
        s.update(10.0)
        assert s.peek(default=3.0) == 10.0

    def test_reset_clears_state(self):
        s = ExponentialSmoother(nu=0.5)
        s.update(10.0)
        s.reset()
        assert s.value is None
        assert s.count == 0

    def test_reset_with_new_initial(self):
        s = ExponentialSmoother(nu=0.5)
        s.update(10.0)
        s.reset(initial=2.0)
        assert s.value == 2.0

    @pytest.mark.parametrize("nu", [-0.1, 1.1, 2.0, float("nan")])
    def test_invalid_nu_rejected(self, nu):
        with pytest.raises(ConfigurationError):
            ExponentialSmoother(nu=nu)

    @given(
        nu=st.floats(min_value=0.0, max_value=1.0),
        values=st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1, max_size=50),
    )
    @settings(max_examples=60, deadline=None)
    def test_value_stays_within_observed_range(self, nu, values):
        """Property: the smoothed value is always within [min, max] of observations so far."""
        s = ExponentialSmoother(nu=nu)
        low, high = float("inf"), float("-inf")
        for v in values:
            low, high = min(low, v), max(high, v)
            s.update(v)
            assert low - 1e-6 <= s.value <= high + 1e-6

    @given(values=st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=2, max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_constant_sequence_is_fixed_point(self, values):
        """Property: feeding the same value repeatedly keeps Γ equal to it."""
        s = ExponentialSmoother(nu=0.7)
        constant = values[0]
        for _ in range(10):
            assert s.update(constant) == pytest.approx(constant)


class TestSmoothedMap:
    def test_independent_keys(self):
        m = SmoothedMap(nu=0.5)
        m.update("a", 10.0)
        m.update("b", 100.0)
        assert m.get("a") == 10.0
        assert m.get("b") == 100.0

    def test_default_for_unknown_key(self):
        m = SmoothedMap(nu=0.5, default=7.0)
        assert m.get("missing") == 7.0
        assert m.get("missing", default=1.0) == 1.0

    def test_len_and_contains(self):
        m = SmoothedMap(nu=0.5)
        assert len(m) == 0
        m.update(3, 1.0)
        assert 3 in m and 4 not in m
        assert len(m) == 1

    def test_observation_count(self):
        m = SmoothedMap(nu=0.5)
        assert m.observation_count("x") == 0
        m.update("x", 1.0)
        m.update("x", 2.0)
        assert m.observation_count("x") == 2

    def test_known_keys_only_lists_observed(self):
        m = SmoothedMap(nu=0.5)
        m.update("x", 1.0)
        assert m.known_keys() == ["x"]

    def test_reset_forgets_everything(self):
        m = SmoothedMap(nu=0.5)
        m.update("x", 1.0)
        m.reset()
        assert len(m) == 0
        assert m.get("x") == 0.0

    def test_invalid_nu_rejected(self):
        with pytest.raises(ConfigurationError):
            SmoothedMap(nu=1.5)
