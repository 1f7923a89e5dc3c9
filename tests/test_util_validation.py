"""Tests for the argument-validation helpers."""

import pytest

from repro.util.errors import ConfigurationError
from repro.util.validation import (
    require_at_least,
    require_in_range,
    require_non_negative,
    require_positive,
    require_positive_int,
    require_probability,
)


class TestRequirePositive:
    def test_accepts_positive(self):
        assert require_positive(2.5, "x") == 2.5

    @pytest.mark.parametrize("value", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_non_positive_or_non_finite(self, value):
        with pytest.raises(ConfigurationError):
            require_positive(value, "x")

    def test_error_message_names_parameter(self):
        with pytest.raises(ConfigurationError, match="batch size"):
            require_positive(-1, "batch size")


class TestRequireNonNegative:
    def test_accepts_zero(self):
        assert require_non_negative(0.0, "x") == 0.0

    def test_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            require_non_negative(-0.001, "x")


class TestRequireProbability:
    @pytest.mark.parametrize("value", [0.0, 0.5, 1.0])
    def test_accepts_unit_interval(self, value):
        assert require_probability(value, "p") == value

    @pytest.mark.parametrize("value", [-0.01, 1.01, float("nan")])
    def test_rejects_outside_unit_interval(self, value):
        with pytest.raises(ConfigurationError):
            require_probability(value, "p")


class TestRequireInRange:
    def test_inclusive_bounds(self):
        assert require_in_range(1.0, "x", 1.0, 2.0) == 1.0
        assert require_in_range(2.0, "x", 1.0, 2.0) == 2.0

    def test_exclusive_bounds(self):
        with pytest.raises(ConfigurationError):
            require_in_range(1.0, "x", 1.0, 2.0, inclusive=False)
        assert require_in_range(1.5, "x", 1.0, 2.0, inclusive=False) == 1.5

    def test_out_of_range_rejected(self):
        with pytest.raises(ConfigurationError):
            require_in_range(3.0, "x", 0.0, 2.0)


class TestRequirePositiveInt:
    def test_accepts_positive_integer(self):
        assert require_positive_int(3, "n") == 3

    @pytest.mark.parametrize("value", [0, -2, 1.5, True])
    def test_rejects_invalid(self, value):
        with pytest.raises(ConfigurationError):
            require_positive_int(value, "n")


class TestRequireAtLeast:
    def test_accepts_at_minimum(self):
        assert require_at_least(0, 0, "n") == 0

    def test_rejects_below_minimum(self):
        with pytest.raises(ConfigurationError):
            require_at_least(1, 2, "n")

    def test_rejects_bool(self):
        with pytest.raises(ConfigurationError):
            require_at_least(True, 0, "n")
