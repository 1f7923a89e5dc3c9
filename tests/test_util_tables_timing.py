"""Tests for reporting tables."""

import pytest

from repro.util.tables import (
    format_bar_chart,
    format_key_values,
    format_series_table,
    format_table,
)


class TestFormatTable:
    def test_basic_layout(self):
        text = format_table(["a", "bb"], [[1, 2.5], [30, 4]])
        lines = text.splitlines()
        assert lines[0].startswith("a")
        assert "bb" in lines[0]
        assert len(lines) == 4  # header, rule, two rows

    def test_title_included(self):
        text = format_table(["x"], [[1]], title="My table")
        assert text.splitlines()[0] == "My table"

    def test_mismatched_row_rejected(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])

    def test_float_formatting_applied(self):
        text = format_table(["v"], [[3.14159]], float_fmt=".2f")
        assert "3.14" in text and "3.14159" not in text

    def test_columns_aligned(self):
        text = format_table(["name", "v"], [["a", 1], ["longer", 2]])
        rows = text.splitlines()[2:]
        positions = [row.index("|") for row in rows]
        assert len(set(positions)) == 1


class TestFormatSeriesTable:
    def test_one_row_per_x(self):
        text = format_series_table("x", [1, 2, 3], {"s": [4, 5, 6]})
        assert len(text.splitlines()) == 5

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            format_series_table("x", [1, 2], {"s": [1]})

    def test_multiple_series_columns(self):
        text = format_series_table("x", [1], {"a": [2], "b": [3]})
        header = text.splitlines()[0]
        assert "a" in header and "b" in header


class TestFormatBarChart:
    def test_bars_scale_with_value(self):
        text = format_bar_chart({"small": 1.0, "big": 10.0}, width=20)
        small_line = next(line for line in text.splitlines() if line.startswith("small"))
        big_line = next(line for line in text.splitlines() if line.startswith("big"))
        assert big_line.count("#") > small_line.count("#")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            format_bar_chart({})

    def test_zero_values_render_without_bars(self):
        text = format_bar_chart({"a": 0.0})
        assert "#" not in text

    def test_title(self):
        assert format_bar_chart({"a": 1.0}, title="T").splitlines()[0] == "T"


class TestFormatKeyValues:
    def test_alignment(self):
        text = format_key_values({"a": 1, "long_key": 2})
        lines = text.splitlines()
        assert lines[0].index(":") == lines[1].index(":")

    def test_empty_mapping(self):
        assert format_key_values({}) == ""
        assert format_key_values({}, title="T") == "T"
