"""Tests for analysis helpers."""

import numpy as np
import pytest

from repro.analysis.load import device_token_loads, imbalance_degree, load_ratio
from repro.analysis.report import bar_chart, format_table, relative
from repro.mapping.placement import StackedPlacement


class TestDeviceLoads:
    def test_native_loads(self):
        placement = StackedPlacement(1, 8, 4)
        loads = device_token_loads(np.arange(8, dtype=float)[None], placement)
        np.testing.assert_allclose(loads, [[1.0, 5.0, 9.0, 13.0]])

    def test_replicas_split_load(self):
        placement = StackedPlacement(1, 8, 4, shadow_slots=1)
        placement.add_replica(0, 0, 3)
        expert_loads = np.zeros((1, 8))
        expert_loads[0, 0] = 10.0
        (loads,) = device_token_loads(expert_loads, placement)
        assert loads[0] == pytest.approx(5.0)
        assert loads[3] == pytest.approx(5.0)

    def test_layers_split_their_own_loads(self):
        """Each layer splits its row over its own replicas (Load/Num)."""
        placement = StackedPlacement(2, 8, 4, shadow_slots=2)
        placement.add_replica(1, 0, 2)
        placement.add_replica(1, 0, 3)
        layer_loads = np.zeros((2, 8))
        layer_loads[:, 0] = 12.0
        layer_loads[:, 5] = 3.0
        loads = device_token_loads(layer_loads, placement)
        np.testing.assert_array_equal(loads, [[12.0, 0.0, 3.0, 0.0], [4.0, 0.0, 7.0, 4.0]])

    def test_shape_checked(self):
        with pytest.raises(ValueError, match=r"expected \(1, 8\) layer loads"):
            device_token_loads(np.zeros((1, 3)), StackedPlacement(1, 8, 4))
        with pytest.raises(ValueError, match=r"expected \(2, 8\) layer loads"):
            device_token_loads(np.zeros(8), StackedPlacement(2, 8, 4))


class TestRatios:
    def test_uniform_ratio_one(self):
        assert load_ratio(np.full(8, 3.0)) == pytest.approx(1.0)

    def test_skewed_ratio(self):
        loads = np.ones(4)
        loads[0] = 7.0
        assert load_ratio(loads) == pytest.approx(7.0 / 2.5)

    def test_zero_loads(self):
        assert load_ratio(np.zeros(4)) == 1.0

    def test_imbalance_degree(self):
        assert imbalance_degree(np.full(8, 3.0)) == pytest.approx(0.0)
        assert imbalance_degree(np.array([3.0, 1.0])) > 0


class TestReport:
    def test_format_table_alignment(self):
        table = format_table(["name", "value"], [["a", 1.5], ["long-name", 2.0]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("name")

    def test_format_table_width_mismatch(self):
        with pytest.raises(ValueError):
            format_table(["a"], [["x", "y"]])

    def test_format_table_empty_headers(self):
        with pytest.raises(ValueError):
            format_table([], [])

    def test_bar_chart(self):
        chart = bar_chart(["a", "bb"], [1.0, 2.0])
        lines = chart.splitlines()
        assert len(lines) == 2
        assert lines[1].count("#") > lines[0].count("#")

    def test_bar_chart_mismatch(self):
        with pytest.raises(ValueError):
            bar_chart(["a"], [1.0, 2.0])

    def test_bar_chart_empty(self):
        assert bar_chart([], []) == ""

    def test_relative(self):
        assert relative(10.0, 5.0) == pytest.approx(0.5)
        assert relative(10.0, 12.0) == pytest.approx(-0.2)

    def test_relative_rejects_zero_baseline(self):
        with pytest.raises(ValueError):
            relative(0.0, 1.0)
