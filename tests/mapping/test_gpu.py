"""Tests for the GPU-cluster mapping."""

import pytest

from repro.mapping.base import ParallelismConfig
from repro.mapping.gpu import GPUMapping
from repro.topology.mesh import MeshTopology
from repro.topology.switched import DGXClusterTopology, NVL72Topology


class TestDGXMapping:
    def test_groups_stay_inside_nodes(self):
        dgx = DGXClusterTopology(4)
        mapping = GPUMapping(dgx, ParallelismConfig(tp=8, dp=4))
        for group in mapping.tp_groups:
            nodes = {dgx.node_of(member) for member in group}
            assert len(nodes) == 1

    def test_tp_wider_than_node_rejected(self):
        dgx = DGXClusterTopology(4)
        with pytest.raises(ValueError, match="pack"):
            GPUMapping(dgx, ParallelismConfig(tp=16, dp=2))

    def test_tp_must_divide_node(self):
        dgx = DGXClusterTopology(2)
        with pytest.raises(ValueError):
            GPUMapping(dgx, ParallelismConfig(tp=3, dp=16))

    def test_requires_switched_topology(self):
        with pytest.raises(TypeError, match="SwitchedTopology"):
            GPUMapping(MeshTopology(4, 4), ParallelismConfig(tp=4, dp=4))


class TestNVL72Mapping:
    def test_any_divisor_tp_allowed(self):
        nvl = NVL72Topology()
        mapping = GPUMapping(nvl, ParallelismConfig(tp=18, dp=4))
        assert len(mapping.tp_groups) == 4
        assert all(len(group) == 18 for group in mapping.tp_groups)

    def test_token_holders_nearest(self):
        nvl = NVL72Topology()
        mapping = GPUMapping(nvl, ParallelismConfig(tp=4, dp=18))
        # All devices are equidistant through the switch, so members of the
        # group split the fetch (except the destination itself, if a member).
        holders = mapping.token_holder_table().entries(0, 70)
        assert [holder for holder, _ in holders] == mapping.tp_groups[0]
        assert len({fraction for _, fraction in holders}) == 1
        assert sum(fraction for _, fraction in holders) == pytest.approx(1.0)
