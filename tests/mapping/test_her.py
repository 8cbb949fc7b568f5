"""Tests for Hierarchical ER-Mapping (multi-WSC, Fig. 10c)."""

import pytest

from repro.mapping.base import ParallelismConfig
from repro.mapping.er import ERMapping
from repro.mapping.her import HierarchicalERMapping
from repro.topology.mesh import MeshTopology, MultiWaferTopology


@pytest.fixture
def system():
    return MultiWaferTopology(num_wafers=4, wafer_height=4, wafer_width=4)


@pytest.fixture
def mapping(system):
    return HierarchicalERMapping(
        system, ParallelismConfig(tp=4, dp=16, tp_shape=(2, 2))
    )


class TestStructure:
    def test_requires_multiwafer_topology(self):
        with pytest.raises(TypeError, match="MultiWafer"):
            HierarchicalERMapping(
                MeshTopology(4, 4), ParallelismConfig(tp=4, dp=4, tp_shape=(2, 2))
            )

    def test_groups_never_cross_wafers(self, mapping, system):
        for group in mapping.tp_groups:
            wafers = {system.wafer_of(member) for member in group}
            assert len(wafers) == 1

    def test_groups_partition_devices(self, mapping, system):
        seen = set()
        for group in mapping.tp_groups:
            seen.update(group)
        assert seen == set(system.devices)

    def test_wafer_of_group(self, mapping):
        for gid in range(mapping.dp):
            wafer = mapping.wafer_of_group(gid)
            assert 0 <= wafer < 4

    def test_four_groups_per_wafer(self, mapping):
        from collections import Counter

        counter = Counter(mapping.wafer_of_group(g) for g in range(mapping.dp))
        assert all(count == 4 for count in counter.values())


class TestTokenHolders:
    def test_holders_on_fetchers_wafer(self, mapping, system):
        for dest in (0, 20, 40, 63):
            dest_wafer = system.wafer_of(dest)
            for group in (0, 5, 15):
                holders = mapping.token_holders(group, dest)
                assert len(holders) == mapping.tp
                for holder, fraction in holders:
                    assert system.wafer_of(holder) == dest_wafer
                    assert fraction == pytest.approx(1.0 / mapping.tp)

    def test_holders_mirror_local_coords(self, mapping, system):
        group = 0
        members = mapping.tp_groups[group]
        local_coords = {system.local_coord(m) for m in members}
        dest = system.wafer_devices(2)[0]
        holders = mapping.token_holders(group, dest)
        assert {system.local_coord(h) for h, _ in holders} == local_coords


class TestHierarchicalAllreduce:
    def test_total_comm_cheaper_than_flat_er(self, system):
        """HER wins on total communication: AR comparable, A2A far lower."""
        from repro.mapping.placement import StackedPlacement
        from repro.network.alltoall import simulate_alltoall, uniform_demand

        parallelism = ParallelismConfig(tp=4, dp=16, tp_shape=(2, 2))
        her = HierarchicalERMapping(system, parallelism)
        flat = ERMapping(system, parallelism)
        volume = 256 * 8192
        placement = StackedPlacement(1, 128, 64)
        demand = uniform_demand(16, 128, 256, 8, 8192)

        def total(mapping):
            a2a = simulate_alltoall(
                system, demand, placement, mapping
            )
            return mapping.simulate_allreduce(volume).duration + a2a.duration

        assert total(her) < 0.75 * total(flat)

    def test_allreduce_cheaper_than_flat_er_at_high_tp(self):
        """At TP=16 the flat entwined pass spans whole wafers and loses to
        the hierarchical reduce-scatter + line all-gather (Sec. IV-B4)."""
        big = MultiWaferTopology(num_wafers=4, wafer_height=8, wafer_width=8)
        parallelism = ParallelismConfig(tp=16, dp=16, tp_shape=(4, 4))
        her = HierarchicalERMapping(big, parallelism)
        flat = ERMapping(big, parallelism)
        volume = 256 * 8192
        assert (
            her.simulate_allreduce(volume).duration
            < flat.simulate_allreduce(volume).duration
        )

    def test_single_wafer_degenerates_to_reduce_scatter(self):
        single = MultiWaferTopology(num_wafers=1, wafer_height=4, wafer_width=4)
        mapping = HierarchicalERMapping(
            single, ParallelismConfig(tp=4, dp=4, tp_shape=(2, 2))
        )
        result = mapping.simulate_allreduce(1e6)
        assert result.num_steps == mapping.tp - 1

    def test_allreduce_uses_cross_wafer_links(self, mapping, system):
        result = mapping.simulate_allreduce(1e6)
        border_keys = {
            key
            for key, link in system.links.items()
            if link.latency > system.link_spec.link_latency
        }
        assert any(key in border_keys for key in result.link_bytes)


class TestAllToAllConfinement:
    def test_dispatch_never_crosses_wafer(self, mapping, system):
        import numpy as np

        from alltoall_reference import build_dispatch_traffic
        from placement_reference import ExpertPlacement
        from repro.network.alltoall import uniform_demand

        placement = ExpertPlacement(128, 64)
        demand = uniform_demand(16, 128, 64, 8, 100)
        traffic = build_dispatch_traffic(
            demand, placement, mapping
        )
        for (src, dst), _volume in traffic.items():
            assert system.wafer_of(src) == system.wafer_of(dst)
