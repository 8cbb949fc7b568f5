"""Tests for the multi-wafer topology."""

import pytest

from repro.hardware.interconnect import WSC_CROSS_WAFER, WSC_LINK
from repro.topology.mesh import Coord, MultiWaferTopology


@pytest.fixture
def system():
    return MultiWaferTopology(num_wafers=4, wafer_height=4, wafer_width=4)


class TestStructure:
    def test_total_devices(self, system):
        assert system.num_devices == 64

    def test_overall_mesh_shape(self, system):
        assert system.height == 4
        assert system.width == 16

    @pytest.mark.parametrize("shape", [(0, 4, 4), (2, 0, 4), (2, 4, 0)])
    def test_rejects_nonpositive_wafers(self, shape):
        with pytest.raises(ValueError, match="must be positive"):
            MultiWaferTopology(*shape)

    def test_validate(self, system):
        system.validate()


class TestWaferHelpers:
    def test_wafer_of(self, system):
        assert system.wafer_of(system.device_at(Coord(0, 0))) == 0
        assert system.wafer_of(system.device_at(Coord(0, 4))) == 1
        assert system.wafer_of(system.device_at(Coord(3, 15))) == 3

    def test_wafer_devices_partition(self, system):
        seen = set()
        for wafer in range(4):
            devices = system.wafer_devices(wafer)
            assert len(devices) == 16
            seen.update(devices)
        assert seen == set(system.devices)

    def test_wafer_devices_out_of_range(self, system):
        with pytest.raises(ValueError):
            system.wafer_devices(4)

    def test_local_coord(self, system):
        device = system.device_at(Coord(2, 9))
        assert system.local_coord(device) == Coord(2, 1)


class TestCrossWaferLinks:
    def test_cross_border_bandwidth_capped_at_intra(self, system):
        inner = system.link(
            system.device_at(Coord(0, 0)), system.device_at(Coord(0, 1))
        )
        border = system.link(
            system.device_at(Coord(0, 3)), system.device_at(Coord(0, 4))
        )
        assert inner.bandwidth == WSC_LINK.bandwidth
        # Aggregate border bandwidth over 4 edge dies exceeds a die link, so
        # the per-link rate caps at the on-wafer SerDes rate.
        assert border.bandwidth == pytest.approx(
            min(WSC_CROSS_WAFER.bandwidth / 4, WSC_LINK.bandwidth)
        )

    def test_cross_border_slower_on_wide_wafers(self):
        wide = MultiWaferTopology(num_wafers=2, wafer_height=8, wafer_width=8)
        border = wide.link(
            wide.device_at(Coord(0, 7)), wide.device_at(Coord(0, 8))
        )
        assert border.bandwidth == pytest.approx(WSC_CROSS_WAFER.bandwidth / 8)
        assert border.bandwidth < WSC_LINK.bandwidth

    def test_cross_border_latency_higher(self, system):
        border = system.link(
            system.device_at(Coord(1, 7)), system.device_at(Coord(1, 8))
        )
        assert border.latency == WSC_CROSS_WAFER.link_latency
        assert border.latency > WSC_LINK.link_latency

    def test_vertical_links_on_border_column_stay_fast(self, system):
        link = system.link(
            system.device_at(Coord(0, 3)), system.device_at(Coord(1, 3))
        )
        assert link.bandwidth == WSC_LINK.bandwidth

    def test_route_across_wafers_crosses_borders(self, system):
        src = system.device_at(Coord(0, 0))
        dst = system.device_at(Coord(0, 8))
        path = system.route(src, dst)
        border_links = [
            link for link in path if link.latency == WSC_CROSS_WAFER.link_latency
        ]
        assert len(border_links) == 2  # crosses two wafer borders

    def test_hops_is_manhattan_across_wafers(self, system):
        src = system.device_at(Coord(0, 0))
        dst = system.device_at(Coord(3, 15))
        assert system.hops(src, dst) == 18
