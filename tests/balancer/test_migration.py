"""Tests for migration path decomposition and draining.

The unit tests drive the table on a 4x4 ER mesh.  The property test holds
it to the per-migration objects of ``tests/migration_reference.py``,
segment by segment and window by window, on generated fabrics.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import migration_reference as reference
from repro.balancer.base import Migration
from repro.balancer.migration import (
    _PAST_END,
    GLOBAL,
    LOCAL,
    MigrationLinks,
    PendingMigration,
    split_migration,
)
from repro.mapping.base import ParallelismConfig
from repro.mapping.baseline import BaselineMapping
from repro.mapping.er import ERMapping
from repro.mapping.gpu import GPUMapping
from repro.mapping.her import HierarchicalERMapping
from repro.topology.mesh import MeshTopology, MultiWaferTopology
from repro.topology.switched import DGXClusterTopology, NVL72Topology

#: The reference's segment kinds as table codes.
CODES = {reference.SegmentKind.LOCAL: LOCAL, reference.SegmentKind.GLOBAL: GLOBAL}


@pytest.fixture
def mesh():
    return MeshTopology(4, 4)


@pytest.fixture
def er(mesh):
    return ERMapping(mesh, ParallelismConfig(tp=4, dp=4, tp_shape=(2, 2)))


def split_one(topology, ftd_of, src, dst, volume=1e6):
    return split_migration(
        MigrationLinks(topology, ftd_of),
        [(0, Migration(expert=0, src=src, dst=dst, volume=volume))],
    )


def kinds_of(table, row=0):
    kinds = table.kind[row]
    return kinds[kinds != _PAST_END].tolist()


def drain_windows(ar_duration, a2a_duration):
    """The serving engine's windows: half of each phase's link time."""
    return (
        (LOCAL, 0.5 * ar_duration),
        (GLOBAL, 0.5 * a2a_duration),
        (LOCAL, 0.5 * ar_duration),
    )


class TestSplit:
    def test_cross_ftd_path_has_local_and_global(self, mesh, er):
        # Device 0 (FTD 0) to device 15 (FTD 3): the longest migration of
        # Fig. 11d, decomposed Local -> Global -> Local.
        table = split_one(mesh, er.ftd_of, 0, 15)
        kinds = kinds_of(table)
        assert GLOBAL in kinds
        assert kinds.count(LOCAL) >= 1
        walked = reference.split_migration(mesh, er.ftd_of, 0, 0, 15, 1e6)
        assert kinds == [CODES[segment.kind] for segment in walked.segments]
        assert sum(segment.hops for segment in walked.segments) == mesh.hops(0, 15)

    def test_intra_ftd_path_is_all_local(self, mesh, er):
        # Devices 0 and 5 share FTD 0.
        assert set(kinds_of(split_one(mesh, er.ftd_of, 0, 5))) == {LOCAL}

    def test_no_ftds_means_all_global(self, mesh):
        table = split_one(mesh, lambda device: None, 0, 15)
        assert kinds_of(table) == [GLOBAL]

    def test_switch_hops_are_global(self):
        topology = DGXClusterTopology(num_nodes=2)
        # Devices 0 and 1 share a label, but their route crosses a switch.
        table = split_one(topology, lambda device: 0, 0, 1)
        assert kinds_of(table) == [GLOBAL]

    def test_each_segment_carries_full_volume(self, mesh, er):
        table = split_one(mesh, er.ftd_of, 0, 15)
        real = table.kind[0] != _PAST_END
        assert (table.remaining[0, real] == 1e6).all()
        assert (table.remaining[0, ~real] == np.inf).all()

    def test_rejects_nonpositive_volume(self, mesh, er):
        # A copy's volume is checked where the copy is made.
        with pytest.raises(ValueError):
            Migration(expert=0, src=0, dst=1, volume=0.0)

    def test_copies_keep_their_order(self, mesh, er):
        items = [
            (layer, Migration(expert=layer, src=src, dst=dst, volume=1e6))
            for layer, (src, dst) in enumerate([(0, 15), (0, 5), (3, 12), (6, 9)])
        ]
        table = split_migration(MigrationLinks(mesh, er.ftd_of), items)
        assert table.items == items
        for row, (_, migration) in enumerate(items):
            alone = split_one(mesh, er.ftd_of, migration.src, migration.dst)
            assert kinds_of(table, row) == kinds_of(alone)


class TestAdvance:
    def test_segments_drain_in_order(self, mesh, er):
        table = split_one(mesh, er.ftd_of, 0, 15, volume=100.0)
        first = int(table.kind[0, 0])
        bandwidth = table.bandwidth[0, 0]
        assert table.advance([(first, 40.0 / bandwidth)]) == []
        assert table.cursor[0] == 0
        assert table.remaining[0, 0] == pytest.approx(60.0)
        table.advance([(first, 60.0 / bandwidth)])
        assert table.cursor[0] == 1
        assert table.remaining[0, 0] == 0.0

    def test_wrong_kind_consumes_nothing(self, mesh, er):
        table = split_one(mesh, er.ftd_of, 0, 15, volume=100.0)
        other = GLOBAL if table.kind[0, 0] == LOCAL else LOCAL
        assert table.advance([(other, 1e9)]) == []
        assert table.cursor[0] == 0
        assert table.remaining[0, 0] == 100.0

    def test_done_after_all_segments(self, mesh, er):
        table = split_one(mesh, er.ftd_of, 0, 15, volume=10.0)
        (item,) = table.items
        finished = []
        for _ in range(10):
            finished += table.advance(drain_windows(1.0, 1.0))
        assert finished == [item]
        assert len(table) == 0

    @pytest.mark.parametrize("seconds", [-1.0, float("nan"), float("inf")])
    def test_rejects_bad_window_length(self, mesh, er, seconds):
        table = split_one(mesh, er.ftd_of, 0, 1, volume=10.0)
        with pytest.raises(ValueError, match="window"):
            table.advance([(LOCAL, seconds)])

    def test_empty_table(self):
        table = PendingMigration.empty()
        assert len(table) == 0
        assert table.advance(drain_windows(1.0, 1.0)) == []
        assert table.abandon(0) == []

    def test_abandon_drops_copies_touching_the_device(self, mesh, er):
        items = [
            (0, Migration(expert=0, src=0, dst=15, volume=1e6)),
            (1, Migration(expert=1, src=3, dst=12, volume=1e6)),
            (2, Migration(expert=2, src=15, dst=5, volume=1e6)),
        ]
        table = split_migration(MigrationLinks(mesh, er.ftd_of), items)
        assert table.abandon(15) == [items[0], items[2]]
        assert table.items == [items[1]]
        assert kinds_of(table) == kinds_of(split_one(mesh, er.ftd_of, 3, 12))


# -- the table against the per-migration reference ---------------------------


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


@st.composite
def mappings(draw):
    """An ER, HER or baseline mapping on a generated mesh or multi-wafer
    row, or a GPU mapping on a DGX cluster or an NVL72 fabric."""
    family = draw(st.sampled_from(["er", "baseline", "her", "gpu"]))
    if family == "gpu":
        if draw(st.booleans()):
            topology = DGXClusterTopology(num_nodes=draw(st.integers(1, 3)))
        else:
            topology = NVL72Topology(num_devices=draw(st.sampled_from([8, 24, 72])))
        tp = draw(st.sampled_from([2, 4, 8]))
        return GPUMapping(topology, ParallelismConfig(tp=tp, dp=topology.num_devices // tp))
    if family == "her" or draw(st.booleans()):
        topology = MultiWaferTopology(
            draw(st.integers(1, 3)), draw(st.integers(1, 4)), draw(st.integers(1, 4))
        )
        height, width = topology.wafer_height, topology.wafer_width
    else:
        topology = MeshTopology(draw(st.integers(1, 4)), draw(st.integers(2, 8)))
        height, width = topology.height, topology.width
    tpx = draw(st.sampled_from(_divisors(height)))
    tpy = draw(st.sampled_from(_divisors(width)))
    assume(2 <= tpx * tpy <= 16)
    parallelism = ParallelismConfig(
        tp=tpx * tpy, dp=topology.num_devices // (tpx * tpy), tp_shape=(tpx, tpy)
    )
    family_class = {"er": ERMapping, "baseline": BaselineMapping, "her": HierarchicalERMapping}
    return family_class[family](topology, parallelism)


def assert_same_segments(table, flight):
    """Each copy's segments: kinds, bandwidths and bytes left, bit for bit."""
    assert table.items == [(layer, migration) for layer, migration, _ in flight]
    for row, (_, _, pending) in enumerate(flight):
        segments = pending.segments
        count = len(segments)
        assert table.kind[row, :count].tolist() == [CODES[s.kind] for s in segments]
        assert (table.kind[row, count:] == _PAST_END).all()
        assert [x.hex() for x in table.bandwidth[row, :count].tolist()] == [
            s.min_bandwidth.hex() for s in segments
        ]
        assert [x.hex() for x in table.remaining[row, :count].tolist()] == [
            s.remaining.hex() for s in segments
        ]
        current = pending.current_segment
        assert table.cursor[row] == (count if current is None else segments.index(current))


@given(mappings(), st.data())
@settings(max_examples=60, deadline=None)
def test_table_drains_as_the_per_migration_reference(mapping, data):
    """Bursts of copies split, drain through random windows and lose
    copies to a fail-stop exactly as the per-migration objects do."""
    topology = mapping.topology
    assume(topology.num_devices >= 2)
    ftd_of = getattr(mapping, "ftd_of", lambda device: None)
    links = MigrationLinks(topology, ftd_of)
    devices = st.integers(0, topology.num_devices - 1)
    table = PendingMigration.empty()
    flight: list = []
    for _ in range(data.draw(st.integers(1, 5))):
        burst = []
        for _ in range(data.draw(st.integers(0, 6))):
            src, dst = data.draw(devices), data.draw(devices)
            assume(src != dst)
            expert = len(flight) + len(burst)
            volume = data.draw(st.floats(1.0, 1e10))
            burst.append((data.draw(st.integers(0, 3)), Migration(expert, src, dst, volume)))
        if burst:
            table.extend(split_migration(links, burst))
            for layer, m in burst:
                walked = reference.split_migration(topology, ftd_of, m.expert, m.src, m.dst, m.volume)
                flight.append((layer, m, walked))
        assert_same_segments(table, flight)
        if data.draw(st.integers(0, 4)) == 0:
            device = data.draw(devices)
            lost = [(l, m) for l, m, _ in flight if device in (m.src, m.dst)]
            flight = [entry for entry in flight if device not in (entry[1].src, entry[1].dst)]
            assert table.abandon(device) == lost
        durations = st.one_of(st.just(0.0), st.floats(0.0, 1e-2))
        ar_duration, a2a_duration = data.draw(durations), data.draw(durations)
        finished = table.advance(drain_windows(ar_duration, a2a_duration))
        expected, flight = reference.drain(flight, ar_duration, a2a_duration)
        assert finished == expected
        assert_same_segments(table, flight)
