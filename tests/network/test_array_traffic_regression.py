"""Regression tests: the pair-list reference against the seed loop, and
``simulate_alltoall`` against the reference under mid-run migrations.

``tests/alltoall_reference.py`` keeps the pair-list pricing that
``simulate_alltoall`` used before it priced through the CSR pricer: a
:class:`DispatchPlan` (demand gather x destination shares x holder-table
fractions, aggregated with one bincount) whose pairs are charged through
the phase model's cut-through pricing.  The seed per-entry builder survives
there as ``loop_dispatch_traffic``; these tests pin the two together —
bit-identical pair volumes and phase prices — across all four mapping
families, placements with replicas, and sparse demand.
"""

import numpy as np
import pytest

from alltoall_reference import (
    assert_close_to_reference,
    build_dispatch_traffic,
    loop_dispatch_traffic,
    price_pairs,
)
from alltoall_reference import simulate_alltoall as reference_alltoall
from allreduce_reference import degraded_bandwidth
from holder_reference import analysis_holders, token_holders
from placement_reference import ExpertPlacement
from placement_replay import LayerReplay
from repro.faults import topology_health
from repro.mapping.base import MeshMapping, ParallelismConfig
from repro.mapping.baseline import BaselineMapping
from repro.mapping.er import ERMapping
from repro.mapping.ftd import ftd_holder_table
from repro.mapping.gpu import GPUMapping
from repro.mapping.her import HierarchicalERMapping
from repro.mapping.placement import StackedPlacement
from repro.network.alltoall import simulate_alltoall
from repro.network.phase import migration_route_arrays, simulate_phase
from repro.network.traffic import TrafficMatrix
from repro.topology.mesh import MeshTopology, MultiWaferTopology
from repro.topology.switched import DGXClusterTopology, NVL72Topology

NUM_EXPERTS = 32


def _mappings():
    mesh = MeshTopology(4, 4)
    wafers = MultiWaferTopology(2, 4, 4)
    dgx = DGXClusterTopology(num_nodes=2)
    return {
        "baseline": BaselineMapping(mesh, ParallelismConfig(tp=4, dp=4, tp_shape=(2, 2))),
        "er": ERMapping(mesh, ParallelismConfig(tp=4, dp=4, tp_shape=(2, 2))),
        "her": HierarchicalERMapping(
            wafers, ParallelismConfig(tp=4, dp=8, tp_shape=(2, 2))
        ),
        "gpu": GPUMapping(dgx, ParallelismConfig(tp=8, dp=2)),
    }


MAPPINGS = _mappings()


def random_demand(rng, num_groups, sparsity=0.0):
    demand = rng.uniform(0.0, 1000.0, (num_groups, NUM_EXPERTS))
    if sparsity > 0:
        demand *= rng.random(demand.shape) >= sparsity
    return demand


def randomly_replicated(rng, mapping, shadow_slots=2, replicas=6):
    placement = ExpertPlacement(
        NUM_EXPERTS, mapping.topology.num_devices, shadow_slots=shadow_slots
    )
    added = 0
    while added < replicas:
        expert = int(rng.integers(NUM_EXPERTS))
        device = int(rng.integers(placement.num_devices))
        if not placement.hosts(device, expert) and placement.shadow_free(device) > 0:
            placement.add_replica(expert, device)
            added += 1
    return placement


def reversed_traffic(traffic):
    out = TrafficMatrix()
    for (src, dst), volume in traffic.items():
        out.add(dst, src, volume)
    return out


def assert_matches_oracle(demand, placement, mapping):
    array_traffic = build_dispatch_traffic(demand, placement, mapping)
    oracle = loop_dispatch_traffic(
        demand,
        placement.destinations,
        lambda group, dest: token_holders(mapping, group, dest),
    )
    # Bit-identical aggregation *and* pair order: the plan walks (cell,
    # destination, holder) terms in the loop's order and numbers pairs by
    # first touch among active entries, i.e. the dict insertion order.
    assert list(array_traffic.items()) == list(oracle.items())

    combine = array_traffic.transposed()
    assert list(combine.items()) == list(reversed_traffic(oracle).items())

    topology = mapping.topology
    for ours, theirs in ((array_traffic, oracle), (combine, reversed_traffic(oracle))):
        new_phase = price_pairs(topology, ours)
        old_phase = simulate_phase(topology, theirs)
        assert new_phase.duration == old_phase.duration
        assert new_phase.serialization_time == old_phase.serialization_time
        assert new_phase.latency_time == old_phase.latency_time
        assert new_phase.link_bytes == old_phase.link_bytes
        assert new_phase.total_volume == pytest.approx(
            old_phase.total_volume, rel=1e-12
        )


def assert_prices_like_reference(demand, placement, reference, mapping):
    """``simulate_alltoall`` on the one-layer stack as it stands now equals
    the reference on its replayed twin to summation-order rounding."""
    ours = simulate_alltoall(mapping.topology, demand, placement, mapping)
    assert_close_to_reference(
        ours, reference_alltoall(mapping.topology, demand, reference, mapping)
    )
    return ours


@pytest.mark.parametrize("family", sorted(MAPPINGS))
@pytest.mark.parametrize("seed", range(3))
class TestDispatchOracle:
    def test_native_placement_matches_loop(self, family, seed):
        mapping = MAPPINGS[family]
        rng = np.random.default_rng(seed)
        placement = ExpertPlacement(NUM_EXPERTS, mapping.topology.num_devices)
        assert_matches_oracle(random_demand(rng, mapping.dp), placement, mapping)

    def test_replicated_placement_matches_loop(self, family, seed):
        mapping = MAPPINGS[family]
        rng = np.random.default_rng(100 + seed)
        placement = randomly_replicated(rng, mapping)
        assert_matches_oracle(random_demand(rng, mapping.dp), placement, mapping)

    def test_sparse_demand_matches_loop(self, family, seed):
        """Zero demand cells change the oracle's pair insertion order —
        the plan must track it, including the downstream phase pricing."""
        mapping = MAPPINGS[family]
        rng = np.random.default_rng(200 + seed)
        placement = randomly_replicated(rng, mapping)
        demand = random_demand(rng, mapping.dp, sparsity=0.5)
        assert_matches_oracle(demand, placement, mapping)

    def test_single_hot_cell_matches_loop(self, family, seed):
        """The extreme sparse case: one active (group, expert) cell."""
        mapping = MAPPINGS[family]
        rng = np.random.default_rng(300 + seed)
        placement = randomly_replicated(rng, mapping)
        demand = np.zeros((mapping.dp, NUM_EXPERTS))
        demand[
            int(rng.integers(mapping.dp)), int(rng.integers(NUM_EXPERTS))
        ] = 1234.5
        assert_matches_oracle(demand, placement, mapping)


class TestMidRunMigration:
    def test_mid_run_migration_reprices_the_placement(self):
        """Migration commits bump the placement version; every call then
        prices the placement as mutated, against the reference."""
        mapping = MAPPINGS["er"]
        rng = np.random.default_rng(7)
        shape = (1, NUM_EXPERTS, mapping.topology.num_devices)
        placement = StackedPlacement(*shape, shadow_slots=2)
        replay = LayerReplay(*shape, shadow_slots=2)
        reference = replay.layers[0]
        demand = random_demand(rng, mapping.dp)
        native = assert_prices_like_reference(demand, placement, reference, mapping)

        # Migration commit: replicate then later drop.
        last = placement.num_devices - 1
        for target in (placement, replay):
            target.add_replica(0, 0, last)
        added = assert_prices_like_reference(demand, placement, reference, mapping)
        assert added.dispatch.link_bytes != native.dispatch.link_bytes

        for target in (placement, replay):
            target.drop_replica(0, 0, last)
        dropped = assert_prices_like_reference(demand, placement, reference, mapping)
        assert dropped == native

    def test_version_counts_mutations(self):
        placement = ExpertPlacement(8, 4, shadow_slots=1)
        assert placement.version == 0
        placement.add_replica(0, 3)
        placement.add_replica(1, 2)
        assert placement.version == 2
        placement.reset_shadows()
        assert placement.version == 4

    def test_destination_shares_track_replicas(self):
        placement = ExpertPlacement(8, 4, shadow_slots=1)
        placement.add_replica(0, 3)
        shares = placement.destination_shares
        np.testing.assert_array_equal(
            np.nonzero(shares[0])[0], sorted(placement.replicas(0))
        )
        assert shares[0, 0] == shares[0, 3] == 0.5
        assert shares[1].sum() == 1.0
        with pytest.raises(ValueError):
            placement.destination_shares[0, 0] = 1.0

def per_pair_holder_arrays(mapping, holders=token_holders):
    """``(offsets, holders, fractions)`` built pair by pair from the
    reference's ``holders(mapping, group, dest)``: the oracle for an
    array-built table."""
    rows = [
        holders(mapping, group, dest)
        for group in range(mapping.dp)
        for dest in range(mapping.topology.num_devices)
    ]
    offsets = np.concatenate(([0], np.cumsum([len(row) for row in rows], dtype=np.intp)))
    holders = np.array([holder for row in rows for holder, _ in row], dtype=np.intp)
    fractions = np.array([fraction for row in rows for _, fraction in row])
    return offsets, holders, fractions


def _holder_families():
    """Every mapping family, with and without all-gather where it matters
    (HER holds its tokens only through the all-gather, so it has it on)."""
    families = {
        "her": HierarchicalERMapping(
            MultiWaferTopology(2, 4, 4), ParallelismConfig(tp=4, dp=8, tp_shape=(2, 2))
        )
    }
    for retain in (True, False):
        suffix = "" if retain else "_without_allgather"
        families["er" + suffix] = ERMapping(
            MeshTopology(8, 8), ParallelismConfig(tp=4, dp=16, tp_shape=(2, 2)), retain
        )
        families["baseline" + suffix] = BaselineMapping(
            MeshTopology(8, 8), ParallelismConfig(tp=4, dp=16, tp_shape=(2, 2)), retain
        )
        families["gpu_dgx" + suffix] = GPUMapping(
            DGXClusterTopology(num_nodes=2), ParallelismConfig(tp=4, dp=4), retain
        )
    families["er_tiles_4x1"] = ERMapping(
        MeshTopology(8, 8), ParallelismConfig(tp=4, dp=16, tp_shape=(4, 1))
    )
    families["baseline_two_wafers"] = BaselineMapping(
        MultiWaferTopology(2, 4, 4), ParallelismConfig(tp=4, dp=8, tp_shape=(2, 2))
    )
    families["gpu_nvl72"] = GPUMapping(NVL72Topology(), ParallelismConfig(tp=4, dp=18))
    return families


HOLDER_FAMILIES = _holder_families()


def assert_table_equals(table, want):
    """Offsets, holder ids and fractions bit for bit, dtypes included."""
    for got, expected in zip((table.offsets, table.holders, table.fractions), want):
        assert got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes()


class TestHolderTable:
    @pytest.mark.parametrize("family", sorted(HOLDER_FAMILIES))
    def test_array_build_equals_the_per_pair_table(self, family):
        """The array-built table holds the reference's per-pair holder
        lists bit for bit."""
        mapping = HOLDER_FAMILIES[family]
        assert_table_equals(mapping.token_holder_table(), per_pair_holder_arrays(mapping))

    @pytest.mark.parametrize(
        "family",
        sorted(
            name for name, mapping in HOLDER_FAMILIES.items()
            if isinstance(mapping, MeshMapping)
        ),
    )
    def test_ftd_analysis_table_equals_the_per_pair_rule(self, family):
        """The FTD analysis's table, the mapping's own where it defines
        FTDs and nearest members elsewhere, holds the reference's per-pair
        analysis holders bit for bit."""
        mapping = HOLDER_FAMILIES[family]
        assert_table_equals(
            ftd_holder_table(mapping), per_pair_holder_arrays(mapping, analysis_holders)
        )

    @pytest.mark.parametrize("family", sorted(MAPPINGS))
    def test_table_mirrors_token_holders(self, family):
        mapping = MAPPINGS[family]
        table = mapping.token_holder_table()
        assert mapping.token_holder_table() is table  # built once
        num_devices = mapping.topology.num_devices
        for group in range(mapping.dp):
            for dest in range(num_devices):
                assert list(table.entries(group, dest)) == token_holders(
                    mapping, group, dest
                )
        # CSR arrays agree with the nested rows.
        flat = [
            entry
            for group in range(mapping.dp)
            for dest in range(num_devices)
            for entry in table.entries(group, dest)
        ]
        np.testing.assert_array_equal(table.holders, [h for h, _ in flat])
        np.testing.assert_array_equal(table.fractions, [f for _, f in flat])


#: Fabrics for migration pricing, built fresh per test so a degraded link
#: never leaks into the next case.
MIGRATION_FABRICS = {
    "mesh": lambda: MeshTopology(4, 4),
    "multiwafer": lambda: MultiWaferTopology(2, 2, 3),
    "dgx": lambda: DGXClusterTopology(num_nodes=2),
}


class TestMigrationPricingCache:
    @pytest.mark.parametrize("degraded", [False, True])
    @pytest.mark.parametrize("fabric", list(MIGRATION_FABRICS))
    def test_matches_route_walk(self, fabric, degraded):
        """Every pair's batched store-and-forward time equals the walk
        over its route's links, bit for bit, at the links' current
        bandwidth."""
        topology = MIGRATION_FABRICS[fabric]()
        if degraded:
            # A link on many routes: out of device 1, towards device 0.
            link = topology.route(1, 0)[0]
            topology_health(topology, create=True).degrade_link(link.src, link.dst, 0.3)
        volume = 3.5e8
        src, dst = np.nonzero(~np.eye(topology.num_devices, dtype=bool))
        bandwidths, latencies = migration_route_arrays(topology, src, dst)
        batched = np.cumsum(volume / bandwidths + latencies, axis=0)[-1]
        slowed = 0
        for column, (s, d) in enumerate(zip(src.tolist(), dst.tolist())):
            walked = 0.0
            for link in topology.route(s, d):
                bandwidth = degraded_bandwidth(topology, link.key)
                slowed += bandwidth != link.bandwidth
                walked += volume / bandwidth + link.latency
            assert float(batched[column]).hex() == walked.hex()
        assert (slowed > 0) == degraded
