"""Property-based tests for the network simulator."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from alltoall_reference import assert_close_to_reference
from alltoall_reference import simulate_alltoall as reference_alltoall
from placement_replay import LayerReplay, snapshots
from repro.mapping.base import ParallelismConfig
from repro.mapping.er import ERMapping
from repro.mapping.placement import StackedPlacement
from repro.models import QWEN3_235B
from repro.network.allreduce import ring_allreduce
from repro.network.alltoall import SparseAllToAllPricer, simulate_alltoall
from repro.network.phase import simulate_phase
from repro.network.traffic import Flow
from repro.systems import build_wsc
from repro.topology.mesh import MeshTopology

MESH = MeshTopology(4, 4)
ER = ERMapping(MESH, ParallelismConfig(tp=4, dp=4, tp_shape=(2, 2)))
PLACEMENT = StackedPlacement(1, 16, 16)

flows_strategy = st.lists(
    st.builds(
        Flow,
        src=st.integers(0, 15),
        dst=st.integers(0, 15),
        volume=st.floats(0.0, 1e9, allow_nan=False),
    ),
    max_size=30,
)


class TestPhaseProperties:
    @given(flows_strategy)
    @settings(max_examples=150, deadline=None)
    def test_duration_nonnegative(self, flows):
        assert simulate_phase(MESH, flows).duration >= 0.0

    @given(flows_strategy, st.floats(1.1, 4.0))
    @settings(max_examples=60, deadline=None)
    def test_scaling_volume_never_speeds_up(self, flows, factor):
        base = simulate_phase(MESH, flows).duration
        scaled = simulate_phase(
            MESH, [Flow(f.src, f.dst, f.volume * factor) for f in flows]
        ).duration
        assert scaled >= base - 1e-15

    @given(flows_strategy)
    @settings(max_examples=60, deadline=None)
    def test_link_bytes_conserve_volume_hops(self, flows):
        result = simulate_phase(MESH, flows)
        expected = sum(
            f.volume * MESH.hops(f.src, f.dst)
            for f in flows
            if f.src != f.dst and f.volume > 0
        )
        assert sum(result.link_bytes.values()) == np.float64(expected) or abs(
            sum(result.link_bytes.values()) - expected
        ) < 1e-6 * max(expected, 1.0)


class TestRingProperties:
    @given(volume=st.floats(1.0, 1e9), staggered=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_allreduce_monotone_in_volume(self, volume, staggered):
        groups = [[0, 1, 5, 4]]
        small = ring_allreduce(MESH, groups, volume, staggered=staggered)
        large = ring_allreduce(MESH, groups, volume * 2, staggered=staggered)
        assert large.duration >= small.duration

    @given(volume=st.floats(1.0, 1e9))
    @settings(max_examples=40, deadline=None)
    def test_total_volume_identity(self, volume):
        groups = [[0, 1, 5, 4], [2, 3, 7, 6]]
        result = ring_allreduce(MESH, groups, volume)
        n = 4
        expected = 2 * (n - 1) * len(groups) * n * (volume / n)
        assert abs(result.total_volume - expected) < 1e-6 * expected


class TestAllToAllProperties:
    @given(
        counts=st.lists(
            st.lists(st.floats(0, 1000, allow_nan=False), min_size=16, max_size=16),
            min_size=4,
            max_size=4,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_dispatch_volume_bounded_by_demand(self, counts):
        demand = np.asarray(counts)
        result = simulate_alltoall(MESH, demand, PLACEMENT, ER)
        assert result.dispatch.total_volume <= demand.sum() + 1e-6

    @given(
        counts=st.lists(
            st.lists(st.floats(0, 1000, allow_nan=False), min_size=16, max_size=16),
            min_size=4,
            max_size=4,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_combine_mirrors_dispatch(self, counts):
        demand = np.asarray(counts)
        result = simulate_alltoall(
            MESH, demand, PLACEMENT, ER
        )
        assert result.dispatch.total_volume == result.combine.total_volume


@st.composite
def priced_stacks(draw):
    """A small wafer, a placement stack with random extra replicas, and
    per-layer integer demand (zero cells included)."""
    side = draw(st.integers(2, 4))
    tp = draw(st.sampled_from([1, 2, 4]))
    mapping_name = draw(st.sampled_from(["er", "baseline"]))
    try:
        mapping = build_wsc(QWEN3_235B, side=side, tp=tp, mapping=mapping_name).mapping
    except ValueError:
        assume(False)
    devices = side * side
    experts = draw(st.integers(1, devices))
    layers = draw(st.integers(1, 3))
    extras = draw(
        st.lists(
            st.tuples(
                st.integers(0, layers - 1),
                st.integers(0, experts - 1),
                st.integers(0, devices - 1),
            ),
            max_size=6,
        )
    )
    # The stack, and one single-layer stack per layer placed the same way.
    stack = StackedPlacement(layers, experts, devices, shadow_slots=2)
    alone = [StackedPlacement(1, experts, devices, shadow_slots=2) for _ in range(layers)]
    for layer, expert, device in extras:
        try:
            stack.add_replica(layer, expert, device)
        except ValueError:
            continue
        alone[layer].add_replica(0, expert, device)
    counts = draw(
        st.lists(
            st.integers(0, 40), min_size=layers * mapping.dp * experts,
            max_size=layers * mapping.dp * experts,
        )
    )
    demand = np.asarray(counts, dtype=float).reshape(layers, mapping.dp, experts)
    return mapping, stack, alone, demand * 7168.0


@st.composite
def priced_placements(draw):
    """A small wafer, a one-layer stack with random shadow replicas and
    possibly a dead device, its replayed reference placement, and
    integer-count demand with zero cells."""
    side = draw(st.integers(2, 4))
    tp = draw(st.sampled_from([1, 2, 4]))
    mapping_name = draw(st.sampled_from(["er", "baseline"]))
    try:
        mapping = build_wsc(QWEN3_235B, side=side, tp=tp, mapping=mapping_name).mapping
    except ValueError:
        assume(False)
    devices = side * side
    experts = draw(st.integers(1, devices))
    placement = StackedPlacement(1, experts, devices, shadow_slots=2)
    replay = LayerReplay(1, experts, devices, shadow_slots=2)
    reference = replay.layers[0]
    dead = draw(st.one_of(st.none(), st.integers(0, devices - 1)))
    if dead is not None:
        placement.fail_device(dead)
        replay.fail_device(dead)
    extras = draw(
        st.lists(
            st.tuples(st.integers(0, experts - 1), st.integers(0, devices - 1)),
            max_size=6,
        )
    )
    for expert, device in extras:
        if not reference.hosts(device, expert) and reference.shadow_free(device) > 0:
            placement.add_replica(0, expert, device)
            replay.add_replica(0, expert, device)
    counts = draw(
        st.lists(
            st.integers(0, 40), min_size=mapping.dp * experts, max_size=mapping.dp * experts
        )
    )
    demand = np.asarray(counts, dtype=float).reshape(mapping.dp, experts)
    return mapping, placement, reference, demand * 7168.0


class TestPricerProperties:
    @given(priced_stacks())
    @settings(max_examples=40, deadline=None)
    def test_pricer_matches_exact_simulation(self, case):
        """Every layer's batched price equals the pair-list reference to
        summation-order rounding, and equals pricing that layer alone bit
        for bit."""
        mapping, stack, alone_stacks, demand = case
        pricer = SparseAllToAllPricer(mapping)
        durations = pricer.durations(demand, pricer.hosted_batches(stack))
        for layer, placement in enumerate(snapshots(stack)):
            result = reference_alltoall(
                mapping.topology, demand[layer], placement, mapping
            )
            exact = np.array([result.dispatch.duration, result.combine.duration])
            assert durations[layer] == pytest.approx(exact, rel=1e-12, abs=0.0)
            alone = pricer.durations(
                demand[layer : layer + 1],
                pricer.hosted_batches(alone_stacks[layer]),
            )
            np.testing.assert_array_equal(alone[0], durations[layer])

    @given(priced_placements())
    @settings(max_examples=40, deadline=None)
    def test_simulate_alltoall_matches_reference(self, case):
        """A one-layer stack priced on the mapping's pricer equals the
        pair-list reference field by field, dead devices included."""
        mapping, placement, reference, demand = case
        topology = mapping.topology
        assert_close_to_reference(
            simulate_alltoall(topology, demand, placement, mapping),
            reference_alltoall(topology, demand, reference, mapping),
        )
