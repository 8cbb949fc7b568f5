"""The stacked placement's replica-entry table and the sums that run over it.

``StackedPlacement`` stores a placement as one sparse entry table, and
``replica_entries`` lists every live hosting relation once; heats, the
all-to-all pricer's cells, the MoE rooflines and the device loads sum over
those entries.  Generated stacks (fewer, as many and more experts than
devices; one to three shadow slots) go through random replica adds and
drops, batched or single, fail-stops and shadow resets, each applied as
well to an independent replay into one ``ExpertPlacement`` per layer
(``tests/placement_replay.py``).  After every mutation the stack must
match the replay, and the entry sums must match the dense contractions
over the replay's ``(layers, experts, devices)`` tensors: bit for bit
where no device sums more than two exact products, within one rounding
otherwise.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from placement_replay import LayerReplay, assert_matches_replay

from repro.analysis.load import stacked_device_token_loads
from repro.balancer import NoBalancer
from repro.engine.compute import ComputeModel
from repro.hardware.device import B200
from repro.mapping.placement import StackedPlacement
from repro.models import QWEN3_235B
from repro.network.alltoall import SparseAllToAllPricer
from repro.network.phase import link_reversal
from repro.systems import build_wsc

#: devices -> a small wafer mapping with that many devices.
MAPPINGS = {
    4: build_wsc(QWEN3_235B, side=2, tp=2).mapping,
    9: build_wsc(QWEN3_235B, side=3, tp=1).mapping,
    16: build_wsc(QWEN3_235B, side=4, tp=4).mapping,
}
COMPUTE = ComputeModel(B200, QWEN3_235B)
MUTATIONS = ("add", "add_many", "drop", "drop_many", "fail", "reset")


@st.composite
def mutated_stacks(draw):
    """A stack, a mutation sequence to apply to it, and per-layer demand."""
    num_devices = draw(st.sampled_from(sorted(MAPPINGS)))
    relation = draw(st.sampled_from(["fewer", "equal", "more"]))
    if relation == "fewer":
        num_experts = draw(st.integers(1, num_devices - 1))
    elif relation == "equal":
        num_experts = num_devices
    else:
        num_experts = draw(st.integers(num_devices + 1, 2 * num_devices))
    num_layers = draw(st.integers(1, 3))
    shape = (num_layers, num_experts, num_devices)
    shadow_slots = draw(st.integers(1, 3))
    stack = StackedPlacement(*shape, shadow_slots=shadow_slots)
    replay = LayerReplay(*shape, shadow_slots=shadow_slots)
    entry = st.tuples(
        st.integers(0, num_layers - 1),
        st.integers(0, num_experts - 1),
        st.integers(0, num_devices - 1),
    )
    mutations = draw(
        st.lists(
            st.tuples(st.sampled_from(MUTATIONS), st.lists(entry, min_size=1, max_size=4)),
            max_size=12,
        )
    )
    groups = MAPPINGS[num_devices].dp
    counts = draw(
        st.lists(
            st.integers(0, 40),
            min_size=num_layers * groups * num_experts,
            max_size=num_layers * groups * num_experts,
        )
    )
    demand = np.asarray(counts, dtype=float).reshape(num_layers, groups, num_experts)
    return stack, replay, mutations, demand * 7168.0


def mutate(stack, replay, kind, entries) -> bool:
    """Apply one mutation to the stack and the replay; ``False`` when it
    was invalid and both raised.

    Drops pick existing shadow replicas by the drawn experts, so they
    usually apply."""
    layers, experts, devices = (np.array(column) for column in zip(*entries))
    if kind in ("drop", "drop_many"):
        shadow_layers, shadow_experts, shadow_devices = stack.shadow_entry_arrays()
        if shadow_layers.size == 0:
            return False
        picks = np.unique(experts % shadow_layers.size)
        if kind == "drop":
            picks = picks[:1]
        layers, experts, devices = (
            shadow_layers[picks], shadow_experts[picks], shadow_devices[picks]
        )
    outcomes = []
    for target in (stack, replay):
        try:
            if kind == "add":
                target.add_replica(int(layers[0]), int(experts[0]), int(devices[0]))
            elif kind == "add_many":
                target.add_replicas(layers, experts, devices)
            elif kind == "drop":
                target.drop_replica(int(layers[0]), int(experts[0]), int(devices[0]))
            elif kind == "drop_many":
                target.drop_replicas(layers, experts, devices)
            elif kind == "fail":
                target.fail_device(int(devices[0]))
            else:
                target.reset_shadows()
        except ValueError:
            outcomes.append(False)
        else:
            outcomes.append(True)
    assert outcomes[0] == outcomes[1], kind
    return outcomes[0]


def assert_entries_match_tensors(stack, replay):
    entries = stack.replica_entries()
    shape = (stack.num_layers, stack.num_experts, stack.num_devices)
    index = (entries.layer, entries.expert, entries.device)
    listed = np.zeros(shape)
    np.add.at(listed, index, 1.0)
    # Every nonzero of the replica tensor exactly once, and nothing else.
    np.testing.assert_array_equal(listed, replay.replica_tensor())
    # Grouped by (layer, device), natives before shadows within a group.
    key = entries.layer * stack.num_devices + entries.device
    assert (np.diff(key) >= 0).all()
    shadow = replay.shadow_mask()[index]
    same_group = np.diff(key) == 0
    assert not (same_group & shadow[:-1] & ~shadow[1:]).any()
    shares = np.zeros(shape)
    shares[index] = entries.share
    np.testing.assert_array_equal(shares, replay.destination_shares())
    np.testing.assert_array_equal(
        entries.bounds, np.searchsorted(entries.layer, np.arange(stack.num_layers + 1))
    )


def max_entries_per_device(replay) -> int:
    return int(replay.replica_tensor().sum(axis=1).max(initial=0))


def dense_volumes(pricer, stack, replay, demand):
    """Per-link volumes through a dense share matmul, then the same CSR
    product over each layer's hosted columns; combine is the dispatch
    volumes gathered through the link reversal."""
    cells = np.matmul(demand, replay.destination_shares())
    volumes = np.empty((stack.num_layers, 2, pricer.num_links))
    for layer in range(stack.num_layers):
        hosted = pricer.state_for(stack, layer).hosted
        flat = cells[layer][:, hosted.dests].reshape(1, -1)
        volumes[layer, 0] = flat @ hosted.operator
    volumes[:, 1] = volumes[:, 0, link_reversal(pricer.topology)]
    return volumes


def dense_moe_peak(layer_loads, replay, device_scale=None):
    """The einsum roofline over the dense replica tensor."""
    loads = np.asarray(layer_loads, dtype=float)
    active = (loads > 0).astype(float)
    counts = replay.replica_counts()
    shares = np.divide(active * loads, counts, out=np.zeros_like(loads), where=counts > 0)
    tensor = replay.replica_tensor()
    compute = (
        np.einsum("le,led->ld", shares, tensor)
        * QWEN3_235B.expert_flops_per_token
        / B200.int8_ops
    )
    memory = np.einsum("le,led->ld", active, tensor) * QWEN3_235B.expert_bytes / B200.hbm_bandwidth
    if device_scale is not None:
        compute = compute * device_scale
        memory = memory * device_scale
    peak = np.argmax(compute + memory, axis=1)
    rows = np.arange(peak.size)
    return compute[rows, peak], memory[rows, peak]


def dense_device_loads(layer_loads, replay):
    loads = np.asarray(layer_loads, dtype=float)
    counts = replay.replica_counts()
    shares = np.divide(
        np.where(loads > 0, loads, 0.0), counts, out=np.zeros_like(loads), where=counts > 0
    )
    return np.matmul(shares[:, None, :], replay.replica_tensor())[:, 0, :]


def dense_heats(balancer, replay, include_pending):
    """``Balancer.heats`` as the per-replica loads times the
    replay's dense replica tensor, plus the pending contributions."""
    counts = replay.replica_counts().astype(float)
    layers, experts, dsts = balancer._pending_flat()
    if include_pending:
        np.add.at(counts, (layers, experts), 1.0)
    loads = balancer.predicted_loads
    per_replica = np.divide(loads, counts, out=np.zeros_like(loads), where=counts > 0)
    heats = np.matmul(per_replica[:, None, :], replay.replica_tensor())[:, 0, :]
    if include_pending:
        np.add.at(heats, (layers, dsts), per_replica[layers, experts])
    return heats


def assert_same_sums(stack, replay, demand):
    """Entry sums against the dense contractions: bit for bit while no
    device holds more than two experts (no cell sums more than two
    products), within one rounding per extra term otherwise."""
    exact = max_entries_per_device(replay) <= 2
    check = (
        np.testing.assert_array_equal
        if exact
        else lambda got, want: np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)
    )
    layer_loads = demand.sum(axis=1) / 7168.0
    scale = 1.0 + np.arange(stack.num_devices) % 3 / 4.0
    for device_scale in (None, scale):
        got = COMPUTE.moe_peak_arrays(layer_loads, stack, device_scale=device_scale)
        for got_part, want_part in zip(got, dense_moe_peak(layer_loads, replay, device_scale)):
            check(got_part, want_part)
    check(stacked_device_token_loads(layer_loads, stack), dense_device_loads(layer_loads, replay))

    mapping = MAPPINGS[stack.num_devices]
    balancer = NoBalancer(stack, mapping.topology, expert_bytes=1.0)
    balancer.observe(layer_loads)
    for layer in range(stack.num_layers):
        for expert in range(0, stack.num_experts, 3):
            balancer._pending_add(layer, expert, (expert * 5 + layer) % stack.num_devices)
    for include_pending in (False, True):
        check(balancer.heats(include_pending), dense_heats(balancer, replay, include_pending))

    pricer = SparseAllToAllPricer(mapping)
    volumes = pricer.link_volumes(demand, pricer.hosted_batches(stack))
    single_entry_cells = (replay.replica_tensor().sum(axis=1) <= 1).all()
    if single_entry_cells:
        np.testing.assert_array_equal(volumes, dense_volumes(pricer, stack, replay, demand))
    else:
        np.testing.assert_allclose(
            volumes, dense_volumes(pricer, stack, replay, demand), rtol=1e-15, atol=0.0
        )


class TestReplicaEntryTable:
    @given(mutated_stacks())
    @settings(max_examples=150, deadline=None)
    def test_table_tracks_every_mutation(self, case):
        """After each mutation the cached table is rebuilt, lists the
        replay's hosting relations exactly, and the stack matches the
        replay's layer objects."""
        stack, replay, mutations, _ = case
        assert_entries_match_tensors(stack, replay)
        for kind, entries in mutations:
            before = stack.replica_entries()
            versions = stack.versions.copy()
            dead = stack.dead_devices
            applied = mutate(stack, replay, kind, entries)
            changed = (stack.versions != versions).any() or stack.dead_devices != dead
            if applied and changed:
                assert stack.replica_entries() is not before, kind
            assert_entries_match_tensors(stack, replay)
            assert_matches_replay(stack, replay)

    def test_table_is_cached_between_mutations(self):
        stack = StackedPlacement(2, 8, 4, shadow_slots=2)
        stack.add_replica(1, 0, 3)
        assert stack.replica_entries() is stack.replica_entries()


class TestEntrySumsMatchDenseContractions:
    @given(mutated_stacks())
    @settings(max_examples=120, deadline=None)
    def test_generated_stacks(self, case):
        stack, replay, mutations, demand = case
        for kind, entries in mutations:
            mutate(stack, replay, kind, entries)
        assert_same_sums(stack, replay, demand)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_dead_device_and_crowded_device(self, seed):
        """A fail-stop with repaired orphans, and one device hosting its
        native plus three shadows (1/3 and 1/4 shares included)."""
        stack = StackedPlacement(3, 16, 16, shadow_slots=3)
        replay = LayerReplay(3, 16, 16, shadow_slots=3)
        for target in (stack, replay):
            for expert in (2, 7, 11):
                target.add_replica(0, expert, 5)
            target.add_replica(0, 7, 6)
            target.add_replica(0, 11, 6)
            target.add_replica(0, 11, 12)
            orphan_layers, orphan_experts = target.fail_device(9)
            target.add_replicas(
                orphan_layers, orphan_experts, np.full(orphan_layers.size, 10)
            )
        assert_matches_replay(stack, replay)
        assert max_entries_per_device(replay) >= 4
        assert 9 not in stack.replica_entries().device
        rng = np.random.default_rng(seed)
        demand = rng.integers(0, 40, size=(3, MAPPINGS[16].dp, 16)) * 7168.0
        assert_same_sums(stack, replay, demand)

    def test_two_experts_per_device_are_bit_identical(self):
        """Halved shares and at most two experts per device: every path
        agrees with its dense contraction bit for bit."""
        stack = StackedPlacement(2, 8, 16, shadow_slots=1)
        replay = LayerReplay(2, 8, 16, shadow_slots=1)
        for target in (stack, replay):
            target.add_replica(0, 3, 0)
            target.add_replica(1, 5, 1)
            target.add_replica(1, 6, 10)
        assert_matches_replay(stack, replay)
        assert max_entries_per_device(replay) == 2
        demand = np.random.default_rng(4).integers(1, 40, size=(2, MAPPINGS[16].dp, 8)) * 7168.0
        assert_same_sums(stack, replay, demand)
