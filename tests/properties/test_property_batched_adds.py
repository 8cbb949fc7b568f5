"""Batched adds and commits against the per-entry sequence.

``StackedPlacement.add_replicas`` and ``add_new_replicas`` validate a
multi-layer batch in one pass over its entries and apply it with
whole-batch count, stamp and version updates and one entry-table append;
``Balancer.commit_many`` commits through ``add_new_replicas``.  Here
random batches (repeats, hosted experts, full slots, dead devices and
out-of-range ids included) run beside the per-entry sequence they
replaced: layers checked first, then each layer's entries in batch order,
then one ``add_replica`` per entry.  A valid batch must leave the same
entry table, stamps, counts and versions (and match the per-layer replay
of ``tests/placement_replay.py``); an invalid one must raise the
sequence's first message and change nothing.
"""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from placement_replay import LayerReplay, assert_matches_replay
from repro.balancer import Migration, NoBalancer
from repro.mapping.placement import StackedPlacement
from repro.topology.mesh import MeshTopology


def sequential_add_replicas(stack, layers, experts, devices):
    """The per-entry sequence of a batch of adds."""
    batches = stack._layer_batches(layers, experts, devices)
    for layer, layer_experts, layer_devices in batches:
        stack._check_adds(layer, layer_experts, layer_devices)
    for layer, layer_experts, layer_devices in batches:
        for expert, device in zip(layer_experts.tolist(), layer_devices.tolist()):
            stack.add_replica(layer, expert, device)


def sequential_commit(balancer, items):
    """Committing copies one at a time: an already hosted or repeated
    replica adds nothing.  Ids are checked, as ``hosts`` checks them,
    before the copy leaves its pending set."""
    added: set = set()
    kept = []
    for layer, migration in items:
        hosted = balancer.placement.hosts(layer, migration.dst, migration.expert)
        balancer.pending[layer].discard((migration.expert, migration.dst))
        key = (layer, migration.expert, migration.dst)
        if key in added or hosted:
            continue
        added.add(key)
        kept.append(key)
    if kept:
        layers, experts, devices = (np.array(column) for column in zip(*kept))
        sequential_add_replicas(balancer.placement, layers, experts, devices)


def state(stack):
    """Everything a mutation may change, physical entry order included."""
    count = stack._entry_count
    return (
        stack._entry_data[:, :count].tolist(),
        dict(stack._entry_pos),
        stack._counts.tolist(),
        stack._shadow_counts.tolist(),
        stack._versions.tolist(),
        stack._next_stamp.tolist(),
        sorted(stack.dead_devices),
    )


@st.composite
def stacks_and_batches(draw):
    """A stack after random single adds (and maybe a fail-stop), with a
    batch of valid adds that a fault may spoil: a repeat, a hosted
    expert, a full slot, the dead device or an id out of range."""
    num_layers = draw(st.integers(1, 4))
    num_experts = draw(st.integers(2, 8))
    num_devices = draw(st.integers(2, 8))
    slots = draw(st.sampled_from([0, 1, 1, 2, 3]))
    stack = StackedPlacement(num_layers, num_experts, num_devices, shadow_slots=slots)
    replay = LayerReplay(num_layers, num_experts, num_devices, shadow_slots=slots)
    layers = st.integers(0, num_layers - 1)
    experts = st.integers(0, num_experts - 1)
    devices = st.integers(0, num_devices - 1)
    for layer, expert, device in draw(st.lists(st.tuples(layers, experts, devices), max_size=8)):
        try:
            stack.add_replica(layer, expert, device)
        except ValueError:
            continue
        replay.add_replica(layer, expert, device)
    if draw(st.booleans()):
        dead = draw(devices)
        stack.fail_device(dead)
        replay.fail_device(dead)
    entries: list = []
    for layer, expert, device in draw(st.lists(st.tuples(layers, experts, devices), max_size=12)):
        taken = sum(1 for l, _, d in entries if (l, d) == (layer, device))
        if (
            not stack.hosts(layer, device, expert)
            and (layer, expert, device) not in entries
            and device not in stack.dead_devices
            and slots - stack.shadow_counts[layer, device] - taken > 0
        ):
            entries.append((layer, expert, device))
    fault = draw(st.sampled_from(["none"] * 4 + ["repeat", "hosted", "full", "dead", "stray"]))
    if fault == "repeat" and entries:
        entries.append(entries[draw(st.integers(0, len(entries) - 1))])
    elif fault == "hosted":
        expert = draw(experts)
        entries.append((draw(layers), expert, expert * num_devices // num_experts))
    elif fault == "full":
        layer, device = draw(layers), draw(devices)
        taken = sum(1 for l, _, d in entries if (l, d) == (layer, device))
        free = max(0, slots - int(stack.shadow_counts[layer, device]) - taken)
        entries += [(layer, draw(experts), device) for _ in range(free + 1)]
    elif fault == "dead" and stack.dead_devices:
        entries.append((draw(layers), draw(experts), min(stack.dead_devices)))
    elif fault == "stray":
        entries.append(
            (
                draw(st.sampled_from([-1, num_layers, 0])),
                draw(st.sampled_from([-1, num_experts, 0])),
                draw(st.sampled_from([-1, num_devices, 0])),
            )
        )
    if not entries:
        entries.append((draw(layers), draw(experts), draw(devices)))
    order = draw(st.permutations(range(len(entries))))
    batch = tuple(np.array(column, dtype=np.int64) for column in zip(*(entries[i] for i in order)))
    return stack, replay, batch


def outcome(mutate):
    try:
        mutate()
    except ValueError as error:
        return str(error)
    return None


@given(stacks_and_batches())
@settings(max_examples=200, deadline=None)
def test_add_replicas_is_the_per_entry_sequence(case):
    stack, replay, (layers, experts, devices) = case
    before = state(stack)
    sequence = copy.deepcopy(stack)
    error = outcome(lambda: stack.add_replicas(layers, experts, devices))
    assert error == outcome(lambda: sequential_add_replicas(sequence, layers, experts, devices))
    if error is not None:
        assert state(stack) == before
        return
    assert state(stack) == state(sequence)
    replay.add_replicas(layers, experts, devices)
    assert_matches_replay(stack, replay)


@given(stacks_and_batches())
@settings(max_examples=200, deadline=None)
def test_commit_many_is_the_per_copy_sequence(case):
    stack, _, (layers, experts, devices) = case
    topology = MeshTopology(1, stack.num_devices)
    balancer = NoBalancer(stack, topology, expert_bytes=1.0)
    items = [
        (layer, Migration(expert=expert, src=device + 1, dst=device, volume=1.0))
        for layer, expert, device in zip(layers.tolist(), experts.tolist(), devices.tolist())
    ]
    for layer, migration in items:
        if 0 <= layer < stack.num_layers:
            balancer.pending[layer].add((migration.expert, migration.dst))
    balancer.pending[0].add((0, stack.num_devices - 1))
    before, pending_before = state(stack), copy.deepcopy(balancer.pending)
    sequence = copy.deepcopy(balancer)
    error = outcome(lambda: balancer.commit_many(items))
    assert error == outcome(lambda: sequential_commit(sequence, items))
    if error is not None:
        # A batch that raises changes nothing, the pending sets included.
        assert state(stack) == before
        assert balancer.pending == pending_before
        return
    assert state(stack) == state(sequence.placement)
    # Set iteration order feeds the heats' float sums.
    assert [list(s) for s in balancer.pending] == [list(s) for s in sequence.pending]


@pytest.mark.parametrize(
    "batch, message",
    [
        (([0, 5, 0], [1, 0, 9], [3, 0, 0]), "layer 5 out of range"),
        (([1, 0], [9, 1], [3, 3]), "expert 9 out of range"),
        (([1, 0], [3, 0], [1, 0]), "device 0 already hosts expert 0"),
        (([0, 0], [1, 0], [3, 3]), "device 3 has no free shadow slot"),
        (([0], [1], [2]), "device 2 has no free shadow slot"),
    ],
)
def test_first_message_is_the_sequences_first(batch, message):
    """Layers are checked first, then each layer in ascending order, its
    entries in batch order."""
    stack = StackedPlacement(2, 4, 4)
    stack.fail_device(2)
    before = state(stack)
    with pytest.raises(ValueError, match=message):
        stack.add_replicas(*(np.array(column) for column in batch))
    assert state(stack) == before
