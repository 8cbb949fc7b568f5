"""The pricer's mirrored combine phase against separately routed rows.

The pricer builds only the dispatch columns of each hosted set's operator.
Combine sends every dispatched byte back along the reversed route, so its
volumes are the dispatch volumes gathered through the link reversal, and
its latencies come from the route cache's reversed-pair walks.  On every
topology family, generated stacks (shadow replicas, a dead device with or
without its orphans repaired, zero demand cells) must price as
``tests/alltoall_reference.py``'s two-phase pricing does, each phase over
its own route rows: volumes bit for bit, and every cell's worst path
latency per phase exactly.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alltoall_reference import two_phase_price
from repro.mapping.placement import StackedPlacement
from repro.models import QWEN3_235B
from repro.network.alltoall import alltoall_pricer
from repro.systems import build_dgx, build_multi_wsc, build_nvl72, build_wsc

#: name -> system on every topology family the pricer serves.  On the
#: baseline two-wafer row, 48 holder pairs' walks back round differently.
SYSTEMS = {
    "er_8x8": lambda: build_wsc(QWEN3_235B, side=8, tp=4, mapping="er"),
    "baseline_8x8": lambda: build_wsc(QWEN3_235B, side=8, tp=4, mapping="baseline"),
    "her_two_wafers": lambda: build_multi_wsc(QWEN3_235B, 2, 4, tp=4),
    "baseline_two_wafers": lambda: build_multi_wsc(
        QWEN3_235B, 2, 4, tp=4, mapping="baseline"
    ),
    "dgx_two_nodes": lambda: build_dgx(QWEN3_235B, 2, tp=4),
    "nvl72": lambda: build_nvl72(QWEN3_235B, tp=4),
}


_BUILT = {}


def system(name):
    """The named system, built once and shared by the tests here."""
    if name not in _BUILT:
        _BUILT[name] = SYSTEMS[name]()
    return _BUILT[name]


def build_stack(num_devices, num_layers, shadow_slots, shadows, dead, repair):
    """A stack with the given shadow adds (invalid ones skipped), then an
    optional fail-stop whose orphans move to the next devices with room."""
    num_experts = QWEN3_235B.num_experts
    stack = StackedPlacement(num_layers, num_experts, num_devices, shadow_slots)
    for layer, expert, device in shadows:
        try:
            stack.add_replica(layer % num_layers, expert, device)
        except ValueError:
            pass
    if dead is None:
        return stack
    orphan_layers, orphan_experts = stack.fail_device(dead)
    for layer, expert in zip(orphan_layers.tolist(), orphan_experts.tolist()):
        if not repair:
            break
        for step in range(1, num_devices):
            device = (dead + step) % num_devices
            if stack.shadow_counts[layer, device] < shadow_slots and device != dead:
                stack.add_replica(layer, expert, device)
                break
    return stack


def assert_mirror_matches_two_phase_pricing(mapping, stack, demand):
    pricer = alltoall_pricer(mapping)
    batches = pricer.hosted_batches(stack)
    volumes, latencies = pricer._price(demand, batches, with_latencies=True)
    for batch in batches:
        hosted = batch.hosted
        cells = batch.cells(demand)
        expected, cell_latency = two_phase_price(mapping, hosted.dests.tolist(), cells)
        np.testing.assert_array_equal(volumes[batch.layers], expected)
        got = np.empty_like(cell_latency)
        np.put_along_axis(got, hosted.latency_order, hosted.latency_sorted, axis=1)
        np.testing.assert_array_equal(got, cell_latency)
        # The worst active cell's latency per layer and phase, exactly.
        active = cells.T[:, None, :] > 0
        worst = np.where(active, cell_latency[None], 0.0).max(axis=2, initial=0.0)
        np.testing.assert_array_equal(latencies[batch.layers], worst)


@st.composite
def stacks_and_demand(draw, num_devices, num_groups):
    num_layers = draw(st.integers(1, 3))
    entry = st.tuples(
        st.integers(0, 2),
        st.integers(0, QWEN3_235B.num_experts - 1),
        st.integers(0, num_devices - 1),
    )
    stack = build_stack(
        num_devices,
        num_layers,
        shadow_slots=draw(st.integers(1, 2)),
        shadows=draw(st.lists(entry, max_size=8)),
        dead=draw(st.none() | st.integers(0, num_devices - 1)),
        repair=draw(st.booleans()),
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    shape = (num_layers, num_groups, QWEN3_235B.num_experts)
    demand = rng.uniform(0.5, 1.5, shape) * 7168.0
    demand *= rng.random(shape) >= draw(st.sampled_from([0.0, 0.3, 0.9]))
    return stack, demand


@pytest.mark.parametrize("name", list(SYSTEMS))
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_generated_stacks(name, data):
    mapping = system(name).mapping
    stack, demand = data.draw(
        stacks_and_demand(mapping.topology.num_devices, mapping.dp)
    )
    assert_mirror_matches_two_phase_pricing(mapping, stack, demand)


@pytest.mark.parametrize("name", list(SYSTEMS))
def test_shadows_dead_device_and_zero_cells(name):
    mapping = system(name).mapping
    num_devices = mapping.topology.num_devices
    shadows = [(0, 0, num_devices - 1), (1, 5, 3), (1, 9, num_devices // 2), (2, 1, 2)]
    stack = build_stack(num_devices, 3, 2, shadows, dead=1, repair=True)
    assert 1 not in stack.replica_entries().device
    rng = np.random.default_rng(5)
    demand = rng.uniform(0.5, 1.5, (3, mapping.dp, QWEN3_235B.num_experts)) * 7168.0
    demand[1] *= rng.random(demand[1].shape) >= 0.5
    demand[2, :, ::3] = 0.0
    assert_mirror_matches_two_phase_pricing(mapping, stack, demand)
