"""Regression tests: vectorized hot paths match the original loop semantics.

The seed implementations of ``Balancer.heats``, ``device_token_loads``,
``ComputeModel.moe_device_times`` and the serving engine's device-load
stats were pure-Python loops over experts and replicas.  This PR replaced
them with matrix products over the placement's incrementally-maintained
replica matrix; these tests re-state the original loops verbatim and check
the vectorized versions agree on randomized placements, loads, and pending
sets.
"""

import numpy as np
import pytest

from balancer_reference import NoBalancer

from repro.analysis.load import device_token_loads
from repro.balancer.base import BalancerConfig
from repro.engine.compute import ComputeModel
from repro.hardware.device import B200
from repro.mapping.placement import ExpertPlacement, StackedPlacement
from repro.models import QWEN3_235B
from repro.topology.mesh import MeshTopology

NUM_EXPERTS = 24
NUM_DEVICES = 16


def random_placement(rng, shadow_slots=2, fill=0.5):
    placement = ExpertPlacement(NUM_EXPERTS, NUM_DEVICES, shadow_slots=shadow_slots)
    for device in range(NUM_DEVICES):
        for _ in range(shadow_slots):
            if rng.random() > fill:
                continue
            expert = int(rng.integers(NUM_EXPERTS))
            if not placement.hosts(device, expert):
                placement.add_replica(expert, device)
    return placement


def random_stack(rng, num_layers, shadow_slots=2, fill=0.5):
    """:func:`random_placement`'s layout drawn independently per layer."""
    stack = StackedPlacement(
        num_layers, NUM_EXPERTS, NUM_DEVICES, shadow_slots=shadow_slots
    )
    for layer in range(num_layers):
        for device in range(NUM_DEVICES):
            for _ in range(shadow_slots):
                if rng.random() > fill:
                    continue
                expert = int(rng.integers(NUM_EXPERTS))
                if not stack.layer(layer).hosts(device, expert):
                    stack.add_replica(layer, expert, device)
    return stack


def make_balancer(placement, rng, num_pending=3):
    balancer = NoBalancer(
        placement, MeshTopology(4, 4), expert_bytes=1e6, config=BalancerConfig()
    )
    balancer.observe(rng.uniform(0.0, 100.0, NUM_EXPERTS))
    while len(balancer.pending) < num_pending:
        expert = int(rng.integers(NUM_EXPERTS))
        dst = int(rng.integers(NUM_DEVICES))
        balancer.pending.add((expert, dst))
    return balancer


def loop_heats(balancer, include_pending):
    """The seed implementation of Balancer.heats, verbatim."""
    placement = balancer.placement
    num_replicas = np.array(
        [placement.num_replicas(e) for e in range(placement.num_experts)],
        dtype=float,
    )
    if include_pending:
        for expert, _dst in balancer.pending:
            num_replicas[expert] += 1
    per_replica = np.divide(
        balancer.predicted_loads,
        num_replicas,
        out=np.zeros_like(balancer.predicted_loads),
        where=num_replicas > 0,
    )
    heats = np.zeros(placement.num_devices)
    for expert in range(placement.num_experts):
        for device in placement.replicas(expert):
            heats[device] += per_replica[expert]
        if include_pending:
            for pending_expert, dst in balancer.pending:
                if pending_expert == expert:
                    heats[dst] += per_replica[expert]
    return heats


def loop_device_token_loads(expert_loads, placement):
    """The seed implementation of device_token_loads, verbatim."""
    loads = np.asarray(expert_loads, dtype=float)
    device_loads = np.zeros(placement.num_devices)
    for expert in range(placement.num_experts):
        if loads[expert] <= 0:
            continue
        replicas = placement.replicas(expert)
        share = loads[expert] / len(replicas)
        for device in replicas:
            device_loads[device] += share
    return device_loads


def loop_moe_device_totals(model, device, expert_loads, placement):
    """The seed implementation of moe_device_times, reduced to totals."""
    loads = np.asarray(expert_loads, dtype=float)
    token_flops = model.expert_flops_per_token
    expert_bytes = model.expert_bytes
    device_tokens = np.zeros(placement.num_devices)
    device_active = np.zeros(placement.num_devices, dtype=int)
    for expert in range(placement.num_experts):
        if loads[expert] <= 0:
            continue
        replicas = placement.replicas(expert)
        share = loads[expert] / len(replicas)
        for dev in replicas:
            device_tokens[dev] += share
            device_active[dev] += 1
    compute = device_tokens * token_flops / device.int8_ops
    memory = device_active * expert_bytes / device.hbm_bandwidth
    return compute + memory


@pytest.mark.parametrize("seed", range(5))
class TestVectorizedEquivalence:
    def test_heats_matches_loop(self, seed):
        rng = np.random.default_rng(seed)
        balancer = make_balancer(random_placement(rng), rng)
        for include_pending in (False, True):
            np.testing.assert_allclose(
                balancer.heats(include_pending=include_pending),
                loop_heats(balancer, include_pending),
                rtol=1e-12,
            )

    def test_device_token_loads_matches_loop(self, seed):
        rng = np.random.default_rng(seed)
        placement = random_placement(rng)
        loads = rng.uniform(0.0, 50.0, NUM_EXPERTS)
        loads[rng.integers(NUM_EXPERTS)] = 0.0
        np.testing.assert_allclose(
            device_token_loads(loads, placement),
            loop_device_token_loads(loads, placement),
            rtol=1e-12,
        )

    def test_moe_peak_time_matches_loop(self, seed):
        rng = np.random.default_rng(seed)
        placement = random_placement(rng)
        loads = rng.uniform(0.0, 200.0, NUM_EXPERTS)
        compute = ComputeModel(B200, QWEN3_235B)
        totals = loop_moe_device_totals(QWEN3_235B, B200, loads, placement)
        peak = compute.moe_peak_time(loads, placement)
        assert peak.total == pytest.approx(totals.max(), rel=1e-12)
        vector_totals = [t.total for t in compute.moe_device_times(loads, placement)]
        np.testing.assert_allclose(vector_totals, totals, rtol=1e-12)

    def test_batched_moe_matches_per_layer(self, seed):
        rng = np.random.default_rng(seed)
        stack = random_stack(rng, num_layers=3)
        layer_loads = rng.uniform(0.0, 200.0, (3, NUM_EXPERTS))
        compute = ComputeModel(B200, QWEN3_235B)
        batched_compute, batched_memory = compute.moe_peak_arrays(layer_loads, stack)
        for layer, placement in enumerate(stack.layers):
            single = compute.moe_peak_time(layer_loads[layer], placement)
            assert batched_compute[layer] == pytest.approx(single.compute)
            assert batched_memory[layer] == pytest.approx(single.memory)

    def test_evict_stale_matches_loop_semantics(self, seed):
        rng = np.random.default_rng(seed)
        placement = random_placement(rng, fill=0.9)
        balancer = make_balancer(placement, rng, num_pending=0)
        # Push a few experts cold so eviction has candidates.
        balancer.predicted_loads[:: max(1, NUM_EXPERTS // 6)] = 0.01

        reference = placement.clone()
        heats = balancer.heats(include_pending=False)
        mean_heat = heats.mean()
        expected_drops = 0
        for device in range(reference.num_devices):
            for expert in list(reference.experts_on(device)):
                if expert in reference.native_experts_on(device):
                    continue
                per_replica = balancer.predicted_loads[expert] / reference.num_replicas(
                    expert
                )
                if per_replica < balancer.config.drop_fraction * mean_heat:
                    reference.drop_replica(expert, device)
                    expected_drops += 1

        assert balancer.evict_stale() == expected_drops
        for expert in range(NUM_EXPERTS):
            assert placement.replicas(expert) == reference.replicas(expert)


class TestReplicaMatrixInvariants:
    def test_matrix_tracks_add_and_drop(self):
        rng = np.random.default_rng(7)
        placement = ExpertPlacement(NUM_EXPERTS, NUM_DEVICES, shadow_slots=2)
        for _ in range(200):
            expert = int(rng.integers(NUM_EXPERTS))
            device = int(rng.integers(NUM_DEVICES))
            if not placement.hosts(device, expert) and placement.shadow_free(device) > 0:
                placement.add_replica(expert, device)
            elif expert in placement.experts_on(device) and device != placement.native_device(expert):
                placement.drop_replica(expert, device)
            matrix = placement.replica_matrix
            counts = placement.replica_counts
            for e in range(NUM_EXPERTS):
                replicas = placement.replicas(e)
                assert counts[e] == len(replicas)
                assert set(np.nonzero(matrix[e])[0]) == set(replicas)
            shadow = placement.shadow_counts
            for d in range(NUM_DEVICES):
                assert shadow[d] == placement.shadow_slots - placement.shadow_free(d)

    def test_views_are_read_only(self):
        placement = ExpertPlacement(4, 2)
        with pytest.raises(ValueError):
            placement.replica_matrix[0, 0] = 5.0
        with pytest.raises(ValueError):
            placement.replica_counts[0] = 5
        with pytest.raises(ValueError):
            placement.shadow_counts[0] = 5

    def test_clone_is_independent(self):
        placement = ExpertPlacement(8, 4, shadow_slots=1)
        clone = placement.clone()
        placement.add_replica(0, 3)
        assert placement.replica_counts[0] == 2
        assert clone.replica_counts[0] == 1
        assert clone.replica_matrix[0, 3] == 0.0
