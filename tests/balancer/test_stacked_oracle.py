"""Stacked balancers against the per-layer reference, bit for bit.

Each :class:`repro.balancer.Balancer` strategy runs every layer's
balancing as layer-stacked tensor ops; the per-layer classes of
``tests/balancer_reference.py`` are the reference it must reproduce
exactly.  Each test drives a strategy and one reference instance per
layer (paired in :data:`STRATEGIES`) through the same load stream with
the serving loop's cadence — observe, Eq. 2 imbalance, evict, plan, then
commit (invasive: at once; non-invasive: after a fixed delay) or abandon
— and asserts identical plans, pending sets and placements after every
iteration.  Any floating-point drift in heats, eviction or planning flips
a decision somewhere and shows up here.
"""

import numpy as np
import pytest

import balancer_reference as reference_balancers
from placement_reference import ExpertPlacement
from placement_replay import snapshot

from repro.balancer import (
    Balancer,
    BalancerConfig,
    GreedyBalancer,
    NoBalancer,
    NonInvasiveBalancer,
    TopologyAwareBalancer,
)
from repro.mapping.placement import StackedPlacement
from repro.models import QWEN3_235B
from repro.systems import build_multi_wsc, build_wsc
from repro.workload import AzureLikeMixer, CHAT, CODING, MATH, PRIVACY, GatingSimulator

#: strategy -> (production class, per-layer reference class).
STRATEGIES = {
    "none": (NoBalancer, reference_balancers.NoBalancer),
    "greedy": (GreedyBalancer, reference_balancers.GreedyBalancer),
    "topology": (TopologyAwareBalancer, reference_balancers.TopologyAwareBalancer),
    "non_invasive": (NonInvasiveBalancer, reference_balancers.NonInvasiveBalancer),
}

#: Iterations a non-invasive migration stays in flight before it lands.
COMMIT_DELAY = 2
#: Every ABANDON_EVERY-th non-invasive migration is abandoned instead.
ABANDON_EVERY = 5


def drive(
    strategy,
    num_layers=6,
    iterations=80,
    shadow_slots=1,
    warmup_iters=5,
    beta_iters=10,
    alpha=0.5,
    config=None,
    seed=17,
    topology=None,
):
    """Run both engines through one load stream.

    Returns ``(migrations planned, shadow replicas evicted)``.
    """
    if topology is None:
        topology = build_wsc(QWEN3_235B, side=4, tp=4, mapping="er").mapping.topology
    num_experts = QWEN3_235B.num_experts
    num_devices = topology.num_devices
    balancer_cls, reference_cls = STRATEGIES[strategy]
    stacked = balancer_cls(
        StackedPlacement(num_layers, num_experts, num_devices, shadow_slots),
        topology,
        expert_bytes=QWEN3_235B.expert_bytes,
        config=config,
    )
    reference = [
        reference_cls(
            ExpertPlacement(num_experts, num_devices, shadow_slots),
            topology,
            expert_bytes=QWEN3_235B.expert_bytes,
            config=config,
        )
        for _ in range(num_layers)
    ]
    workload = GatingSimulator(
        QWEN3_235B,
        num_groups=4,
        tokens_per_group=64,
        mixer=AzureLikeMixer([CHAT, CODING, MATH, PRIVACY], period_iters=30),
        num_layers=num_layers,
        seed=seed,
    )
    beta = beta_iters if stacked.invasive else 0
    last_trigger = -(10**9)
    # (landing iteration, serial, layer, migration) for non-invasive moves.
    in_flight = []
    planned = 0
    evicted = 0
    for iteration in range(iterations):
        _counts, loads = workload.next_loads()
        stacked.observe(loads)
        for layer, balancer in enumerate(reference):
            balancer.observe(loads[layer])

        heats = stacked.heats(include_pending=False)
        triggered = stacked.imbalance_sum(heats) > alpha
        assert triggered == (sum(b.imbalance() for b in reference) > alpha)
        if (
            iteration >= warmup_iters
            and triggered
            and iteration - last_trigger >= beta
        ):
            dropped = stacked.evict_stale(heats)
            assert dropped == sum(balancer.evict_stale() for balancer in reference)
            evicted += dropped
            plans = stacked.plan(iteration)
            assert plans == [balancer.plan(iteration) for balancer in reference]
            moves = [
                (layer, migration)
                for layer, plan in enumerate(plans)
                for migration in plan
            ]
            if moves:
                last_trigger = iteration
            if stacked.invasive:
                stacked.commit_many(moves)
                for layer, migration in moves:
                    reference[layer].commit(migration)
            else:
                for serial, (layer, migration) in enumerate(moves, planned):
                    in_flight.append(
                        (iteration + COMMIT_DELAY, serial, layer, migration)
                    )
            planned += len(moves)

        landing = [item for item in in_flight if item[0] <= iteration]
        in_flight = [item for item in in_flight if item[0] > iteration]
        commits = []
        for _, serial, layer, migration in landing:
            if serial % ABANDON_EVERY == 0:
                stacked.abandon(layer, migration)
                reference[layer].abandon(migration)
            else:
                commits.append((layer, migration))
        stacked.commit_many(commits)
        for layer, migration in commits:
            reference[layer].commit(migration)

        assert_same_state(stacked, reference)
    return planned, evicted


def assert_same_state(stacked, reference):
    placement = stacked.placement
    for layer, balancer in enumerate(reference):
        assert stacked.pending[layer] == balancer.pending, layer
        ours = snapshot(placement, layer)
        ref = balancer.placement
        assert placement.versions[layer] == ref.version, layer
        np.testing.assert_array_equal(placement.replica_counts[layer], ref.replica_counts)
        np.testing.assert_array_equal(placement.shadow_counts[layer], ref.shadow_counts)
        assert [ours.replicas(e) for e in range(ours.num_experts)] == [
            ref.replicas(e) for e in range(ref.num_experts)
        ], layer
        np.testing.assert_array_equal(
            ours.destination_shares, ref.destination_shares
        )


@pytest.mark.parametrize("strategy", list(STRATEGIES))
def test_stacked_matches_per_layer(strategy):
    planned, _evicted = drive(strategy)
    # Every migrating strategy must actually plan (and, for the
    # non-invasive one, commit and abandon), or the comparison is idle.
    assert (planned == 0) == (strategy == "none")
    if strategy == "non_invasive":
        assert planned > ABANDON_EVERY


@pytest.mark.parametrize("strategy", ["greedy", "topology"])
def test_stacked_matches_per_layer_side_channel(strategy):
    """Invasive commits under fig17's NVL72 side-channel settings."""
    drive(strategy, shadow_slots=2, beta_iters=3)


@pytest.mark.parametrize("strategy", ["greedy", "non_invasive"])
def test_stacked_matches_per_layer_aggressive_plans(strategy):
    """fig17's large-plan config: 16 migrations per trigger + eviction."""
    drive(
        strategy,
        num_layers=4,
        iterations=60,
        warmup_iters=2,
        shadow_slots=2,
        config=BalancerConfig(max_migrations_per_trigger=16),
    )


def test_stacked_matches_at_depth():
    """A deeper stack (the whole point) still matches the reference."""
    drive("non_invasive", num_layers=12, iterations=40)


def test_stacked_matches_single_layer():
    """A one-layer stack: the trigger sums over a single layer."""
    planned, _evicted = drive("non_invasive", num_layers=1)
    assert planned > 0


@pytest.mark.parametrize("strategy", ["greedy", "topology", "non_invasive"])
def test_stacked_matches_on_two_wafers(strategy):
    """Inter-wafer links change hop distances, so topology-aware targets
    and migration sources differ from the single-wafer runs."""
    system = build_multi_wsc(QWEN3_235B, num_wafers=2, side=4, tp=4)
    planned, _evicted = drive(strategy, topology=system.mapping.topology)
    assert planned > 0


@pytest.mark.parametrize("strategy", ["greedy", "non_invasive"])
def test_stacked_matches_under_eager_trigger(strategy):
    """alpha = 0 with no warmup and no cooldown: a plan every iteration."""
    planned, _evicted = drive(
        strategy,
        iterations=40,
        alpha=0.0,
        warmup_iters=0,
        beta_iters=0,
    )
    assert planned > 0


@pytest.mark.parametrize("strategy", ["greedy", "topology", "non_invasive"])
def test_stacked_matches_under_aggressive_eviction(strategy):
    """A fast EWMA and a high drop threshold evict shadow replicas often,
    so eviction order and the replica counts it leaves behind are
    compared, not just planning."""
    _planned, evicted = drive(
        strategy,
        shadow_slots=2,
        config=BalancerConfig(ewma=0.9, drop_fraction=0.5),
    )
    assert evicted > 0


@pytest.mark.parametrize("strategy", ["topology", "non_invasive"])
def test_stacked_matches_on_tied_shadows(strategy):
    """The hottest device hosts two shadows whose per-replica loads tie
    at the peak.  Layer 0 copied them in against expert order (5, then
    2), layer 1 in expert order: both engines take the first in
    ``experts_on`` order, the older shadow, so the sources differ."""
    topology = build_wsc(QWEN3_235B, side=4, tp=4, mapping="er").mapping.topology
    balancer_cls, reference_cls = STRATEGIES[strategy]
    stacked = balancer_cls(
        StackedPlacement(2, 16, 16, shadow_slots=2), topology, expert_bytes=1.0
    )
    reference = [
        reference_cls(ExpertPlacement(16, 16, shadow_slots=2), topology, expert_bytes=1.0)
        for _ in range(2)
    ]
    for layer, order in enumerate([(5, 2), (2, 5)]):
        for expert in order:
            stacked.placement.add_replica(layer, expert, 0)
            reference[layer].placement.add_replica(expert, 0)
    loads = np.ones((2, 16))
    loads[:, 0] = 10.0
    loads[:, [2, 5]] = 100.0
    stacked.observe(loads)
    for layer, balancer in enumerate(reference):
        balancer.observe(loads[layer])
    plans = stacked.plan(0)
    assert plans == [balancer.plan(0) for balancer in reference]
    assert [(plan[0].expert, plan[0].src) for plan in plans] == [(5, 0), (2, 0)]
    assert_same_state(stacked, reference)


@pytest.mark.parametrize("strategy", list(STRATEGIES))
def test_reference_is_not_a_production_balancer(strategy):
    """The oracle compares two implementations: no reference class shares
    the production base, so none can stand in for a strategy."""
    balancer_cls, reference_cls = STRATEGIES[strategy]
    assert issubclass(balancer_cls, Balancer)
    assert not issubclass(reference_cls, Balancer)
