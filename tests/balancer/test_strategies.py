"""Tests for the greedy, topology-aware and non-invasive planners.

Every scenario runs twice through the ``make`` fixture: on the per-layer
reference (``tests/balancer_reference.py``), and on the production
strategy over a one-layer stack, whose every plan must also equal the
reference's.
"""

import numpy as np
import pytest

import balancer_reference as reference
from placement_reference import ExpertPlacement

from repro.balancer import GreedyBalancer, NonInvasiveBalancer, TopologyAwareBalancer
from repro.balancer.base import BalancerConfig
from repro.balancer.ni import NONINVASIVE_PLAN_CAP
from repro.mapping.placement import StackedPlacement
from repro.topology.mesh import MeshTopology

#: strategy -> (production class, per-layer reference class).
STRATEGIES = {
    "greedy": (GreedyBalancer, reference.GreedyBalancer),
    "topology": (TopologyAwareBalancer, reference.TopologyAwareBalancer),
    "non_invasive": (NonInvasiveBalancer, reference.NonInvasiveBalancer),
}


class OneLayer:
    """A production strategy on a one-layer stack behind the per-layer
    API, planning in lockstep with a reference twin."""

    def __init__(self, balancer_cls, reference_cls, num_experts, side, shadow, **kwargs):
        topology = MeshTopology(side, side)
        self.engine = balancer_cls(
            StackedPlacement(1, num_experts, side * side, shadow_slots=shadow),
            topology,
            expert_bytes=1e6,
            **kwargs,
        )
        self.reference = reference_cls(
            ExpertPlacement(num_experts, side * side, shadow_slots=shadow),
            topology,
            expert_bytes=1e6,
            **kwargs,
        )
        self.invasive = self.engine.invasive

    def observe(self, loads):
        self.engine.observe(np.asarray(loads, dtype=float)[None, :])
        self.reference.observe(loads)

    def heats(self, include_pending=True):
        return self.engine.heats(include_pending)[0]

    def plan(self, iteration):
        (plan,) = self.engine.plan(iteration)
        assert plan == self.reference.plan(iteration)
        return plan

    def commit(self, migration):
        self.engine.commit_many([(0, migration)])
        self.reference.commit(migration)


@pytest.fixture(params=["reference", "production"])
def make(request):
    def build(strategy, num_experts=16, side=4, shadow=1, **kwargs):
        balancer_cls, reference_cls = STRATEGIES[strategy]
        if request.param == "production":
            return OneLayer(balancer_cls, reference_cls, num_experts, side, shadow, **kwargs)
        placement = ExpertPlacement(num_experts, side * side, shadow_slots=shadow)
        return reference_cls(placement, MeshTopology(side, side), expert_bytes=1e6, **kwargs)

    return build


def skewed_loads(num_experts, hot=0, factor=50.0):
    loads = np.ones(num_experts)
    loads[hot] = factor
    return loads


class TestGreedy:
    def test_replicates_hottest_expert(self, make):
        balancer = make("greedy")
        balancer.observe(skewed_loads(16, hot=5))
        migrations = balancer.plan(0)
        assert migrations
        assert migrations[0].expert == 5

    def test_reduces_projected_peak(self, make):
        balancer = make("greedy")
        balancer.observe(skewed_loads(16, hot=5))
        before = balancer.heats(include_pending=False).max()
        migrations = balancer.plan(0)
        for migration in migrations:
            balancer.commit(migration)
        after = balancer.heats(include_pending=False).max()
        assert after < before

    def test_destination_is_coldest_device(self, make):
        balancer = make("greedy")
        loads = np.ones(16)
        loads[0] = 100.0
        loads[15] = 0.0  # device 15 is coldest
        balancer.observe(loads)
        migrations = balancer.plan(0)
        assert migrations[0].dst == 15

    def test_no_migration_when_balanced(self, make):
        balancer = make("greedy")
        balancer.observe(np.full(16, 10.0))
        assert balancer.plan(0) == []

    def test_respects_slot_capacity(self, make):
        balancer = make("greedy", shadow=1)
        balancer.observe(skewed_loads(16, hot=0, factor=1000.0))
        migrations = balancer.plan(0)
        dst_counts = {}
        for migration in migrations:
            dst_counts[migration.dst] = dst_counts.get(migration.dst, 0) + 1
        assert all(count <= 1 for count in dst_counts.values())

    def test_invasive(self, make):
        assert make("greedy").invasive is True


class TestTopologyAware:
    def test_source_is_hottest_device_expert(self, make):
        balancer = make("topology")
        balancer.observe(skewed_loads(16, hot=5))
        migrations = balancer.plan(0)
        assert migrations[0].expert == 5
        assert migrations[0].src == 5  # device 5 hosts expert 5 (1:1)

    def test_destination_nearer_than_greedy(self, make):
        """Algorithm 1 line 7: nearest adequate device wins."""
        mesh = MeshTopology(4, 4)
        loads = np.ones(16) * 10
        loads[0] = 200.0

        topo = make("topology")
        topo.observe(loads)
        topo_migration = topo.plan(0)[0]

        greedy = make("greedy")
        greedy.observe(loads)
        greedy_migration = greedy.plan(0)[0]

        assert mesh.hops(topo_migration.src, topo_migration.dst) <= mesh.hops(
            greedy_migration.src, greedy_migration.dst
        )

    def test_nearest_among_cold_candidates(self, make):
        balancer = make("topology")
        loads = np.ones(16) * 10
        loads[0] = 200.0
        balancer.observe(loads)
        migration = balancer.plan(0)[0]
        # Device 0's neighbours on the 4x4 mesh are 1 and 4.
        assert migration.dst in (1, 4)

    def test_terminates_without_slots(self, make):
        balancer = make("topology", shadow=0)
        balancer.observe(skewed_loads(16))
        assert balancer.plan(0) == []

    def test_reduces_peak_heat(self, make):
        balancer = make("topology")
        balancer.observe(skewed_loads(16, hot=7, factor=100.0))
        before = balancer.heats(include_pending=False).max()
        for migration in balancer.plan(0):
            balancer.commit(migration)
        assert balancer.heats(include_pending=False).max() < before

    def test_multiple_experts_per_device(self, make):
        balancer = make("topology", num_experts=32)
        loads = np.ones(32)
        loads[4] = 80.0  # expert 4 lives on device 2 with expert 5
        balancer.observe(loads)
        migration = balancer.plan(0)[0]
        assert migration.expert == 4
        assert migration.src == 2


class TestNonInvasive:
    def test_flagged_non_invasive(self, make):
        assert make("non_invasive").invasive is False

    def test_plans_are_small_and_continuous(self, make):
        balancer = make("non_invasive")
        balancer.observe(skewed_loads(16, factor=100.0))
        migrations = balancer.plan(0)
        assert 1 <= len(migrations) <= 2

    def test_pending_not_replanned(self, make):
        balancer = make("non_invasive")
        balancer.observe(skewed_loads(16, hot=3, factor=100.0))
        first = balancer.plan(0)
        second = balancer.plan(1)
        taken = {(m.expert, m.dst) for m in first}
        assert all((m.expert, m.dst) not in taken for m in second)

    def test_custom_config_respected(self, make):
        balancer = make(
            "non_invasive",
            config=BalancerConfig(max_migrations_per_trigger=1),
        )
        balancer.observe(skewed_loads(16, factor=100.0))
        assert len(balancer.plan(0)) <= 1

    def test_positional_none_config_gets_the_plan_cap(self):
        """``config=None`` means the non-invasive default however it is
        passed; an explicit config is used as given."""
        stack = StackedPlacement(1, 16, 16)
        mesh = MeshTopology(4, 4)
        for balancer in (
            NonInvasiveBalancer(stack, mesh, 1.0, None),
            NonInvasiveBalancer(stack, mesh, 1.0, config=None),
            NonInvasiveBalancer(stack, mesh, 1.0),
        ):
            assert balancer.config.max_migrations_per_trigger == NONINVASIVE_PLAN_CAP == 2
        explicit = NonInvasiveBalancer(stack, mesh, 1.0, BalancerConfig())
        assert explicit.config.max_migrations_per_trigger == 8
