"""Sparse pricing in the serving loop: parity, auto selection, zero rebuilds.

``PricingConfig(sparse_pricing=...)`` selects which all-to-all operator
backs the layered plan.  The contracts:

* sparse and dense traces agree to ~1e-12 relative latency (the pricers
  sum identical terms in different associative orders) with *identical*
  migration decisions, across all four balancer strategies at full model
  depth (58 sparse layers);
* migration-free iterations perform zero operator rebuilds — the sparse
  pricer's ``state_rebuilds`` counter stays flat once the stack's states
  exist;
* the default ``sparse_pricing=None`` resolves through the
  dense-operator-footprint auto rule and explicit ``True``/``False``
  force their tier.
"""

from dataclasses import replace

import pytest

from repro.balancer import (
    GreedyBalancer,
    NoBalancer,
    NonInvasiveBalancer,
    TopologyAwareBalancer,
)
from repro.engine import (
    BalancingConfig,
    EngineConfig,
    PricingConfig,
    ServingConfig,
    ServingSimulator,
)
from repro.models import QWEN3_235B
from repro.network.alltoall import prefer_sparse_pricing, sparse_alltoall_pricer
from repro.systems import build_wsc
from repro.workload import (
    AzureLikeMixer,
    CHAT,
    CODING,
    MATH,
    PRIVACY,
    GatingSimulator,
)

ALL_STRATEGIES = [
    NoBalancer,
    GreedyBalancer,
    TopologyAwareBalancer,
    NonInvasiveBalancer,
]


def make_simulator(
    balancer_cls,
    num_layers=58,
    iterations=10,
    seed=17,
    sparse_pricing=None,
):
    system = build_wsc(QWEN3_235B, side=4, tp=4, mapping="er")
    workload = GatingSimulator(
        QWEN3_235B,
        num_groups=system.mapping.dp,
        tokens_per_group=64,
        mixer=AzureLikeMixer([CHAT, CODING, MATH, PRIVACY], period_iters=30),
        num_layers=num_layers,
        seed=seed,
    )
    return ServingSimulator(
        system.device,
        QWEN3_235B,
        system.mapping,
        workload,
        balancer_cls,
        engine_config=EngineConfig(tokens_per_group=64),
        serving_config=ServingConfig(
            num_iterations=iterations,
            balancing=BalancingConfig(warmup_iters=3),
            pricing=PricingConfig(sparse_pricing=sparse_pricing),
        ),
    )


class TestSparseDenseParity:
    """Acceptance: sparse matches the dense oracle across all four
    balancer strategies at 58 layers."""

    @pytest.mark.parametrize("balancer_cls", ALL_STRATEGIES)
    def test_trace_matches_dense_at_full_depth(self, balancer_cls):
        dense = make_simulator(balancer_cls, sparse_pricing=False).run()
        sparse = make_simulator(balancer_cls, sparse_pricing=True).run()
        assert sparse.num_migrations() == dense.num_migrations()
        for got, want in zip(sparse.records, dense.records):
            assert got.latency == pytest.approx(want.latency, rel=1e-12, abs=0.0)
            assert got.alltoall_mean == pytest.approx(
                want.alltoall_mean, rel=1e-12, abs=0.0
            )


class TestZeroRebuilds:
    def test_migration_free_iterations_rebuild_nothing(self):
        """After the first priced iteration builds the stack's states, a
        migration-free run never touches the rebuild counter again."""
        sim = make_simulator(NoBalancer, num_layers=8, sparse_pricing=True)
        pricer = sparse_alltoall_pricer(sim.mapping)
        sim.run()
        built = pricer.state_rebuilds
        # One state per priced layer (layers past the first), built once.
        assert built == 7
        make_more = make_simulator(NoBalancer, num_layers=8, sparse_pricing=True)
        del make_more  # (fresh simulators share the mapping-cached pricer)
        sim.serving_config = replace(sim.serving_config, num_iterations=5)
        sim.run()
        assert pricer.state_rebuilds == built

    def test_migrations_rebuild_a_bounded_number_of_states(self):
        sim = make_simulator(GreedyBalancer, num_layers=8, sparse_pricing=True)
        pricer = sparse_alltoall_pricer(sim.mapping)
        trace = sim.run()
        assert trace.num_migrations() > 0
        # Every rebuild is one layer state: the initial 7 plus at most one
        # per (mutated layer, migration epoch) — far below a per-iteration
        # full rebuild of the 7-layer stack.
        iterations = sim.serving_config.num_iterations
        assert pricer.state_rebuilds < 7 * iterations

    def test_rebuild_counter_visible_through_the_plan(self):
        sim = make_simulator(NoBalancer, num_layers=4, sparse_pricing=True)
        sim.run()
        pricer = sparse_alltoall_pricer(sim.mapping)
        assert pricer.state_rebuilds > 0
        assert pricer.operator_nbytes() > 0


class TestModeSelection:
    def test_forced_modes_respected(self):
        assert make_simulator(NoBalancer, num_layers=2, sparse_pricing=True
                              ).sparse_pricing is True
        assert make_simulator(NoBalancer, num_layers=2, sparse_pricing=False
                              ).sparse_pricing is False

    def test_auto_follows_operator_footprint(self):
        sim = make_simulator(NoBalancer, num_layers=2)
        assert sim.serving_config.pricing.sparse_pricing is None
        assert sim.sparse_pricing == prefer_sparse_pricing(sim.mapping)
        # A 16-device wafer prices a tiny dense operator: auto stays dense.
        assert sim.sparse_pricing is False
