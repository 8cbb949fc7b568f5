"""Incremental pricing in the serving loop: zero rebuilds without migrations.

Once the first priced iteration has built every layer's pricing state,
migration-free iterations perform zero rebuilds — the pricer's
``state_rebuilds`` counter stays flat — and migrations rebuild only the
touched layers' states.  The first iteration fills its route rows in one
batch.
"""

from dataclasses import replace

from repro.balancer import GreedyBalancer, NoBalancer
from repro.engine import (
    BalancingConfig,
    EngineConfig,
    ServingConfig,
    ServingSimulator,
)
from repro.models import QWEN3_235B
from repro.network import phase
from repro.network.alltoall import alltoall_pricer
from repro.systems import build_wsc
from repro.workload import (
    AzureLikeMixer,
    CHAT,
    CODING,
    MATH,
    PRIVACY,
    GatingSimulator,
)


def make_simulator(balancer_cls, num_layers, iterations=10, seed=17):
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
        ),
    )


class TestZeroRebuilds:
    def test_migration_free_iterations_rebuild_nothing(self):
        """After the first priced iteration builds the stack's states, a
        migration-free run never touches the rebuild counter again."""
        sim = make_simulator(NoBalancer, num_layers=8)
        pricer = alltoall_pricer(sim.mapping)
        sim.run()
        built = pricer.state_rebuilds
        # One state per layer, built once.
        assert built == 8
        make_more = make_simulator(NoBalancer, num_layers=8)
        del make_more  # (fresh simulators share the mapping-cached pricer)
        sim.serving_config = replace(sim.serving_config, num_iterations=5)
        sim.run()
        assert pricer.state_rebuilds == built

    def test_migrations_rebuild_a_bounded_number_of_states(self):
        sim = make_simulator(GreedyBalancer, num_layers=8)
        pricer = alltoall_pricer(sim.mapping)
        trace = sim.run()
        assert trace.num_migrations() > 0
        # Every rebuild is one layer state: the initial 8 plus at most one
        # per (mutated layer, migration epoch) — far below a per-iteration
        # full rebuild of the 8-layer stack.
        iterations = sim.serving_config.num_iterations
        assert pricer.state_rebuilds < 8 * iterations

    def test_rebuild_counter_visible_through_the_plan(self):
        sim = make_simulator(NoBalancer, num_layers=4)
        sim.run()
        pricer = alltoall_pricer(sim.mapping)
        assert pricer.state_rebuilds > 0
        assert pricer.operator_nbytes() > 0


class TestRouteFill:
    def test_first_step_fills_route_rows_in_one_batch(self, monkeypatch):
        """The first step builds every destination's rows together, so the
        8x8 wafer's 960 remote holder pairs (64 devices, 15 other groups
        each) reach the route cache in one fill; the combine phase reads
        their reversed latencies and routes no pairs of its own.  Building
        one destination at a time took 120 fills."""
        system = build_wsc(QWEN3_235B, side=8, tp=4, mapping="er")
        workload = GatingSimulator(
            QWEN3_235B,
            num_groups=system.mapping.dp,
            tokens_per_group=64,
            mixer=MATH,
            num_layers=4,
            seed=1,
        )
        sim = ServingSimulator(
            system.device, QWEN3_235B, system.mapping, workload, NoBalancer
        )
        fills = []
        add_rows = phase._RouteCache._add_rows

        def recording(cache, keys):
            fills.append(keys.size)
            return add_rows(cache, keys)

        monkeypatch.setattr(phase._RouteCache, "_add_rows", recording)
        sim.step()
        assert fills == [960]
        sim.step()
        assert fills == [960]
