"""Per-layer resolved demand and placement in the serving loop.

Every layer past the first is priced against its own group-resolved
demand rows (``GatingSimulator.next_group_counts``) and its own
placement.  The contracts:

* per-layer prices diverge from the layer-0 price from the very first
  iteration, even on an identical placement stack (each layer's demand
  rows differ);
* a replica forced onto a later layer reprices the stack while layer 0's
  exactly simulated collectives stay untouched;
* a single-layer run has nothing to resolve: it consumes exactly the
  ``next_loads`` stream and reports layer 0's price.
"""

from repro.balancer import NoBalancer
from repro.engine import EngineConfig, ServingConfig, ServingSimulator
from repro.models import QWEN3_235B
from repro.systems import build_wsc
from repro.workload import AzureLikeMixer, CHAT, CODING, MATH, PRIVACY, GatingSimulator


def make_simulator(balancer_cls, num_layers=6, iterations=40, seed=17):
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
        serving_config=ServingConfig(num_iterations=iterations),
    )


class TestResolvedBehavior:
    def test_resolved_prices_diverge_from_layer0_immediately(self):
        """Even a uniform placement stack prices every layer differently
        once each layer carries its own demand rows."""
        trace = make_simulator(NoBalancer, iterations=5).run()
        for record in trace.records:
            assert record.alltoall_mean != record.breakdown.alltoall

    def test_forced_replica_on_later_layer_reprices_the_stack(self):
        """A replica forced onto layer 3 changes the per-layer prices
        while layer 0's exactly simulated collectives cannot see it."""

        def run(forced):
            simulator = make_simulator(NoBalancer, iterations=5)
            if forced:
                simulator.engine.placement.add_replica(3, expert=0, device=15)
            return simulator.run()

        forced, native = run(True), run(False)
        for ours, ref in zip(forced.records, native.records):
            assert ours.breakdown.alltoall == ref.breakdown.alltoall
        # Durations are max-based (bottleneck link + worst path), so an
        # individual iteration may legitimately price the same; the trace
        # as a whole must diverge.
        assert any(
            ours.alltoall_mean != ref.alltoall_mean
            for ours, ref in zip(forced.records, native.records)
        )
        assert any(
            ours.latency != ref.latency
            for ours, ref in zip(forced.records, native.records)
        )

    def test_single_layer_run_consumes_the_next_loads_stream(self):
        """With one simulated layer there is nothing to resolve: the run
        draws exactly what ``next_loads`` draws and reports layer 0's
        exact price as its all-to-all mean."""
        simulator = make_simulator(NoBalancer, num_layers=1, iterations=8)
        reference = make_simulator(NoBalancer, num_layers=1).workload
        trace = simulator.run()
        for record in trace.records:
            reference.next_loads()
            assert record.alltoall_mean == record.breakdown.alltoall
        assert (
            simulator.workload._rng.bit_generator.state
            == reference._rng.bit_generator.state
        )
