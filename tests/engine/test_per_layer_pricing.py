"""The serving loop's batched layer pricing against per-layer simulation.

``ServingSimulator.step`` prices every layer, layer 0 included, in one
batch: its all-to-all through the
:class:`~repro.network.alltoall.LayeredDispatchPlan` and its MoE roofline
through ``ComputeModel.moe_peak_arrays``.  The oracle here re-prices every
simulated layer one at a time with ``IterationSimulator.simulate_layer``
on that layer's own group demand (drawn from a twin workload with the same
seed) and a one-layer copy of that layer's placement taken when the loop
priced it, then rebuilds the iteration latency from those layer totals.
``simulate_alltoall`` and ``moe_peak_time`` price through the code under
test, so the oracle prices a reference snapshot of each copy instead: its
all-to-all with the pair-list reference of ``tests/alltoall_reference.py``
and its MoE roofline with the dense replica-matrix reference of
``tests/placement_reference.py``.  A layer priced against another layer's
demand or placement, a stale plan, or a slip in overlap or straggler
scaling shows up as a mismatch on some iteration — under migrations, faults, fewer experts than devices (hosted
sets that grow as shadow replicas land on empty devices), a DP group
count that is not a power of two and a varying batch size.
"""

from dataclasses import replace

import numpy as np
import pytest

from alltoall_reference import simulate_alltoall as reference_alltoall
from placement_reference import dense_moe_peak_time
from placement_replay import one_layer_stack, snapshot
from repro.balancer import (
    GreedyBalancer,
    NoBalancer,
    NonInvasiveBalancer,
    TopologyAwareBalancer,
)
from repro.engine import (
    BalancingConfig,
    EngineConfig,
    ServingConfig,
    ServingSimulator,
)
from repro.engine import iteration as iteration_module
from repro.engine import serving as serving_module
from repro.engine.iteration import IterationSimulator
from repro.faults import DeviceFailure, FaultSchedule, LinkDegradation, Straggler
from repro.models import QWEN3_235B
from repro.systems import build_wsc
from repro.workload import AzureLikeMixer, CHAT, CODING, MATH, PRIVACY, GatingSimulator

NUM_LAYERS = 6
ITERATIONS = 30

#: Relative 1e-12 with no absolute floor: pytest.approx's default 1e-12
#: absolute tolerance would pass any all-to-all duration, which is ~1e-7 s.
TIGHT = dict(rel=1e-12, abs=0.0)

FAULTS = (
    Straggler(iteration=8, device=6, factor=3.0, duration=10),
    LinkDegradation(iteration=12, src=5, dst=6, factor=0.25, duration=10),
    DeviceFailure(iteration=20, device=9),
)

#: Fewer experts than the 16 devices of the 4x4 wafer.
QWEN3_12E = replace(QWEN3_235B, name="qwen3-12e", num_experts=12)

#: name -> run settings.
SCENARIOS = {
    "none": dict(balancer=NoBalancer),
    "greedy": dict(balancer=GreedyBalancer),
    "topology": dict(balancer=TopologyAwareBalancer),
    "non_invasive": dict(balancer=NonInvasiveBalancer),
    "greedy_faults": dict(balancer=GreedyBalancer, faulted=True),
    "non_invasive_faults": dict(balancer=NonInvasiveBalancer, faulted=True),
    "side_channel": dict(
        balancer=GreedyBalancer,
        balancing=BalancingConfig(
            shadow_slots=2, beta_iters=3, migration_side_channel=True
        ),
    ),
    # 6x6 wafer, tp=4: nine DP groups, a group split that is not a
    # power of two.
    "dp9": dict(balancer=NonInvasiveBalancer, side=6),
    # 12 experts on 16 devices: every layer starts hosting 12 devices and
    # grows to all 16 as shadows land on the empty ones (down to the 15
    # survivors once device 9 fails).
    "fewer_experts": dict(balancer=GreedyBalancer, model=QWEN3_12E, hosted=(12, 16)),
    "fewer_experts_non_invasive": dict(
        balancer=NonInvasiveBalancer, model=QWEN3_12E, hosted=(12, 16)
    ),
    "fewer_experts_faults": dict(
        balancer=GreedyBalancer, model=QWEN3_12E, faulted=True, hosted=(12, 15)
    ),
    "serial_phases": dict(balancer=NonInvasiveBalancer, engine=dict(overlap=False)),
    "dynamic_batch": dict(balancer=NonInvasiveBalancer, batches=(64, 16, 128, 40)),
}


def make_workload(system, settings):
    return GatingSimulator(
        settings.get("model", QWEN3_235B),
        num_groups=system.mapping.dp,
        tokens_per_group=64,
        mixer=AzureLikeMixer([CHAT, CODING, MATH, PRIVACY], period_iters=30),
        num_layers=NUM_LAYERS,
        seed=17,
    )


def make_simulator(system, settings):
    return ServingSimulator(
        system.device,
        settings.get("model", QWEN3_235B),
        system.mapping,
        make_workload(system, settings),
        settings["balancer"],
        engine_config=EngineConfig(tokens_per_group=64, **settings.get("engine", {})),
        serving_config=ServingConfig(
            num_iterations=ITERATIONS,
            balancing=settings.get("balancing", BalancingConfig()),
        ),
        fault_schedule=FaultSchedule(list(FAULTS)) if settings.get("faulted") else None,
    )


class RecordingPlan:
    """Pass-through plan that keeps what the loop priced with it."""

    def __init__(self, plan, calls):
        self.plan = plan
        self.calls = calls

    def alltoall_durations_resolved(self, demand_stack):
        durations = self.plan.alltoall_durations_resolved(demand_stack)
        self.calls[-1].update(demand=demand_stack.copy(), durations=durations.copy())
        return durations


@pytest.fixture
def priced(monkeypatch):
    """Per-iteration pricing calls: one-layer copies of every layer's
    placement, demand, durations."""
    calls = []
    real = serving_module.layered_dispatch_plan

    def recording(mapping, placement):
        layers = range(placement.num_layers)
        calls.append(dict(placements=[one_layer_stack(placement, layer) for layer in layers]))
        return RecordingPlan(real(mapping, placement), calls)

    monkeypatch.setattr(serving_module, "layered_dispatch_plan", recording)
    return calls


@pytest.fixture
def reference_oracle(monkeypatch):
    """Builds an ``IterationSimulator`` whose ``simulate_layer`` prices a
    reference snapshot of the one-layer stack it is given: the all-to-all
    with the pair-list reference (it looks ``simulate_alltoall`` up as a
    module global) and the MoE roofline with the dense reference."""

    def alltoall(topology, demand, placement, mapping):
        return reference_alltoall(topology, demand, snapshot(placement, 0), mapping)

    monkeypatch.setattr(iteration_module, "simulate_alltoall", alltoall)

    def build(system, model, engine_config):
        oracle = IterationSimulator(system.device, model, system.mapping, engine_config)

        def moe_peak_time(loads, placement, device_scale=None):
            return dense_moe_peak_time(
                oracle.compute, loads, snapshot(placement, 0), device_scale
            )

        monkeypatch.setattr(oracle.compute, "moe_peak_time", moe_peak_time)
        return oracle

    return build


@pytest.mark.parametrize("name", list(SCENARIOS))
def test_loop_matches_per_layer_simulation(name, priced, reference_oracle):
    settings = SCENARIOS[name]
    model = settings.get("model", QWEN3_235B)
    system = build_wsc(model, side=settings.get("side", 4), tp=4, mapping="er")
    simulator = make_simulator(system, settings)
    twin = make_workload(system, settings)
    oracle = reference_oracle(system, model, simulator.engine_config)
    batches = settings.get("batches")
    depth = model.num_sparse_layers
    migrations = 0
    for iteration in range(ITERATIONS):
        tokens = None if batches is None else batches[iteration % len(batches)]
        record = simulator.step(tokens_per_group=tokens)
        migrations += record.migrations_started
        counts = twin.next_group_counts(tokens_per_group=tokens)
        assert len(priced) == iteration + 1
        call = priced[-1]
        # The loop priced every layer's own resolved demand, in bytes.
        np.testing.assert_array_equal(call["demand"], counts * model.token_bytes)
        layers = [
            oracle.simulate_layer(
                counts[layer],
                call["placements"][layer],
                device_scale=simulator._device_scale,
                tokens_per_group=tokens,
            ).breakdown
            for layer in range(NUM_LAYERS)
        ]
        # Every layer, layer 0 included, prices each phase to
        # summation-order rounding of the exact simulation.
        for layer in range(NUM_LAYERS):
            assert call["durations"][layer] == pytest.approx(
                [layers[layer].dispatch, layers[layer].combine], **TIGHT
            ), (iteration, layer)
        assert record.breakdown.dispatch == call["durations"][0, 0]
        assert record.breakdown.combine == call["durations"][0, 1]
        moe = record.breakdown.moe
        assert (moe.compute, moe.memory) == pytest.approx(
            (layers[0].moe.compute, layers[0].moe.memory), **TIGHT
        )
        assert record.alltoall_mean == pytest.approx(
            np.mean([breakdown.alltoall for breakdown in layers]), **TIGHT
        )
        assert (record.moe_mean.compute, record.moe_mean.memory) == pytest.approx(
            (
                np.mean([breakdown.moe.compute for breakdown in layers]),
                np.mean([breakdown.moe.memory for breakdown in layers]),
            ),
            **TIGHT,
        )
        # Every layer shares layer 0's (fault-scaled) attention phase and
        # pays its own MoE phase.
        totals = [
            record.breakdown.attention_phase + breakdown.moe_phase
            for breakdown in layers
        ]
        expected = (
            depth * np.mean(totals) + record.migration_exposed + record.repair_exposed
        )
        assert record.latency == pytest.approx(expected, **TIGHT), iteration
    assert (migrations == 0) == (settings["balancer"] is NoBalancer)
    if "hosted" in settings:
        hosted = [
            [
                int(snapshot(p, 0).destination_shares.any(axis=0).sum())
                for p in call["placements"]
            ]
            for call in (priced[0], priced[-1])
        ]
        assert hosted == [[count] * NUM_LAYERS for count in settings["hosted"]]
