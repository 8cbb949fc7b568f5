"""Literal fingerprints of the serving path under the knobs that remain.

``test_default_fingerprint.py`` pins the default configuration; these pins
hold the same single path under every knob it still takes: faults under
each balancing strategy, serial (non-overlapped) phases, the migration
side channel, large migration plans, the baseline mapping, a two-wafer
system, a 6x6 wafer with nine DP groups (a group split that is not a
power of two), a varying continuous-batching batch size, and fewer
experts than devices (12 on 16, so the hosted destination sets grow as
shadows land on empty devices).  All were captured with the fixture of
the default pins (Qwen3, 6 simulated layers, seed 17, 40 iterations), on
its 4x4 wafer unless the pin names another system.  They live apart from
the default pins so that deleting a knob deletes its pins here while the
default pins stay byte-for-byte unchanged.

Floats compare at ``rel=1e-12`` because BLAS reduction order differs
between numpy builds; counts compare exactly.
"""

from dataclasses import replace

import pytest

from repro.balancer import (
    BalancerConfig,
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
from repro.faults import DeviceFailure, FaultSchedule, LinkDegradation, Straggler
from repro.models import QWEN3_235B
from repro.systems import build_multi_wsc, build_wsc
from repro.workload import AzureLikeMixer, CHAT, CODING, MATH, PRIVACY, GatingSimulator

ITERATIONS = 40

FAULTS = (
    Straggler(iteration=8, device=6, factor=3.0, duration=10),
    LinkDegradation(iteration=12, src=5, dst=6, factor=0.25, duration=10),
    DeviceFailure(iteration=20, device=9),
)

#: Per-iteration batch sizes cycled through ``step(tokens_per_group=...)``.
BATCHES = (64, 16, 128, 40)

#: Fewer experts than the 16 devices of the 4x4 wafer.
QWEN3_12E = replace(QWEN3_235B, name="qwen3-12e", num_experts=12)

#: name -> (run settings, latency sum, all-to-all mean sum, migrations,
#: repairs, {iteration: latency}).
PINNED = {
    "none_faults": (
        dict(balancer=NoBalancer, faulted=True),
        0.2784460402637369,
        6.705885866666665e-05,
        0,
        48,
        {
            0: 0.004141293037226666,
            10: 0.012246516426410664,
            20: 0.016934891771420445,
            39: 0.005101938869020445,
        },
    ),
    "greedy_faults": (
        dict(balancer=GreedyBalancer, faulted=True),
        0.2858474666528142,
        6.629040355555555e-05,
        85,
        43,
        {
            0: 0.004141293037226666,
            10: 0.012567963980117334,
            20: 0.014618587936284445,
            39: 0.005121902620103112,
        },
    ),
    "topology_faults": (
        dict(balancer=TopologyAwareBalancer, faulted=True),
        0.286333933320064,
        6.516423111111111e-05,
        86,
        42,
        {
            0: 0.004141293037226666,
            10: 0.012576082852863999,
            20: 0.016965992256142225,
            39: 0.005118067823843556,
        },
    ),
    "greedy_serial_phases": (
        dict(balancer=GreedyBalancer, engine=dict(overlap=False)),
        0.1872211707415467,
        6.268455822222224e-05,
        97,
        0,
        {
            0: 0.004345927277226667,
            10: 0.004568049162922667,
            20: 0.004591628374926222,
            39: 0.004581326843904,
        },
    ),
    "topology_side_channel": (
        dict(
            balancer=TopologyAwareBalancer,
            balancing=BalancingConfig(
                shadow_slots=2, beta_iters=3, migration_side_channel=True
            ),
        ),
        0.18126434950257786,
        6.049683911111112e-05,
        215,
        0,
        {
            0: 0.004141293037226666,
            10: 0.004580957589845333,
            20: 0.004584890481664,
            39: 0.004585650176796445,
        },
    ),
    "greedy_large_plans": (
        dict(
            balancer=GreedyBalancer,
            balancing=BalancingConfig(shadow_slots=2),
            balancer_config=BalancerConfig(max_migrations_per_trigger=16),
        ),
        0.19038488524790048,
        6.134607644444442e-05,
        195,
        0,
        {
            0: 0.004141293037226666,
            10: 0.004549051035989332,
            20: 0.004588068854784,
            39: 0.004590808557226666,
        },
    ),
    "non_invasive_baseline_mapping": (
        dict(balancer=NonInvasiveBalancer, system="baseline"),
        0.17434596864061716,
        0.0001218879751597651,
        112,
        0,
        {
            0: 0.0041588477338101015,
            10: 0.004383211529488126,
            20: 0.004402093936427317,
            39: 0.004385073923626847,
        },
    ),
    "non_invasive_two_wafers": (
        dict(balancer=NonInvasiveBalancer, system="two_wafers"),
        0.14014551671807998,
        0.000122894336,
        191,
        0,
        {
            0: 0.0032926891279360005,
            10: 0.0035282823937706665,
            20: 0.0035323748245617782,
            39: 0.0035418642116266663,
        },
    ),
    "non_invasive_dynamic_batch": (
        dict(balancer=NonInvasiveBalancer, batches=BATCHES),
        0.17123995918336002,
        6.113991111111112e-05,
        110,
        0,
        {
            0: 0.004141293037226666,
            10: 0.006298640262826667,
            20: 0.004382572562090667,
            39: 0.003647908524373334,
        },
    ),
    # 6x6 ER wafer with tp=4: nine DP groups, so the group split takes
    # the general (non-power-of-two) tree — Binomial(n, 1/2) levels plus
    # BTRS and inverse-CDF lanes for the odd widths.
    "non_invasive_dp9": (
        dict(balancer=NonInvasiveBalancer, side=6),
        0.1398234973983858,
        9.158360177777779e-05,
        212,
        0,
        {
            0: 0.0033039675778133337,
            10: 0.003525041171498667,
            20: 0.0035290629396906668,
            39: 0.003537317212544,
        },
    ),
    "greedy_fewer_experts": (
        dict(balancer=GreedyBalancer, model=QWEN3_12E),
        0.11478633203866741,
        7.454623288888889e-05,
        92,
        0,
        {
            0: 0.002638840833706667,
            10: 0.0026412193836373335,
            20: 0.002810618713770667,
            39: 0.002843870370360889,
        },
    ),
    "non_invasive_fewer_experts": (
        dict(balancer=NonInvasiveBalancer, model=QWEN3_12E),
        0.11166529994008217,
        7.160933912380952e-05,
        83,
        0,
        {
            0: 0.002638840833706667,
            10: 0.0027560209202062225,
            20: 0.0028446320333937775,
            39: 0.002853384160613587,
        },
    ),
}


def run(settings):
    model = settings.get("model", QWEN3_235B)
    system_name = settings.get("system", "er")
    if system_name == "two_wafers":
        system = build_multi_wsc(model, num_wafers=2, side=4, tp=4)
    else:
        system = build_wsc(
            model, side=settings.get("side", 4), tp=4, mapping=system_name
        )
    workload = GatingSimulator(
        model,
        num_groups=system.mapping.dp,
        tokens_per_group=64,
        mixer=AzureLikeMixer([CHAT, CODING, MATH, PRIVACY], period_iters=30),
        num_layers=6,
        seed=17,
    )
    simulator = ServingSimulator(
        system.device,
        model,
        system.mapping,
        workload,
        settings["balancer"],
        engine_config=EngineConfig(tokens_per_group=64, **settings.get("engine", {})),
        serving_config=ServingConfig(
            num_iterations=ITERATIONS,
            balancing=settings.get("balancing", BalancingConfig()),
        ),
        balancer_config=settings.get("balancer_config"),
        fault_schedule=FaultSchedule(list(FAULTS)) if settings.get("faulted") else None,
    )
    batches = settings.get("batches")
    if batches is None:
        return simulator.run().records
    return [
        simulator.step(tokens_per_group=batches[index % len(batches)])
        for index in range(ITERATIONS)
    ]


@pytest.mark.parametrize("name", list(PINNED))
def test_variant_trace_matches_pins(name):
    settings, total, alltoall_total, migrations, repairs, spots = PINNED[name]
    records = run(settings)
    assert len(records) == ITERATIONS
    assert sum(record.latency for record in records) == pytest.approx(
        total, rel=1e-12, abs=0.0
    )
    assert sum(record.alltoall_mean for record in records) == pytest.approx(
        alltoall_total, rel=1e-12, abs=0.0
    )
    assert sum(record.migrations_started for record in records) == migrations
    assert sum(record.repair_migrations for record in records) == repairs
    assert records[-1].experts_orphaned == 0
    for iteration, latency in spots.items():
        assert records[iteration].latency == pytest.approx(
            latency, rel=1e-12, abs=0.0
        )
