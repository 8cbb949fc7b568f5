"""Literal fingerprints of the default serving path.

The serving loop has one production path: the stacked balancer engine,
with every layer priced against its own placement and its own
group-resolved demand.  These pins were captured from that path on the
4x4 ER wafer (Qwen3, 6 simulated layers, seed 17) for all four balancing
strategies plus one run under a straggler, a link degradation and a
fail-stop.  Any semantic change to gating, balancing, migration pricing,
all-to-all pricing, rooflines or fault handling moves them far outside
the tolerance.

Floats compare at ``rel=1e-12`` because BLAS reduction order differs
between numpy builds; counts compare exactly.
"""

import pytest

from repro.balancer import (
    GreedyBalancer,
    NoBalancer,
    NonInvasiveBalancer,
    TopologyAwareBalancer,
)
from repro.engine import EngineConfig, ServingConfig, ServingSimulator
from repro.faults import DeviceFailure, FaultSchedule, LinkDegradation, Straggler
from repro.models import QWEN3_235B
from repro.systems import build_wsc
from repro.workload import AzureLikeMixer, CHAT, CODING, MATH, PRIVACY, GatingSimulator

ITERATIONS = 40

FAULTS = (
    Straggler(iteration=8, device=6, factor=3.0, duration=10),
    LinkDegradation(iteration=12, src=5, dst=6, factor=0.25, duration=10),
    DeviceFailure(iteration=20, device=9),
)

#: name -> (balancer, faulted, latency sum, migrations, repairs,
#: {iteration: latency}).
PINNED = {
    "none": (
        NoBalancer,
        False,
        0.1668369254673067,
        0,
        0,
        {
            0: 0.004141293037226666,
            10: 0.004164355461461333,
            20: 0.0041879299676159994,
            39: 0.004167862516736,
        },
    ),
    "greedy": (
        GreedyBalancer,
        False,
        0.17889217114688,
        97,
        0,
        {
            0: 0.004141293037226666,
            10: 0.004361971082922667,
            20: 0.0043824701029262225,
            39: 0.004373323643904,
        },
    ),
    "topology": (
        TopologyAwareBalancer,
        False,
        0.17719730917579377,
        100,
        0,
        {
            0: 0.004141293037226666,
            10: 0.004372389832362667,
            20: 0.004374595891541333,
            39: 0.0043673624456533324,
        },
    ),
    "non_invasive": (
        NonInvasiveBalancer,
        False,
        0.1735871851014827,
        112,
        0,
        {
            0: 0.004141293037226666,
            10: 0.004366032187733334,
            20: 0.004383006270236444,
            39: 0.004365499057834667,
        },
    ),
    "non_invasive_faults": (
        NonInvasiveBalancer,
        True,
        0.28463049442412097,
        103,
        43,
        {
            0: 0.004141293037226666,
            10: 0.01267673518523733,
            20: 0.016959679231516443,
            39: 0.005119229141788446,
        },
    ),
}


def run(balancer_cls, faulted):
    system = build_wsc(QWEN3_235B, side=4, tp=4, mapping="er")
    workload = GatingSimulator(
        QWEN3_235B,
        num_groups=system.mapping.dp,
        tokens_per_group=64,
        mixer=AzureLikeMixer([CHAT, CODING, MATH, PRIVACY], period_iters=30),
        num_layers=6,
        seed=17,
    )
    return ServingSimulator(
        system.device,
        QWEN3_235B,
        system.mapping,
        workload,
        balancer_cls,
        engine_config=EngineConfig(tokens_per_group=64),
        serving_config=ServingConfig(num_iterations=ITERATIONS),
        fault_schedule=FaultSchedule(list(FAULTS)) if faulted else None,
    ).run()


@pytest.mark.parametrize("name", list(PINNED))
def test_default_trace_matches_pins(name):
    balancer_cls, faulted, total, migrations, repairs, spots = PINNED[name]
    trace = run(balancer_cls, faulted)
    assert len(trace.records) == ITERATIONS
    assert sum(record.latency for record in trace.records) == pytest.approx(
        total, rel=1e-12, abs=0.0
    )
    assert trace.num_migrations() == migrations
    assert trace.num_repairs() == repairs
    assert trace.records[-1].experts_orphaned == 0
    for iteration, latency in spots.items():
        assert trace.records[iteration].latency == pytest.approx(
            latency, rel=1e-12, abs=0.0
        )
