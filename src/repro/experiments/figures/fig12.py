"""Fig. 12: expert load traces per scenario — stable after warm-up.

Qwen3-234B with EP = 8 (the paper's setup): device load ratios fluctuate
early and stabilise once the scenario's popularity profile dominates.  The
table reports the mean absolute per-iteration drift of the device load
ratios in the first vs last quarter of the run, per scenario.
"""

import numpy as np

from repro.analysis.load import device_token_loads
from repro.analysis.report import format_table
from repro.experiments.registry import register
from repro.experiments.spec import ExperimentSpec
from repro.mapping.placement import StackedPlacement
from repro.models import QWEN3_235B
from repro.workload import GatingSimulator, get_scenario

ITERATIONS = 200
EP = 8

SCENARIOS = ["chat", "coding", "math", "privacy"]


def run_point(params: dict) -> dict:
    scenario = get_scenario(params["scenario"])
    model = QWEN3_235B
    workload = GatingSimulator(
        model,
        num_groups=4,
        tokens_per_group=512,
        mixer=scenario,
        num_layers=1,
        adaptation=0.05,
        seed=scenario.seed,
    )
    placement = StackedPlacement(1, model.num_experts, EP)
    ratios = []
    for _ in range(ITERATIONS):
        counts = workload.next_group_counts()
        (loads,) = device_token_loads(counts.sum(axis=1), placement)
        ratios.append(loads / loads.sum())
    ratios = np.asarray(ratios)
    quarter = ITERATIONS // 4
    # Stability = distance of the instantaneous ratios from the steady-state
    # profile (mean of the final quarter): large during warm-up, sampling
    # noise only once the scenario's popularity dominates.
    steady = ratios[-quarter:].mean(axis=0)
    deviation = np.abs(ratios - steady).mean(axis=1)
    return {
        "name": scenario.name,
        "early": float(deviation[:quarter].mean()),
        "late": float(deviation[-quarter:].mean()),
        "peak": float(ratios[-1].max() * EP),
    }


def render(results) -> str:
    rows = []
    for result in results:
        m = result.metrics
        rows.append(
            [
                m["name"],
                f"{m['early']:.5f}",
                f"{m['late']:.5f}",
                f"{m['early'] / m['late']:.1f}x" if m["late"] > 0 else "inf",
                f"{m['peak']:.2f}",
            ]
        )
    return format_table(
        [
            "Scenario",
            "Warm-up deviation",
            "Steady deviation",
            "Stabilisation",
            "Steady peak/avg load",
        ],
        rows,
    )


SPEC = register(
    ExperimentSpec(
        name="fig12_load_traces",
        figure="fig12",
        description="Per-scenario expert load stability traces",
        grid={"scenario": SCENARIOS},
        point=run_point,
        render=render,
    )
)
