"""Fig. 16: balancing impact across scheduling modes and scenarios.

Prefill-only / decode-only / hybrid scheduling x Math-only / mixed
workloads, for Qwen3 and DeepSeek-V3 on an 8x8 wafer.  The paper's shape:
fixed scenarios stabilise and need few migrations; mixed scenarios trigger
frequent migrations whose overhead hits decode/hybrid hardest (short
iterations); topology-aware balancing cuts that overhead (~2.6x) and
non-invasive balancing removes it while delivering the best load ratio.
"""

from repro.analysis.report import format_table
from repro.engine import EngineConfig, ServingConfig, ServingSimulator
from repro.experiments.figures.shared import strategy_class
from repro.experiments.registry import register
from repro.experiments.spec import ExperimentSpec
from repro.models import get_model
from repro.systems import build_wsc
from repro.workload import AzureLikeMixer, CHAT, CODING, MATH, PRIVACY, GatingSimulator

ITERATIONS = 60
SKIP = 20

SCHEDULES = {
    # (tokens_per_group, context_len, decode)
    "Prefill-only": (1024, 4096, False),
    "Decode-only": (64, 4096, True),
    "Hybrid": (256, 4096, True),
}

#: Fig. 16 uses shorter strategy labels than Fig. 15.
_LABELS = {
    "none": "None",
    "greedy": "Greedy",
    "topology": "Topology",
    "non_invasive": "Non-invasive",
}


def run_point(params: dict) -> dict:
    model = get_model(params["model"])
    tokens, context, decode = SCHEDULES[params["schedule"]]
    mixed = params["scenario"] == "mixed"
    system = build_wsc(model, side=8, tp=4, mapping="er")
    if mixed:
        mixer = AzureLikeMixer([CHAT, CODING, MATH, PRIVACY], period_iters=40)
    else:
        mixer = MATH
    workload = GatingSimulator(
        model,
        num_groups=system.mapping.dp,
        tokens_per_group=tokens,
        mixer=mixer,
        # Full model depth (stacked balancer engine) — all sparse layers
        # feed the cumulative Eq. 2 trigger.
        num_layers=model.num_sparse_layers,
        seed=23,
    )
    simulator = ServingSimulator(
        system.device,
        model,
        system.mapping,
        workload,
        strategy_class(params["strategy"]),
        engine_config=EngineConfig(
            tokens_per_group=tokens, context_len=context, decode=decode
        ),
        serving_config=ServingConfig(num_iterations=ITERATIONS),
    )
    trace = simulator.run()
    return {
        "alltoall": trace.mean_component("alltoall", SKIP),
        "moe": trace.mean_component("moe", SKIP),
        "overhead_fraction": trace.migration_overhead_fraction(SKIP),
        "load_ratio": trace.mean_load_ratio(SKIP),
    }


def render(results) -> str:
    rows = []
    for result in results:
        m = result.metrics
        rows.append(
            [
                result.params["schedule"],
                "Mixed" if result.params["scenario"] == "mixed" else "Math-only",
                _LABELS[result.params["strategy"]],
                f"{m['alltoall'] * 1e6:.1f}us",
                f"{m['moe'] * 1e6:.1f}us",
                f"{m['overhead_fraction'] * 100:.1f}%",
                f"{m['load_ratio']:.2f}",
            ]
        )
    return format_table(
        [
            "Schedule",
            "Scenario",
            "Balancer",
            "All-to-all",
            "MoE time",
            "Migration ovh",
            "Max/Avg",
        ],
        rows,
    )


def _spec(model_key: str, artifact: str) -> ExperimentSpec:
    return register(
        ExperimentSpec(
            name=f"fig16_balancing_{artifact}",
            figure="fig16",
            description=f"Balancing impact across schedules/scenarios ({artifact})",
            grid={
                "model": [model_key],
                "schedule": list(SCHEDULES),
                "scenario": ["math", "mixed"],
                "strategy": list(_LABELS),
            },
            point=run_point,
            render=render,
            # v3: demand-resolved per-layer all-to-all pricing (v2 priced
            # per-layer placements under layer-0 demand).
            # v4: exact multinomial deep-layer splits from the batched
            # sampling kernels replace the rescaled-Gaussian group split.
            # v5: "MoE time" is the mean over every layer's peak-device
            # roofline (v4 reported layer 0's alone).
            version=5,
        )
    )


SPEC_QWEN3 = _spec("qwen3-235b", "qwen3")
SPEC_DEEPSEEK = _spec("deepseek-v3", "deepseek_v3")
