"""Fig. 17: the full ablation — multi-WSC cluster vs NVL72 supernode.

Eight configurations per model, stacking the paper's mechanisms: NVL72
(with and without balancing over its NVMe side channel), then the 256-die
4x(8x8) WSC under baseline mapping, flat ER, HER, and HER plus each
balancer.  Reported: per-layer all-to-all, MoE time, exposed migration,
total iteration latency relative to NVL72, and per-device throughput.

The paper's shape: ER then HER remove the communication bottleneck;
topology-aware balancing cuts migration overhead; non-invasive balancing
eliminates it; the final system beats NVL72 per-device (paper: ~39%).
"""

from repro.analysis.report import format_table
from repro.balancer import BalancerConfig
from repro.engine import (
    BalancingConfig,
    EngineConfig,
    ServingConfig,
    ServingSimulator,
)
from repro.experiments.figures.shared import strategy_class
from repro.experiments.registry import register
from repro.experiments.spec import ExperimentSpec
from repro.models import get_model
from repro.systems import build_multi_wsc, build_nvl72
from repro.workload import AzureLikeMixer, CHAT, CODING, MATH, PRIVACY, GatingSimulator

ITERATIONS = 10
SKIP = 3
TOKENS_PER_DEVICE = 64

#: config key -> (label, system kind, mapping, strategy key, side channel).
_CONFIGS = {
    "nvl72": ("NVL72", "nvl72", None, "none", False),
    "nvl72_balance": ("NVL72 + Balance", "nvl72", None, "greedy", True),
    "wsc": ("WSC", "wsc", "baseline", "none", False),
    "wsc_er": ("WSC + ER", "wsc", "er", "none", False),
    "wsc_her": ("WSC + HER", "wsc", "her", "none", False),
    "wsc_her_greedy": ("WSC + HER + Greedy", "wsc", "her", "greedy", False),
    "wsc_her_topology": ("WSC + HER + Topology", "wsc", "her", "topology", False),
    "wsc_her_ni": ("WSC + HER + Non-invasive", "wsc", "her", "non_invasive", False),
}


def run_point(params: dict) -> dict:
    model = get_model(params["model"])
    _label, kind, mapping, strategy, side_channel = _CONFIGS[params["config"]]
    if kind == "nvl72":
        system = build_nvl72(model, tp=4)
    else:
        system = build_multi_wsc(model, 4, 8, tp=4, mapping=mapping)
    tokens_per_group = TOKENS_PER_DEVICE * system.num_devices // system.mapping.dp
    workload = GatingSimulator(
        model,
        num_groups=system.mapping.dp,
        tokens_per_group=tokens_per_group,
        mixer=AzureLikeMixer([CHAT, CODING, MATH, PRIVACY], period_iters=30),
        # Full model depth (stacked balancer engine) instead of the old
        # single-layer proxy.
        num_layers=model.num_sparse_layers,
        adaptation=0.3,
        seed=29,
    )
    simulator = ServingSimulator(
        system.device,
        model,
        system.mapping,
        workload,
        strategy_class(strategy),
        engine_config=EngineConfig(tokens_per_group=tokens_per_group),
        serving_config=ServingConfig(
            num_iterations=ITERATIONS,
            balancing=BalancingConfig(
                warmup_iters=2,
                beta_iters=3,
                shadow_slots=2,
                migration_side_channel=side_channel,
            ),
        ),
        # Short runs need larger per-trigger plans to converge the placement.
        balancer_config=BalancerConfig(max_migrations_per_trigger=16),
    )
    trace = simulator.run()
    per_device_latency = trace.mean_latency(SKIP)
    return {
        "alltoall": trace.mean_component("alltoall", SKIP),
        "moe": trace.mean_component("moe", SKIP),
        "overhead_fraction": trace.migration_overhead_fraction(SKIP),
        "per_device_latency": per_device_latency,
        "throughput": TOKENS_PER_DEVICE
        * model.num_sparse_layers
        / per_device_latency,
    }


def render(results) -> str:
    rows = []
    reference = None
    for result in results:
        m = result.metrics
        if reference is None:
            reference = m["per_device_latency"]
        rows.append(
            [
                _CONFIGS[result.params["config"]][0],
                f"{m['alltoall'] * 1e6:.1f}us",
                f"{m['moe'] * 1e6:.1f}us",
                f"{m['overhead_fraction'] * 100:.1f}%",
                f"{m['per_device_latency'] / reference:.2f}",
                f"{m['throughput']:.0f} tok/s/dev",
            ]
        )
    return format_table(
        [
            "Configuration",
            "All-to-all/layer",
            "MoE/layer",
            "Migration ovh",
            "Rel. latency",
            "Per-device perf",
        ],
        rows,
    )


def _spec(model_key: str, artifact: str) -> ExperimentSpec:
    return register(
        ExperimentSpec(
            name=f"fig17_ablation_{artifact}",
            figure="fig17",
            description=f"Full ablation vs NVL72 ({artifact})",
            grid={"model": [model_key], "config": list(_CONFIGS)},
            point=run_point,
            render=render,
            # v3: demand-resolved per-layer all-to-all pricing (v2 priced
            # per-layer placements under layer-0 demand).  v4: the 256-die
            # WSC configs price through the sparse incremental operator
            # (the footprint auto rule selects it above 64 MiB; shifts are
            # summation-order rounding, ~1e-12 relative).  v5: exact
            # multinomial deep-layer splits from the batched sampling
            # kernels replace the rescaled-Gaussian group split.  v6:
            # "MoE/layer" is the mean over every layer's peak-device
            # roofline (v5 reported layer 0's alone).
            version=6,
        )
    )


SPEC_QWEN3 = _spec("qwen3-235b", "qwen3")
SPEC_DEEPSEEK = _spec("deepseek-v3", "deepseek_v3")
