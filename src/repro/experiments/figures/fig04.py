"""Fig. 4: EP sweep — per-device MoE performance and time breakdown.

For EP in {8, 16, 32, 72, 256} (EP = device count), the compute vs
memory-access split of the per-device MoE time and the resulting relative
per-device performance, for DeepSeek-V3 and Qwen3.  The paper's annotations
(memory share falling from ~44% to ~22% for DeepSeek-V3) are the shape to
match.
"""

import numpy as np

from repro.analysis.report import format_table
from repro.engine.compute import ComputeModel
from repro.experiments.registry import register
from repro.experiments.spec import ExperimentSpec
from repro.hardware.device import B200
from repro.mapping.placement import StackedPlacement
from repro.models import get_model

EP_POINTS = [8, 16, 32, 72, 256]
TOKENS_PER_DEVICE = 64


def run_point(params: dict) -> dict:
    model = get_model(params["model"])
    ep = params["ep"]
    compute = ComputeModel(B200, model)
    placement = StackedPlacement(1, model.num_experts, ep)
    total_selected = TOKENS_PER_DEVICE * ep * model.experts_per_token
    loads = np.full(model.num_experts, total_selected / model.num_experts)
    peak = compute.moe_peak_time(loads, placement)
    return {
        "experts_per_device": model.num_experts / ep,
        "memory_fraction": peak.memory_fraction,
        "throughput": TOKENS_PER_DEVICE / peak.total,
    }


def render(results) -> str:
    rows = []
    baseline_throughput = None
    for result in results:
        m = result.metrics
        if baseline_throughput is None:
            baseline_throughput = m["throughput"]
        rows.append(
            [
                result.params["ep"],
                f"{m['experts_per_device']:.2f}",
                f"{m['memory_fraction'] * 100:.1f}%",
                f"{(1 - m['memory_fraction']) * 100:.1f}%",
                f"{m['throughput'] / baseline_throughput:.2f}x",
            ]
        )
    return format_table(
        ["EP", "E/D", "Memory access", "Computation", "Rel. per-device perf"], rows
    )


def _spec(model_key: str, artifact: str) -> ExperimentSpec:
    return register(
        ExperimentSpec(
            name=f"fig04_ep_sweep_{artifact}",
            figure="fig04",
            description=f"EP sweep of per-device MoE roofline ({artifact})",
            grid={"model": [model_key], "ep": EP_POINTS},
            point=run_point,
            render=render,
        )
    )


SPEC_DEEPSEEK = _spec("deepseek-v3", "deepseek_v3")
SPEC_QWEN3 = _spec("qwen3-235b", "qwen3")
