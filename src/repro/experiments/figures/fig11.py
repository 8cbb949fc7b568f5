"""Fig. 11: hot/cold link heatmaps of the two phases under ER-Mapping.

Renders ASCII heatmaps of per-link traffic during the attention all-reduce
and the MoE all-to-all, and reports the complementarity score — the paper's
observation that every link is cold in at least one phase (exact on 2x2 FTD
tiles, high elsewhere).
"""

from repro.balancer.heat import classify_links, complementarity
from repro.experiments.registry import register
from repro.experiments.spec import ExperimentSpec
from repro.mapping.base import ParallelismConfig
from repro.mapping.er import ERMapping
from repro.mapping.placement import StackedPlacement
from repro.models import QWEN3_235B
from repro.network.alltoall import simulate_alltoall, uniform_demand
from repro.topology.mesh import MeshTopology

#: (side, tp, tp_shape) triples as one composite JSON-friendly axis.
CASES = [[4, 4, [2, 2]], [4, 2, [2, 1]], [6, 4, [2, 2]]]


def ascii_heatmap(mesh, link_bytes):
    """Character map: for each device, mark hot (#) / warm (+) / cold (.)
    based on the hottest link touching it."""
    peak = max(link_bytes.values(), default=1.0)
    lines = []
    for x in range(mesh.height):
        cells = []
        for y in range(mesh.width):
            device = x * mesh.width + y
            local_peak = max(
                (
                    volume
                    for (src, dst), volume in link_bytes.items()
                    if src == device or dst == device
                ),
                default=0.0,
            )
            ratio = local_peak / peak if peak else 0.0
            cells.append("#" if ratio > 0.5 else "+" if ratio > 0.05 else ".")
        lines.append(" ".join(cells))
    return "\n".join(lines)


def run_point(params: dict) -> dict:
    side, tp, tp_shape = params["case"]
    tp_shape = tuple(tp_shape)
    mesh = MeshTopology(side, side)
    mapping = ERMapping(
        mesh, ParallelismConfig(tp=tp, dp=side * side // tp, tp_shape=tp_shape)
    )
    model = QWEN3_235B
    placement = StackedPlacement(1, model.num_experts, mesh.num_devices)
    allreduce = mapping.simulate_allreduce(256 * model.token_bytes)
    demand = uniform_demand(
        mapping.dp, model.num_experts, 256, model.experts_per_token, model.token_bytes
    )
    alltoall = simulate_alltoall(
        mesh, demand, placement, mapping
    )
    score = complementarity(
        classify_links(mesh, allreduce.link_bytes),
        classify_links(mesh, alltoall.link_bytes),
    )
    block = (
        f"--- {side}x{side} WSC, TP={tp} {tp_shape} ---\n"
        f"attention all-reduce device heat:\n{ascii_heatmap(mesh, allreduce.link_bytes)}\n"
        f"MoE all-to-all device heat:\n{ascii_heatmap(mesh, alltoall.link_bytes)}\n"
        f"complementarity (links cold in >= 1 phase): {score:.2f}"
    )
    return {"block": block, "complementarity": score}


def render(results) -> str:
    return "\n\n".join(result.metrics["block"] for result in results)


SPEC = register(
    ExperimentSpec(
        name="fig11_heatmaps",
        figure="fig11",
        description="Hot/cold link heatmaps and phase complementarity",
        grid={"case": CASES},
        point=run_point,
        render=render,
    )
)
