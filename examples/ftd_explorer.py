"""Explore Full Token Domains and link heat under different mappings.

Draws the TP-group layout of the baseline and ER mappings on a 4x4 wafer,
prints the FTD geometry metrics of Sec. IV-A (the 2.7-vs-1.3 average-hops
analysis), and renders the hot/cold link complementarity that NI-Balancer
exploits.

Run:  python examples/ftd_explorer.py
"""

from repro import get_model
from repro.balancer.heat import classify_links, complementarity
from repro.mapping import BaselineMapping, ERMapping, ParallelismConfig, analyze_ftds
from repro.mapping.placement import StackedPlacement
from repro.network.alltoall import simulate_alltoall, uniform_demand
from repro.topology.mesh import MeshTopology


def draw_groups(mapping):
    mesh = mapping.mesh
    lines = []
    for x in range(mesh.height):
        row = []
        for y in range(mesh.width):
            device = x * mesh.width + y
            row.append(f"D{mapping.tp_group_of(device)}")
        lines.append(" ".join(row))
    return "\n".join(lines)


def main():
    mesh = MeshTopology(4, 4)
    parallelism = ParallelismConfig(tp=4, dp=4, tp_shape=(2, 2))
    model = get_model("qwen3")

    for name, mapping in (
        ("Baseline mapping", BaselineMapping(mesh, parallelism)),
        ("ER-Mapping", ERMapping(mesh, parallelism)),
    ):
        print(f"--- {name} (TP group of each device) ---")
        print(draw_groups(mapping))
        analysis = analyze_ftds(mapping)
        print(
            f"expected hops to another group's tokens: {analysis.expected_hops:.2f}"
            f"  |  FTD regions: {analysis.num_regions}"
            f"  |  overlap degree: {analysis.overlap_degree:.2f}"
        )

        placement = StackedPlacement(1, model.num_experts, mesh.num_devices)
        allreduce = mapping.simulate_allreduce(256 * model.token_bytes)
        demand = uniform_demand(
            mapping.dp, model.num_experts, 256,
            model.experts_per_token, model.token_bytes,
        )
        alltoall = simulate_alltoall(
            mesh, demand, placement, mapping
        )
        score = complementarity(
            classify_links(mesh, allreduce.link_bytes),
            classify_links(mesh, alltoall.link_bytes),
        )
        print(
            f"all-reduce {allreduce.duration * 1e6:.2f}us  |  "
            f"all-to-all {alltoall.duration * 1e6:.2f}us  |  "
            f"hot/cold complementarity {score:.2f}\n"
        )

    print(
        "Under ER-Mapping every 2x2 tile holds one member of each TP group:\n"
        "the all-to-all never leaves a tile, and the links each phase leaves\n"
        "cold are exactly where NI-Balancer hides expert migration."
    )


if __name__ == "__main__":
    main()
