"""High-level system builders: model + platform + mapping in one call.

These are the entry points the examples and benchmarks use; they pick the
matching mapping class for each platform kind and validate the parallelism
arithmetic.
"""

from dataclasses import dataclass

from repro.hardware.device import B200, DeviceSpec
from repro.mapping.base import Mapping, ParallelismConfig
from repro.mapping.baseline import BaselineMapping
from repro.mapping.er import ERMapping
from repro.mapping.gpu import GPUMapping
from repro.mapping.her import HierarchicalERMapping
from repro.mapping.placement import StackedPlacement
from repro.models.configs import MoEModelConfig
from repro.topology.mesh import MeshTopology, MultiWaferTopology
from repro.topology.switched import DGXClusterTopology, NVL72Topology


@dataclass(frozen=True)
class System:
    """A ready-to-simulate cluster: device, model, mapping (with topology)."""

    device: DeviceSpec
    model: MoEModelConfig
    mapping: Mapping

    @property
    def topology(self):
        return self.mapping.topology

    @property
    def num_devices(self) -> int:
        return self.topology.num_devices

    def fresh_placement(self, shadow_slots: int = 1) -> StackedPlacement:
        """A one-layer placement in the native layout, for pricing one MoE
        layer (``simulate_alltoall``, ``ComputeModel.moe_peak_time``)."""
        return StackedPlacement(
            1, self.model.num_experts, self.num_devices, shadow_slots=shadow_slots
        )


_MESH_MAPPINGS = {"baseline": BaselineMapping, "er": ERMapping}


def _square_tp_shape(tp: int, height: int, width: int) -> tuple[int, int]:
    """Most-square (tpx, tpy) factorisation that tiles the mesh."""
    best = None
    for tpx in range(1, tp + 1):
        if tp % tpx:
            continue
        tpy = tp // tpx
        if height % tpx or width % tpy:
            continue
        score = abs(tpx - tpy)
        if best is None or score < best[0]:
            best = (score, (tpx, tpy))
    if best is None:
        raise ValueError(f"tp={tp} cannot tile a {height}x{width} mesh")
    return best[1]


def build_wsc(
    model: MoEModelConfig,
    side: int,
    tp: int,
    mapping: str = "er",
    tp_shape: tuple[int, int] | None = None,
    retain_allgather: bool = True,
    device: DeviceSpec = B200,
) -> System:
    """A single ``side x side`` wafer under baseline or ER mapping."""
    topology = MeshTopology(side, side)
    if tp_shape is None:
        tp_shape = _square_tp_shape(tp, side, side)
    parallelism = ParallelismConfig(
        tp=tp, dp=side * side // tp, tp_shape=tp_shape
    )
    try:
        mapping_cls = _MESH_MAPPINGS[mapping]
    except KeyError:
        raise ValueError(
            f"unknown mesh mapping {mapping!r}; pick from {sorted(_MESH_MAPPINGS)}"
        ) from None
    return System(
        device=device,
        model=model,
        mapping=mapping_cls(topology, parallelism, retain_allgather=retain_allgather),
    )


def build_multi_wsc(
    model: MoEModelConfig,
    num_wafers: int,
    side: int,
    tp: int,
    mapping: str = "her",
    tp_shape: tuple[int, int] | None = None,
    retain_allgather: bool = True,
    device: DeviceSpec = B200,
) -> System:
    """``num_wafers`` wafers of ``side x side`` dies; 'her', 'er' or 'baseline'."""
    topology = MultiWaferTopology(
        num_wafers=num_wafers, wafer_height=side, wafer_width=side
    )
    if tp_shape is None:
        tp_shape = _square_tp_shape(tp, side, side)
    parallelism = ParallelismConfig(
        tp=tp, dp=num_wafers * side * side // tp, tp_shape=tp_shape
    )
    if mapping == "her":
        built = HierarchicalERMapping(
            topology, parallelism, retain_allgather=retain_allgather
        )
    elif mapping in _MESH_MAPPINGS:
        built = _MESH_MAPPINGS[mapping](
            topology, parallelism, retain_allgather=retain_allgather
        )
    else:
        raise ValueError(
            f"unknown multi-wafer mapping {mapping!r}; "
            "pick 'her', 'er' or 'baseline'"
        )
    return System(device=device, model=model, mapping=built)


def build_dgx(
    model: MoEModelConfig,
    num_nodes: int,
    tp: int,
    retain_allgather: bool = True,
    device: DeviceSpec = B200,
) -> System:
    """A DGX cluster of 8-GPU nodes (TP packed inside nodes)."""
    topology = DGXClusterTopology(num_nodes=num_nodes)
    parallelism = ParallelismConfig(tp=tp, dp=topology.num_devices // tp)
    return System(
        device=device,
        model=model,
        mapping=GPUMapping(topology, parallelism, retain_allgather=retain_allgather),
    )


def build_nvl72(
    model: MoEModelConfig,
    tp: int,
    retain_allgather: bool = True,
    device: DeviceSpec = B200,
) -> System:
    """The NVL72 supernode."""
    topology = NVL72Topology()
    if topology.num_devices % tp:
        raise ValueError(f"tp={tp} does not divide 72 devices")
    parallelism = ParallelismConfig(tp=tp, dp=topology.num_devices // tp)
    return System(
        device=device,
        model=model,
        mapping=GPUMapping(topology, parallelism, retain_allgather=retain_allgather),
    )
