"""Roofline compute/memory model for attention and MoE layers.

The paper profiles FlashInfer kernels on a B200; offline we substitute a
roofline: compute time = FLOPs / peak, memory time = bytes touched / HBM
bandwidth.  Decode attention is dominated by KV-cache reads; decode MoE by
expert weight streaming — the two ratios Fig. 4 tracks.
"""

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.hardware.device import DeviceSpec
from repro.models.configs import FP16_BYTES, MoEModelConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mapping.placement import StackedPlacement


@dataclass(frozen=True, slots=True)
class RooflineTimes:
    """Compute and memory-access components of one kernel invocation."""

    compute: float
    memory: float

    @property
    def total(self) -> float:
        """Serial total — decode kernels stream weights, so no overlap."""
        return self.compute + self.memory

    @property
    def memory_fraction(self) -> float:
        if self.total == 0:
            return 0.0
        return self.memory / self.total


class ComputeModel:
    """Prices attention and expert computation on one device."""

    def __init__(self, device: DeviceSpec, model: MoEModelConfig) -> None:
        self.device = device
        self.model = model

    # -- attention -------------------------------------------------------------

    def attention_time(
        self,
        tokens: int,
        context_len: int,
        tp: int,
        decode: bool = True,
    ) -> RooflineTimes:
        """One attention layer on one device of a TP group.

        Args:
            tokens: tokens processed by the group this iteration.
            context_len: KV-cache length attended over (decode) or the
                sequence length being prefilled.
            tp: tensor-parallel degree splitting heads and weights.
            decode: decode reads the whole KV cache per token; prefill
                amortises weight reads over many tokens and attends
                causally (~half the context on average).
        """
        if tokens <= 0 or context_len < 0 or tp <= 0:
            raise ValueError("tokens/tp must be positive and context_len >= 0")
        model = self.model
        effective_context = context_len if decode else context_len / 2
        flops = tokens * (
            model.attention_flops_per_token
            + model.attention_score_flops(int(effective_context))
        ) / tp

        weight_bytes = model.attention_flops_per_token / 2 * FP16_BYTES / tp
        if decode:
            kv_bytes = tokens * context_len * model.kv_bytes_per_token_per_layer / tp
        else:
            kv_bytes = tokens * model.kv_bytes_per_token_per_layer / tp
        return RooflineTimes(
            compute=flops / self.device.fp16_flops,
            memory=(weight_bytes + kv_bytes) / self.device.hbm_bandwidth,
        )

    # -- MoE --------------------------------------------------------------------

    def moe_device_times(
        self,
        expert_loads: np.ndarray,
        placement,
    ) -> list[RooflineTimes]:
        """Per-device MoE times for one layer given expert token loads.

        A replicated expert's tokens split equally across its replicas
        (the Load/Num rule).  Each device streams the weights of every
        expert it activates once, then computes its token share.
        """
        compute, memory = self._moe_device_arrays(expert_loads, placement)
        return [
            RooflineTimes(compute=c, memory=m)
            for c, m in zip(compute.tolist(), memory.tolist())
        ]

    def _moe_device_arrays(
        self,
        expert_loads: np.ndarray,
        placement,
        device_scale: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """(compute, memory) per-device arrays via the replica matrix.

        ``device_scale`` (per-device slowdown multipliers, straggler
        injection) scales both components; an orphaned expert (zero
        replicas after a fail-stop, before repair) contributes nothing —
        its unavailability is charged by the repair path, not here.
        """
        loads = np.asarray(expert_loads, dtype=float)
        if loads.shape != (placement.num_experts,):
            raise ValueError(
                f"expected {placement.num_experts} expert loads, got {loads.shape}"
            )
        active = (loads > 0).astype(float)
        counts = placement.replica_counts
        shares = np.divide(
            active * loads, counts, out=np.zeros_like(loads), where=counts > 0
        )
        matrix = placement.replica_matrix
        device_tokens = shares @ matrix
        device_active = active @ matrix
        compute = device_tokens * self.model.expert_flops_per_token / self.device.int8_ops
        memory = device_active * self.model.expert_bytes / self.device.hbm_bandwidth
        if device_scale is not None:
            compute = compute * device_scale
            memory = memory * device_scale
        return compute, memory

    def moe_peak_time(
        self,
        expert_loads: np.ndarray,
        placement,
        device_scale: np.ndarray | None = None,
    ) -> RooflineTimes:
        """The slowest device's MoE roofline — the layer's critical path."""
        compute, memory = self._moe_device_arrays(
            expert_loads, placement, device_scale=device_scale
        )
        slowest = int(np.argmax(compute + memory))
        return RooflineTimes(
            compute=float(compute[slowest]), memory=float(memory[slowest])
        )

    def moe_peak_arrays(
        self,
        layer_loads: np.ndarray,
        placement: "StackedPlacement",
        device_scale: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-layer peak-device (compute, memory) arrays.

        The serving engine's batched MoE roofline: two sums over the
        stack's replica entries
        (:meth:`~repro.mapping.placement.StackedPlacement.device_sums`)
        build every layer's per-device token shares and active-expert
        counts, then an argmax along the device axis picks the peak.
        Each device sums its entries in entry order; with at most two
        experts per device that is the einsum over the dense replica
        tensor bit for bit, and within one rounding per extra term beyond.

        Args:
            layer_loads: ``(layers, experts)`` token loads.
            placement: the layer-stacked placement.
            device_scale: optional ``(devices,)`` slowdown multipliers
                (straggler injection) applied before the peak argmax.
        """
        loads = np.asarray(layer_loads, dtype=float)
        active = (loads > 0).astype(float)
        counts = placement.replica_counts
        shares = np.divide(
            active * loads, counts, out=np.zeros_like(loads), where=counts > 0
        )
        device_tokens = placement.device_sums(shares)
        device_active = placement.device_sums(active)
        compute = device_tokens * self.model.expert_flops_per_token / self.device.int8_ops
        memory = device_active * self.model.expert_bytes / self.device.hbm_bandwidth
        if device_scale is not None:
            compute = compute * device_scale
            memory = memory * device_scale
        peak = np.argmax(compute + memory, axis=1)
        rows = np.arange(peak.size)
        return compute[rows, peak], memory[rows, peak]
