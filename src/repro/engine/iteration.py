"""Per-iteration latency model with communication/computation overlap.

One sparse-layer iteration runs two phases (Fig. 11e):

* attention phase — attention compute overlapped with the TP all-reduce;
* MoE phase — expert compute overlapped with dispatch/combine all-to-all.

Micro-batch pipelining (the paper applies PipeMoE-style stage selection to
both platforms) hides the shorter of compute/communication behind the
longer, leaving ``max + min / stages`` per phase.
"""

from dataclasses import dataclass

import numpy as np

from repro.checks import check_count
from repro.engine.compute import ComputeModel, RooflineTimes
from repro.faults.health import health_version
from repro.hardware.device import DeviceSpec
from repro.mapping.base import Mapping
from repro.mapping.placement import StackedPlacement
from repro.models.configs import MoEModelConfig
from repro.network.allreduce import CollectiveResult
from repro.network.alltoall import AllToAllResult, simulate_alltoall


def pipelined_time(compute: float, communication: float, stages: int) -> float:
    """Overlapped phase duration with ``stages`` micro-batches."""
    if stages <= 0:
        raise ValueError(f"stages must be positive, got {stages}")
    longer = max(compute, communication)
    shorter = min(compute, communication)
    return longer + shorter / stages


@dataclass(frozen=True)
class EngineConfig:
    """Workload-shape and overlap knobs for the iteration model.

    Attributes:
        tokens_per_group: tokens each DP group contributes per iteration
            (the paper fixes 256 for communication studies).
        context_len: KV-cache length for decode attention.
        pipeline_stages: micro-batches for communication overlap.
        overlap: disable to expose communication serially (ablations).
        decode: decode vs prefill roofline behaviour.
    """

    tokens_per_group: int = 256
    context_len: int = 4096
    pipeline_stages: int = 4
    overlap: bool = True
    decode: bool = True

    def __post_init__(self) -> None:
        check_count("tokens_per_group", self.tokens_per_group, minimum=1)
        check_count("context_len", self.context_len, minimum=0)
        check_count("pipeline_stages", self.pipeline_stages, minimum=1)


@dataclass(slots=True)
class IterationBreakdown:
    """Latency components of one sparse layer's iteration."""

    attention: RooflineTimes
    allreduce: float
    dispatch: float
    combine: float
    moe: RooflineTimes
    migration_exposed: float = 0.0
    pipeline_stages: int = 4
    overlap: bool = True

    @property
    def alltoall(self) -> float:
        return self.dispatch + self.combine

    @property
    def attention_phase(self) -> float:
        if self.overlap:
            return pipelined_time(
                self.attention.total, self.allreduce, self.pipeline_stages
            )
        return self.attention.total + self.allreduce

    @property
    def moe_phase(self) -> float:
        if self.overlap:
            return pipelined_time(self.moe.total, self.alltoall, self.pipeline_stages)
        return self.moe.total + self.alltoall

    @property
    def total(self) -> float:
        return self.attention_phase + self.moe_phase + self.migration_exposed


@dataclass
class LayerSimulation:
    """Breakdown plus the raw collective results (for link heatmaps)."""

    breakdown: IterationBreakdown
    allreduce_result: CollectiveResult
    alltoall_result: AllToAllResult


class IterationSimulator:
    """Prices one MoE layer iteration under a mapping and placement."""

    def __init__(
        self,
        device: DeviceSpec,
        model: MoEModelConfig,
        mapping: Mapping,
        config: EngineConfig | None = None,
    ) -> None:
        self.device = device
        self.model = model
        self.mapping = mapping
        self.config = config or EngineConfig()
        self.compute = ComputeModel(device, model)
        #: (volume, health version) -> CollectiveResult.  The attention
        #: all-reduce depends only on (mapping, volume, fabric health) —
        #: never on gating counts or expert placement — and the mapping is
        #: fixed per simulator, so serving loops pay the ring simulation
        #: once instead of every iteration; link faults bump the health
        #: version and force a re-price over the degraded fabric.  The
        #: version only moves forward, so a lookup that sees a new one
        #: drops the superseded entries, which could never hit again.
        #: Treat cached results as frozen; don't mutate their link_bytes.
        self._allreduce_cache: dict[tuple[float, int], CollectiveResult] = {}
        self._allreduce_version = 0

    def allreduce_volume(self, tokens_per_group: int | None = None) -> float:
        """Bytes all-reduced per TP group: the group's token activations.

        ``tokens_per_group`` overrides the engine config's fixed batch for
        one call — the serving front end prices each iteration at the
        continuous-batching batch size actually in flight.
        """
        if tokens_per_group is None:
            tokens_per_group = self.config.tokens_per_group
        return tokens_per_group * self.model.token_bytes

    def simulate_allreduce(self, volume_per_group: float) -> CollectiveResult:
        """The mapping's all-reduce for this volume, cached per simulator."""
        version = health_version(self.mapping.topology)
        if version != self._allreduce_version:
            self._allreduce_cache.clear()
            self._allreduce_version = version
        key = (volume_per_group, version)
        result = self._allreduce_cache.get(key)
        if result is None:
            result = self.mapping.simulate_allreduce(volume_per_group)
            self._allreduce_cache[key] = result
        return result

    def attention_and_allreduce(
        self, tokens_per_group: int | None = None
    ) -> tuple[RooflineTimes, CollectiveResult]:
        """One layer's attention roofline and cached TP all-reduce, which
        every layer of an iteration shares; ``tokens_per_group`` as in
        :meth:`simulate_layer`."""
        config = self.config
        if tokens_per_group is None:
            tokens_per_group = config.tokens_per_group
        else:
            check_count("tokens_per_group", tokens_per_group, minimum=1)
        attention = self.compute.attention_time(
            tokens=tokens_per_group,
            context_len=config.context_len,
            tp=self.mapping.tp,
            decode=config.decode,
        )
        allreduce = self.simulate_allreduce(self.allreduce_volume(tokens_per_group))
        return attention, allreduce

    def simulate_layer(
        self,
        counts: np.ndarray,
        placement: StackedPlacement,
        migration_exposed: float = 0.0,
        device_scale: np.ndarray | None = None,
        tokens_per_group: int | None = None,
    ) -> LayerSimulation:
        """Simulate one sparse layer.

        The serving step prices every layer in one batch and does not call
        this.  It stays because perfbench's ``engine.layer0`` and
        ``network.alltoall_layer0`` spans hook this method and this
        module's ``simulate_alltoall`` global by name, and perfbench's
        tests fail when a hooked name is missing.  The per-layer pricing
        tests also use it as the one-layer oracle for the batched step.

        Args:
            counts: (groups, experts) token counts routed this iteration.
            placement: one-layer expert placement (with replicas), as
                ``System.fresh_placement`` builds.
            migration_exposed: invasive migration latency charged to this
                layer's critical path.
            device_scale: optional per-device compute slowdown multipliers
                (straggler injection) applied to the MoE roofline.
            tokens_per_group: per-group batch size for this iteration
                (attention tokens + all-reduce volume); ``None`` keeps the
                engine config's fixed batch, bit-identically.  The MoE and
                all-to-all sides already scale through ``counts``.
        """
        counts = np.asarray(counts, dtype=float)
        if counts.shape != (self.mapping.dp, self.model.num_experts):
            raise ValueError(
                f"counts shape {counts.shape} != "
                f"({self.mapping.dp}, {self.model.num_experts})"
            )
        attention, allreduce = self.attention_and_allreduce(tokens_per_group)

        demand = counts * self.model.token_bytes
        alltoall = simulate_alltoall(
            self.mapping.topology,
            demand,
            placement,
            self.mapping,
        )

        expert_loads = counts.sum(axis=0)
        moe = self.compute.moe_peak_time(
            expert_loads, placement, device_scale=device_scale
        )

        breakdown = IterationBreakdown(
            attention=attention,
            allreduce=allreduce.duration,
            dispatch=alltoall.dispatch.duration,
            combine=alltoall.combine.duration,
            moe=moe,
            migration_exposed=migration_exposed,
            pipeline_stages=self.config.pipeline_stages,
            overlap=self.config.overlap,
        )
        return LayerSimulation(
            breakdown=breakdown,
            allreduce_result=allreduce,
            alltoall_result=alltoall,
        )
