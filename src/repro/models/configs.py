"""MoE model configurations (paper Table I).

Expert byte sizes are authoritative from Table I (INT8, so one byte per
parameter).  Hidden/intermediate dimensions are taken from the public model
cards and are consistent with those byte sizes via the standard gated-FFN
layout of three ``hidden x intermediate`` projection matrices.
"""

import math
from dataclasses import dataclass

MB = 2**20
FP16_BYTES = 2


@dataclass(frozen=True)
class MoEModelConfig:
    """Architecture parameters of an MoE LLM relevant to the simulation.

    Attributes:
        name: model identifier.
        total_params_b: total parameter count in billions (Table I "Size").
        num_layers: total transformer layers.
        num_sparse_layers: layers whose FFN is an MoE layer.
        hidden_size: model (token embedding) dimension.
        moe_intermediate_size: per-expert FFN intermediate dimension.
        num_experts: routed experts per MoE layer.
        experts_per_token: top-k activated experts per token.
        expert_bytes: INT8 weight bytes of a single expert (Table I).
        num_attention_heads: query heads.
        num_kv_heads: key/value heads (GQA).
        head_dim: per-head dimension.
    """

    name: str
    total_params_b: float
    num_layers: int
    num_sparse_layers: int
    hidden_size: int
    moe_intermediate_size: int
    num_experts: int
    experts_per_token: int
    expert_bytes: int
    num_attention_heads: int
    num_kv_heads: int
    head_dim: int

    def __post_init__(self) -> None:
        for field in (
            "total_params_b",
            "num_layers",
            "num_sparse_layers",
            "hidden_size",
            "moe_intermediate_size",
            "num_experts",
            "experts_per_token",
            "expert_bytes",
            "num_attention_heads",
            "num_kv_heads",
            "head_dim",
        ):
            value = getattr(self, field)
            if not 0 < value < math.inf:
                raise ValueError(f"{self.name}: {field} must be positive and finite, got {value}")
        if self.experts_per_token > self.num_experts:
            raise ValueError(
                f"{self.name}: top-k {self.experts_per_token} exceeds "
                f"expert count {self.num_experts}"
            )
        if self.num_sparse_layers > self.num_layers:
            raise ValueError(
                f"{self.name}: sparse layers {self.num_sparse_layers} exceed "
                f"total layers {self.num_layers}"
            )

    # -- derived quantities ---------------------------------------------------

    @property
    def expert_flops_per_token(self) -> float:
        """FLOPs for one token through one expert.

        A gated FFN multiplies by three ``hidden x intermediate`` matrices;
        with INT8 weights (1 byte/param) that is 2 ops per stored byte.
        """
        return 2.0 * self.expert_bytes

    @property
    def token_bytes(self) -> int:
        """Bytes of one token's hidden activation on the wire (FP16)."""
        return self.hidden_size * FP16_BYTES

    @property
    def kv_bytes_per_token_per_layer(self) -> int:
        """FP16 KV-cache bytes appended per token per layer."""
        return 2 * self.num_kv_heads * self.head_dim * FP16_BYTES

    @property
    def attention_flops_per_token(self) -> float:
        """Projection FLOPs per token per layer (QKVO), excluding scores."""
        q_out = self.num_attention_heads * self.head_dim
        kv_out = 2 * self.num_kv_heads * self.head_dim
        return 2.0 * self.hidden_size * (2 * q_out + kv_out)

    def attention_score_flops(self, context_len: int) -> float:
        """Score + value FLOPs per decoded token against a context."""
        return 4.0 * self.num_attention_heads * self.head_dim * context_len

    @property
    def expert_size_mb(self) -> float:
        return self.expert_bytes / MB

    def experts_per_device(self, num_devices: int) -> float:
        """The paper's E/D ratio for a given cluster size."""
        if num_devices <= 0:
            raise ValueError(f"num_devices must be positive, got {num_devices}")
        return self.num_experts / num_devices


DEEPSEEK_V3 = MoEModelConfig(
    name="DeepSeek-V3",
    total_params_b=671,
    num_layers=61,
    num_sparse_layers=58,
    hidden_size=7168,
    moe_intermediate_size=2048,
    num_experts=256,
    experts_per_token=8,
    expert_bytes=42 * MB,
    num_attention_heads=128,
    num_kv_heads=128,
    head_dim=128,
)

QWEN3_235B = MoEModelConfig(
    name="Qwen3-235B",
    total_params_b=235,
    num_layers=94,
    num_sparse_layers=94,
    hidden_size=4096,
    moe_intermediate_size=1536,
    num_experts=128,
    experts_per_token=8,
    expert_bytes=18 * MB,
    num_attention_heads=64,
    num_kv_heads=4,
    head_dim=128,
)

DEEPSEEK_V2 = MoEModelConfig(
    name="DeepSeek-V2",
    total_params_b=236,
    num_layers=60,
    num_sparse_layers=59,
    hidden_size=5120,
    moe_intermediate_size=1536,
    num_experts=160,
    experts_per_token=6,
    expert_bytes=23 * MB,
    num_attention_heads=128,
    num_kv_heads=128,
    head_dim=128,
)

DBRX = MoEModelConfig(
    name="DBRX",
    total_params_b=132,
    num_layers=40,
    num_sparse_layers=40,
    hidden_size=6144,
    moe_intermediate_size=10752,
    num_experts=16,
    experts_per_token=4,
    expert_bytes=189 * MB,
    num_attention_heads=48,
    num_kv_heads=8,
    head_dim=128,
)

MIXTRAL_8X22B = MoEModelConfig(
    name="Mixtral-8x22B",
    total_params_b=141,
    num_layers=56,
    num_sparse_layers=56,
    hidden_size=6144,
    moe_intermediate_size=16384,
    num_experts=8,
    experts_per_token=2,
    expert_bytes=288 * MB,
    num_attention_heads=48,
    num_kv_heads=8,
    head_dim=128,
)
