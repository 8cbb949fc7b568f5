"""Tests for the Table I model zoo."""

from dataclasses import replace

import pytest

from repro.models import (
    DBRX,
    DEEPSEEK_V2,
    DEEPSEEK_V3,
    MIXTRAL_8X22B,
    QWEN3_235B,
    MODEL_REGISTRY,
    MoEModelConfig,
    get_model,
    list_models,
)
from repro.models.configs import MB


class TestTableOne:
    """Every value in the paper's Table I."""

    @pytest.mark.parametrize(
        "model, size_b, sparse, total, expert_mb, active, experts",
        [
            (DEEPSEEK_V3, 671, 58, 61, 42, 8, 256),
            (QWEN3_235B, 235, 94, 94, 18, 8, 128),
            (DEEPSEEK_V2, 236, 59, 60, 23, 6, 160),
            (DBRX, 132, 40, 40, 189, 4, 16),
            (MIXTRAL_8X22B, 141, 56, 56, 288, 2, 8),
        ],
    )
    def test_parameters(self, model, size_b, sparse, total, expert_mb, active, experts):
        assert model.total_params_b == size_b
        assert model.num_sparse_layers == sparse
        assert model.num_layers == total
        assert model.expert_bytes == expert_mb * MB
        assert model.experts_per_token == active
        assert model.num_experts == experts

    def test_expert_size_consistent_with_ffn_dims(self):
        # Three hidden x intermediate INT8 matrices within 15% of Table I.
        for model in (DEEPSEEK_V3, QWEN3_235B, DEEPSEEK_V2, DBRX, MIXTRAL_8X22B):
            derived = 3 * model.hidden_size * model.moe_intermediate_size
            assert derived == pytest.approx(model.expert_bytes, rel=0.15)


class TestDerivedQuantities:
    def test_expert_flops_is_two_per_byte(self):
        assert DEEPSEEK_V3.expert_flops_per_token == 2.0 * DEEPSEEK_V3.expert_bytes

    def test_token_bytes_fp16(self):
        assert QWEN3_235B.token_bytes == 4096 * 2

    def test_kv_bytes_gqa(self):
        # Qwen3 has 4 KV heads of dim 128: 2 (K+V) * 4 * 128 * 2 bytes.
        assert QWEN3_235B.kv_bytes_per_token_per_layer == 2 * 4 * 128 * 2

    def test_attention_flops_positive(self):
        assert DEEPSEEK_V3.attention_flops_per_token > 0

    def test_score_flops_scale_with_context(self):
        assert QWEN3_235B.attention_score_flops(2048) == pytest.approx(
            2 * QWEN3_235B.attention_score_flops(1024)
        )

    def test_experts_per_device_ratio(self):
        assert DEEPSEEK_V3.experts_per_device(32) == pytest.approx(8.0)
        assert DEEPSEEK_V3.experts_per_device(256) == pytest.approx(1.0)

    def test_experts_per_device_rejects_zero(self):
        with pytest.raises(ValueError):
            DEEPSEEK_V3.experts_per_device(0)

    def test_expert_size_mb_roundtrip(self):
        assert DBRX.expert_size_mb == pytest.approx(189.0)


class TestValidation:
    def _base_kwargs(self):
        return dict(
            name="toy",
            total_params_b=1,
            num_layers=4,
            num_sparse_layers=2,
            hidden_size=64,
            moe_intermediate_size=128,
            num_experts=8,
            experts_per_token=2,
            expert_bytes=1024,
            num_attention_heads=4,
            num_kv_heads=2,
            head_dim=16,
        )

    def test_topk_cannot_exceed_experts(self):
        kwargs = self._base_kwargs()
        kwargs["experts_per_token"] = 9
        with pytest.raises(ValueError, match="top-k"):
            MoEModelConfig(**kwargs)

    def test_sparse_cannot_exceed_total_layers(self):
        kwargs = self._base_kwargs()
        kwargs["num_sparse_layers"] = 5
        with pytest.raises(ValueError, match="sparse"):
            MoEModelConfig(**kwargs)

    def test_rejects_nonpositive_dims(self):
        kwargs = self._base_kwargs()
        kwargs["hidden_size"] = 0
        with pytest.raises(ValueError, match="hidden_size"):
            MoEModelConfig(**kwargs)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize(
        "field",
        [
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
        ],
    )
    def test_rejects_non_finite(self, field, value):
        """NaN passes a ``<= 0`` check; both must fail naming the field."""
        with pytest.raises(ValueError, match=f"{field} must be positive and finite"):
            replace(QWEN3_235B, **{field: value})


class TestRegistry:
    def test_all_five_models_registered(self):
        assert len(MODEL_REGISTRY) == 5

    def test_list_models_in_table_order(self):
        assert list_models()[0] == "DeepSeek-V3"

    def test_lookup_case_insensitive(self):
        assert get_model("QWEN3-235B") is QWEN3_235B

    def test_aliases(self):
        assert get_model("qwen3") is QWEN3_235B
        assert get_model("mixtral") is MIXTRAL_8X22B
        assert get_model("ds-v3") is DEEPSEEK_V3

    def test_unknown_model_raises_with_names(self):
        with pytest.raises(KeyError, match="unknown model"):
            get_model("gpt-7")
