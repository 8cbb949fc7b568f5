"""The grouped ServingConfig: a frozen top-level config over a frozen
balancing sub-config, each validated at construction."""

from dataclasses import FrozenInstanceError, replace

import pytest

from repro.engine import BalancingConfig, ServingConfig


class TestGroupedConstruction:
    def test_defaults_match_sub_config_defaults(self):
        config = ServingConfig()
        assert config.num_iterations == 150
        assert config.balancing == BalancingConfig()

    def test_grouped_kwargs(self):
        config = ServingConfig(
            num_iterations=7,
            balancing=BalancingConfig(alpha=0.25, shadow_slots=3),
        )
        assert config.balancing.alpha == 0.25
        assert config.balancing.shadow_slots == 3

    def test_replace_works_on_grouped_fields(self):
        config = ServingConfig(num_iterations=9)
        bumped = replace(config, num_iterations=11)
        assert bumped.num_iterations == 11
        assert bumped.balancing == config.balancing
        rebal = replace(config, balancing=BalancingConfig(alpha=0.1))
        assert rebal.balancing.alpha == 0.1

    def test_equality_and_hashability(self):
        assert ServingConfig() == ServingConfig()
        # Frozen all the way down: usable as a dict/set key.
        assert ServingConfig() in {ServingConfig()}
        assert ServingConfig(num_iterations=2) != ServingConfig()

    def test_fields_are_read_only(self):
        config = ServingConfig()
        with pytest.raises(FrozenInstanceError):
            config.num_iterations = 3
        with pytest.raises(FrozenInstanceError):
            config.balancing.alpha = 0.9

    def test_flat_kwargs_rejected(self):
        """Settings live on the sub-config that owns them."""
        with pytest.raises(TypeError):
            ServingConfig(alpha=0.5)
