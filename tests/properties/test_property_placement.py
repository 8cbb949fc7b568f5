"""Stateful property tests for expert placement invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from placement_reference import ExpertPlacement

from repro.analysis.load import device_token_loads
from repro.mapping.placement import StackedPlacement


@st.composite
def placement_and_ops(draw):
    num_experts = draw(st.integers(2, 32))
    num_devices = draw(st.integers(2, 16))
    shadow = draw(st.integers(0, 3))
    ops = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["add", "drop"]),
                st.integers(0, num_experts - 1),
                st.integers(0, num_devices - 1),
            ),
            max_size=40,
        )
    )
    return num_experts, num_devices, shadow, ops


def apply_ops(placement, ops):
    """Apply ``ops`` to a reference placement or to a one-layer stack."""
    layer = (0,) if isinstance(placement, StackedPlacement) else ()
    for op, expert, device in ops:
        try:
            if op == "add":
                placement.add_replica(*layer, expert, device)
            else:
                placement.drop_replica(*layer, expert, device)
        except ValueError:
            pass  # invalid ops must raise, never corrupt state


class TestPlacementInvariants:
    @given(placement_and_ops())
    @settings(max_examples=120, deadline=None)
    def test_replicas_and_shadows_consistent(self, case):
        num_experts, num_devices, shadow, ops = case
        placement = ExpertPlacement(num_experts, num_devices, shadow_slots=shadow)
        apply_ops(placement, ops)

        for expert in range(num_experts):
            replicas = placement.replicas(expert)
            # Native device always present, exactly once each.
            assert placement.native_device(expert) in replicas
            assert len(set(replicas)) == len(replicas)
            for device in replicas:
                assert expert in placement.experts_on(device)

        for device in range(num_devices):
            assert 0 <= placement.shadow_free(device) <= shadow

    @given(placement_and_ops())
    @settings(max_examples=80, deadline=None)
    def test_load_conservation(self, case):
        """Replication redistributes tokens but never creates or loses any."""
        num_experts, num_devices, shadow, ops = case
        placement = StackedPlacement(1, num_experts, num_devices, shadow_slots=shadow)
        apply_ops(placement, ops)
        loads = np.arange(1, num_experts + 1, dtype=float)
        device_loads = device_token_loads(loads[None], placement)
        assert device_loads.sum() == np.float64(loads.sum()) or abs(
            device_loads.sum() - loads.sum()
        ) < 1e-9 * loads.sum()

    @given(placement_and_ops())
    @settings(max_examples=60, deadline=None)
    def test_reset_restores_native(self, case):
        num_experts, num_devices, shadow, ops = case
        placement = ExpertPlacement(num_experts, num_devices, shadow_slots=shadow)
        apply_ops(placement, ops)
        placement.reset_shadows()
        for expert in range(num_experts):
            assert placement.replicas(expert) == [placement.native_device(expert)]

    @given(placement_and_ops())
    @settings(max_examples=60, deadline=None)
    def test_destination_shares_normalised(self, case):
        num_experts, num_devices, shadow, ops = case
        placement = ExpertPlacement(num_experts, num_devices, shadow_slots=shadow)
        apply_ops(placement, ops)
        for expert in range(num_experts):
            shares = [share for _, share in placement.destinations(expert)]
            assert abs(sum(shares) - 1.0) < 1e-9
