"""Property-based tests for mapping invariants."""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.mapping.base import ParallelismConfig
from repro.mapping.baseline import BaselineMapping
from repro.mapping.er import ERMapping
from repro.topology.mesh import MeshTopology


@st.composite
def er_configuration(draw):
    side = draw(st.sampled_from([2, 4, 6, 8]))
    divisors = [d for d in (1, 2, 3, 4, 6, 8) if side % d == 0]
    tpx = draw(st.sampled_from(divisors))
    tpy = draw(st.sampled_from(divisors))
    assume(tpx * tpy < side * side)
    return side, (tpx, tpy)


class TestERInvariants:
    @given(er_configuration())
    @settings(max_examples=60, deadline=None)
    def test_groups_partition_and_ftds_cover(self, config):
        side, tp_shape = config
        tp = tp_shape[0] * tp_shape[1]
        mesh = MeshTopology(side, side)
        mapping = ERMapping(
            mesh, ParallelismConfig(tp=tp, dp=side * side // tp, tp_shape=tp_shape)
        )
        group_members = set()
        for group in mapping.tp_groups:
            assert len(group) == tp
            group_members.update(group)
        assert group_members == set(mesh.devices)

        ftd_members = set()
        for ftd in mapping.ftds:
            ftd_members.update(ftd)
            groups_present = sorted(mapping.tp_group_of(d) for d in ftd)
            assert groups_present == list(range(mapping.dp))
        assert ftd_members == set(mesh.devices)

    @given(er_configuration())
    @settings(max_examples=40, deadline=None)
    def test_holder_fractions_normalised(self, config):
        side, tp_shape = config
        tp = tp_shape[0] * tp_shape[1]
        mesh = MeshTopology(side, side)
        mapping = ERMapping(
            mesh, ParallelismConfig(tp=tp, dp=side * side // tp, tp_shape=tp_shape)
        )
        table = mapping.token_holder_table()
        for dest in list(mesh.devices)[:: max(1, mesh.num_devices // 6)]:
            for group in range(0, mapping.dp, max(1, mapping.dp // 6)):
                total = sum(fraction for _, fraction in table.entries(group, dest))
                assert abs(total - 1.0) < 1e-9

    @given(er_configuration())
    @settings(max_examples=40, deadline=None)
    def test_er_never_slower_allreduce_than_twice_baseline(self, config):
        """Entwined rings cost at most stride x baseline per Eq. 1."""
        side, tp_shape = config
        tp = tp_shape[0] * tp_shape[1]
        mesh = MeshTopology(side, side)
        parallelism = ParallelismConfig(tp=tp, dp=side * side // tp, tp_shape=tp_shape)
        er = ERMapping(mesh, parallelism)
        baseline = BaselineMapping(mesh, parallelism)
        volume = 1e6
        er_time = er.simulate_allreduce(volume).duration
        base_time = baseline.simulate_allreduce(volume).duration
        max_stride = max(side // tp_shape[0], side // tp_shape[1])
        # Sanity bound: the closing snake edge can stretch a ring hop, so
        # allow a factor-two slack over the ideal stride multiple.
        assert er_time <= 2 * max_stride * base_time * (1 + 1e-9) + 1e-12
