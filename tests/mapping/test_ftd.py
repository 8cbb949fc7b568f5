"""Tests for FTD geometry analysis (paper Sec. IV-A numbers)."""

from dataclasses import fields

import pytest

from holder_reference import analysis_holders
from repro.mapping.base import MeshMapping, ParallelismConfig
from repro.mapping.baseline import BaselineMapping
from repro.mapping.er import ERMapping
from repro.mapping.ftd import analyze_ftds, ftd_holder_table
from repro.mapping.her import HierarchicalERMapping
from repro.topology.mesh import MeshTopology, MultiWaferTopology


@pytest.fixture
def mesh():
    return MeshTopology(4, 4)


@pytest.fixture
def parallelism():
    return ParallelismConfig(tp=4, dp=4, tp_shape=(2, 2))


class TestPaperNumbers:
    def test_er_expected_hops_matches_paper(self, mesh, parallelism):
        """The paper's 2x2 FTD average: 1.3 hops."""
        analysis = analyze_ftds(ERMapping(mesh, parallelism))
        assert analysis.expected_hops == pytest.approx(4 / 3, abs=0.01)

    def test_baseline_hops_exceed_er(self, mesh, parallelism):
        baseline = analyze_ftds(BaselineMapping(mesh, parallelism))
        er = analyze_ftds(ERMapping(mesh, parallelism))
        assert baseline.expected_hops > 1.4 * er.expected_hops

    def test_er_eliminates_intersections(self, mesh, parallelism):
        analysis = analyze_ftds(ERMapping(mesh, parallelism))
        assert analysis.overlap_degree == 0.0
        assert analysis.intersecting_pairs == 0

    def test_baseline_has_central_overlap(self, mesh, parallelism):
        analysis = analyze_ftds(BaselineMapping(mesh, parallelism))
        assert analysis.overlap_degree > 0.0
        assert analysis.intersecting_pairs > 0

    def test_er_regions_tile_the_mesh(self, mesh, parallelism):
        analysis = analyze_ftds(ERMapping(mesh, parallelism))
        assert analysis.num_regions == 4
        assert analysis.mean_area == pytest.approx(4.0)

    def test_baseline_regions_larger(self, mesh, parallelism):
        baseline = analyze_ftds(BaselineMapping(mesh, parallelism))
        er = analyze_ftds(ERMapping(mesh, parallelism))
        assert baseline.mean_area > er.mean_area


class TestOtherScales:
    @pytest.mark.parametrize("side, tp_shape", [(6, (2, 2)), (8, (2, 4)), (8, (4, 4))])
    def test_er_always_beats_baseline(self, side, tp_shape):
        mesh = MeshTopology(side, side)
        tp = tp_shape[0] * tp_shape[1]
        parallelism = ParallelismConfig(tp=tp, dp=side * side // tp, tp_shape=tp_shape)
        baseline = analyze_ftds(BaselineMapping(mesh, parallelism))
        er = analyze_ftds(ERMapping(mesh, parallelism))
        assert er.expected_hops < baseline.expected_hops
        assert er.overlap_degree <= baseline.overlap_degree
        assert er.intersecting_pairs == 0


class _InterleavedMapping(MeshMapping):
    """Alternate devices of a 1x4 row as the two groups, and no FTDs: a
    fetcher between two members of a group is equally near both."""

    def _build_tp_groups(self):
        return [[0, 2], [1, 3]]


class TestNearestHolders:
    def test_ties_split_the_fetch(self):
        mapping = _InterleavedMapping(
            MeshTopology(1, 4), ParallelismConfig(tp=2, dp=2, tp_shape=(1, 2))
        )
        table = ftd_holder_table(mapping)
        assert table.entries(0, 1) == ((0, 0.5), (2, 0.5))
        assert table.entries(0, 3) == ((2, 1.0),)
        assert table.entries(1, 0) == ((1, 1.0),)
        for group in range(mapping.dp):
            for dest in mapping.topology.devices:
                assert list(table.entries(group, dest)) == analysis_holders(
                    mapping, group, dest
                )


#: (mapping class, topology factory, tp, tp_shape, every ``FTDAnalysis``
#: field): floats as ``float.hex``.  A moved pin means the analysis moved:
#: do not re-capture it to make a refactor pass.
PINNED_ANALYSES = {
    "baseline_4x4_tp4": (
        BaselineMapping, lambda: MeshTopology(4, 4), 4, (2, 2),
        {
            "mean_area": "0x1.9000000000000p+2",
            "expected_hops": "0x1.0000000000000p+1",
            "overlap_degree": "0x1.8000000000000p+1",
            "num_regions": 9,
            "intersecting_pairs": 36,
        },
    ),
    "er_4x4_tp4": (
        ERMapping, lambda: MeshTopology(4, 4), 4, (2, 2),
        {
            "mean_area": "0x1.0000000000000p+2",
            "expected_hops": "0x1.5555555555555p+0",
            "overlap_degree": "0x0.0p+0",
            "num_regions": 4,
            "intersecting_pairs": 0,
        },
    ),
    "baseline_8x8_tp4": (
        BaselineMapping, lambda: MeshTopology(8, 8), 4, (2, 2),
        {
            "mean_area": "0x1.3880000000000p+5",
            "expected_hops": "0x1.2222222222222p+2",
            "overlap_degree": "0x1.5000000000000p+2",
            "num_regions": 9,
            "intersecting_pairs": 36,
        },
    ),
    "er_8x8_tp4": (
        ERMapping, lambda: MeshTopology(8, 8), 4, (2, 2),
        {
            "mean_area": "0x1.0000000000000p+4",
            "expected_hops": "0x1.5555555555555p+1",
            "overlap_degree": "0x0.0p+0",
            "num_regions": 4,
            "intersecting_pairs": 0,
        },
    ),
    "baseline_8x8_tp16": (
        BaselineMapping, lambda: MeshTopology(8, 8), 16, (4, 4),
        {
            "mean_area": "0x1.8800000000000p+3",
            "expected_hops": "0x1.aaaaaaaaaaaabp+1",
            "overlap_degree": "0x1.3200000000000p+3",
            "num_regions": 49,
            "intersecting_pairs": 1176,
        },
    ),
    "er_8x8_tp16": (
        ERMapping, lambda: MeshTopology(8, 8), 16, (4, 4),
        {
            "mean_area": "0x1.0000000000000p+2",
            "expected_hops": "0x1.5555555555555p+0",
            "overlap_degree": "0x0.0p+0",
            "num_regions": 16,
            "intersecting_pairs": 0,
        },
    ),
    "her_2x4x4_tp4": (
        HierarchicalERMapping, lambda: MultiWaferTopology(2, 4, 4), 4, (2, 2),
        {
            "mean_area": "0x1.0000000000000p+4",
            "expected_hops": "0x1.4924924924925p+1",
            "overlap_degree": "0x0.0p+0",
            "num_regions": 2,
            "intersecting_pairs": 0,
        },
    ),
    "baseline_2x4x4_tp4": (
        BaselineMapping, lambda: MultiWaferTopology(2, 4, 4), 4, (2, 2),
        {
            "mean_area": "0x1.f400000000000p+3",
            "expected_hops": "0x1.a492492492492p+1",
            "overlap_degree": "0x1.0000000000000p+2",
            "num_regions": 9,
            "intersecting_pairs": 36,
        },
    ),
}


@pytest.mark.parametrize("name", list(PINNED_ANALYSES))
def test_analysis_pinned(name):
    mapping_cls, topology, tp, tp_shape, expected = PINNED_ANALYSES[name]
    mesh = topology()
    analysis = analyze_ftds(
        mapping_cls(
            mesh, ParallelismConfig(tp=tp, dp=mesh.num_devices // tp, tp_shape=tp_shape)
        )
    )
    got = {field.name: getattr(analysis, field.name) for field in fields(analysis)}
    assert {
        key: value.hex() if isinstance(value, float) else value
        for key, value in got.items()
    } == expected
