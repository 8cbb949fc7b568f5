"""TopologyHealth: the version contract the network caches key on."""

import numpy as np
import pytest

from allreduce_reference import degraded_bandwidth
from repro.faults import health_version, topology_health
from repro.network.phase import _route_cache
from repro.topology.mesh import MeshTopology


@pytest.fixture
def topology():
    return MeshTopology(4, 4)


class TestHealthRecord:
    def test_pristine_topology_has_no_record(self, topology):
        assert topology_health(topology) is None
        assert health_version(topology) == 0

    def test_create_attaches_once(self, topology):
        health = topology_health(topology, create=True)
        assert health is topology_health(topology)
        assert health is topology_health(topology, create=True)
        assert health_version(topology) == 1

    def test_every_mutation_bumps_version(self, topology):
        health = topology_health(topology, create=True)
        version = health.version
        health.fail_device(3)
        assert health.version == version + 1
        health.degrade_link(0, 1, 0.5)
        assert health.version == version + 2
        health.set_compute_factor(2, 2.0)
        assert health.version == version + 3
        # Restores are changes too — caches must notice recovery.
        health.restore_link(0, 1)
        assert health.version == version + 4
        health.clear_compute_factor(2)
        assert health.version == version + 5

    def test_idempotent_mutations_do_not_bump(self, topology):
        health = topology_health(topology, create=True)
        health.fail_device(3)
        health.degrade_link(0, 1, 0.5)
        version = health.version
        health.fail_device(3)
        health.degrade_link(0, 1, 0.5)
        health.restore_link(2, 3)  # was never degraded
        health.clear_compute_factor(9)  # was never set
        assert health.version == version

    def test_link_degradation_both_directions_min_compose(self, topology):
        health = topology_health(topology, create=True)
        health.degrade_link(0, 1, 0.5)
        assert health.degraded_links == {(0, 1): 0.5, (1, 0): 0.5}
        # Worse degradations win; better ones are ignored.
        health.degrade_link(0, 1, 0.25)
        assert health.degraded_links == {(0, 1): 0.25, (1, 0): 0.25}
        health.degrade_link(0, 1, 0.75)
        assert health.degraded_links == {(0, 1): 0.25, (1, 0): 0.25}

    def test_link_factors_none_when_pristine(self, topology):
        health = topology_health(topology, create=True)
        assert health.link_factors([(0, 1), (1, 0)]) is None
        health.degrade_link(0, 1, 0.5)
        factors = health.link_factors([(0, 1), (1, 2)])
        assert factors is not None
        np.testing.assert_array_equal(factors, [0.5, 1.0])

    def test_compute_factor_one_clears(self, topology):
        health = topology_health(topology, create=True)
        health.set_compute_factor(2, 2.0)
        assert health.compute_factor(2) == 2.0
        health.set_compute_factor(2, 1.0)
        assert health.compute_factor(2) == 1.0
        assert health.compute_factors == {}

    def test_record_not_inherited_across_instances(self):
        # topology_health identity-checks the record's owner so a record
        # left by a garbage-collected topology can never leak onto a new
        # instance that happens to reuse the attribute slot.
        a = MeshTopology(2, 2)
        health = topology_health(a, create=True)
        b = MeshTopology(2, 2)
        b._fault_health = health  # simulate stale aliasing
        assert topology_health(b) is None


class TestDegradedBandwidth:
    """The reference's per-link scalar equals the route cache's array."""

    @staticmethod
    def assert_matches_route_cache(topology):
        cache = _route_cache(topology)
        effective = cache.effective_bandwidth()
        for position, key in enumerate(cache.keys):
            assert degraded_bandwidth(topology, key) == effective[position]

    def test_pristine_reads_nominal(self, topology):
        key = next(iter(topology.links))
        assert degraded_bandwidth(topology, key) == topology.links[key].bandwidth
        self.assert_matches_route_cache(topology)

    def test_degraded_link_scales(self, topology):
        key = next(iter(topology.links))
        topology_health(topology, create=True).degrade_link(*key, 0.25)
        assert degraded_bandwidth(topology, key) == pytest.approx(
            0.25 * topology.links[key].bandwidth
        )
        self.assert_matches_route_cache(topology)


class TestEffectiveBandwidth:
    def test_pristine_returns_identical_array(self, topology):
        cache = _route_cache(topology)
        assert cache.effective_bandwidth() is cache.bandwidth
        # Even with a record attached but no link degraded, the pristine
        # array object is reused (link_factors returns None).
        topology_health(topology, create=True).fail_device(0)
        assert cache.effective_bandwidth() is cache.bandwidth

    def test_degradation_scales_only_the_degraded_link(self, topology):
        cache = _route_cache(topology)
        nominal = cache.bandwidth.copy()
        key = cache.keys[0]
        topology_health(topology, create=True).degrade_link(*key, 0.5)
        effective = cache.effective_bandwidth()
        assert effective is not cache.bandwidth
        assert effective[0] == pytest.approx(0.5 * nominal[0])
        reverse = cache.index[(key[1], key[0])]
        others = np.ones(len(nominal), dtype=bool)
        others[[0, reverse]] = False
        np.testing.assert_array_equal(effective[others], nominal[others])

    def test_restore_returns_to_nominal(self, topology):
        cache = _route_cache(topology)
        health = topology_health(topology, create=True)
        key = cache.keys[0]
        health.degrade_link(*key, 0.5)
        assert cache.effective_bandwidth() is not cache.bandwidth
        health.restore_link(*key)
        assert cache.effective_bandwidth() is cache.bandwidth

    def test_recomputes_only_on_version_change(self, topology):
        cache = _route_cache(topology)
        health = topology_health(topology, create=True)
        health.degrade_link(*cache.keys[0], 0.5)
        first = cache.effective_bandwidth()
        assert cache.effective_bandwidth() is first
        health.degrade_link(*cache.keys[2], 0.25)
        second = cache.effective_bandwidth()
        assert second is not first

    def test_version_bump_invalidates_after_restore_cycle(self, topology):
        # Full cycle: degrade → recompute, idempotent re-degrade → cached,
        # restore → pristine array again, re-degrade → fresh recompute.
        # Each hand-out tracks health.version exactly.
        cache = _route_cache(topology)
        health = topology_health(topology, create=True)
        key = cache.keys[1]
        health.degrade_link(*key, 0.5)
        degraded = cache.effective_bandwidth()
        health.degrade_link(*key, 0.5)  # idempotent: version unchanged
        assert cache.effective_bandwidth() is degraded
        health.restore_link(*key)
        assert cache.effective_bandwidth() is cache.bandwidth
        health.degrade_link(*key, 0.25)
        recomputed = cache.effective_bandwidth()
        assert recomputed is not degraded
        assert recomputed[1] == pytest.approx(0.25 * cache.bandwidth[1])

    def test_cached_bandwidth_arrays_are_sanitizer_frozen(self, topology):
        # Both the nominal and the degraded arrays are cache-resident and
        # handed to every caller — under REPRO_SANITIZE they are read-only.
        cache = _route_cache(topology)
        with pytest.raises(ValueError):
            cache.bandwidth[0] = 1e9
        health = topology_health(topology, create=True)
        health.degrade_link(*cache.keys[0], 0.5)
        effective = cache.effective_bandwidth()
        with pytest.raises(ValueError):
            effective[0] = 1e9
