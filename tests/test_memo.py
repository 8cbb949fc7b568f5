"""repro.memo.instance_memo: per-instance lifetime, no class-level pinning."""

import gc
import weakref
from dataclasses import dataclass

import numpy as np

from repro import sanitize
from repro.memo import instance_memo


class Counter:
    def __init__(self) -> None:
        self.calls = 0

    @instance_memo("_square_memo")
    def square(self, x):
        self.calls += 1
        return x * x

    @instance_memo("_none_memo")
    def nothing(self):
        self.calls += 1
        return None


class TestMemoization:
    def test_second_call_is_served_from_memo(self):
        counter = Counter()
        assert counter.square(3) == 9
        assert counter.square(3) == 9
        assert counter.calls == 1

    def test_distinct_arguments_compute_separately(self):
        counter = Counter()
        assert counter.square(3) == 9
        assert counter.square(4) == 16
        assert counter.calls == 2

    def test_none_results_are_memoized(self):
        counter = Counter()
        assert counter.nothing() is None
        assert counter.nothing() is None
        assert counter.calls == 1

    def test_memo_is_per_instance(self):
        a, b = Counter(), Counter()
        a.square(3)
        b.square(3)
        assert a.calls == 1 and b.calls == 1
        assert a._square_memo is not b._square_memo


class TestLifetime:
    """The reason instance_memo exists: no class-level cache may pin
    instances alive (the retired-mapping leak an lru_cache caused)."""

    def test_instance_is_collectable_after_memoized_calls(self):
        counter = Counter()
        counter.square(3)
        counter.square(4)
        ref = weakref.ref(counter)
        del counter
        gc.collect()
        assert ref() is None

    def test_memoized_values_die_with_the_instance(self):
        class Probe:
            pass

        counter = Counter()
        counter.square(3)
        probe = Probe()
        counter._square_memo[("probe",)] = probe
        probe_ref = weakref.ref(probe)
        del probe, counter
        gc.collect()
        assert probe_ref() is None


class TestFrozenDataclasses:
    def test_memo_attaches_to_frozen_dataclass(self):
        @dataclass(frozen=True)
        class Profile:
            seed: int

            @instance_memo("_memo")
            def derived(self, n):
                return np.arange(n) + self.seed

        profile = Profile(seed=5)
        first = profile.derived(4)
        assert profile.derived(4) is first
        np.testing.assert_array_equal(first, [5, 6, 7, 8])


class TestSanitizeIntegration:
    def test_memoized_arrays_are_frozen_when_enabled(self):
        assert sanitize.enabled()  # suite conftest turns it on

        class Maker:
            @instance_memo("_memo")
            def make(self, n):
                return np.zeros(n)

        array = Maker().make(3)
        assert not array.flags.writeable

    def test_memoized_arrays_stay_writable_when_disabled(self):
        was_enabled = sanitize.enabled()
        sanitize.disable()
        try:

            class Maker:
                @instance_memo("_memo")
                def make(self, n):
                    return np.zeros(n)

            array = Maker().make(3)
            assert array.flags.writeable
        finally:
            if was_enabled:
                sanitize.enable()
