"""FaultSchedule: validation, deterministic ordering, scenario constructors."""

import math

import numpy as np
import pytest

from repro.faults import DeviceFailure, FaultSchedule, LinkDegradation, Straggler

#: (event class, fields, the invalid field).  A fractional iteration
#: never fires, a NaN or infinite duration never expires, and a NaN factor
#: counts as active while slowing nothing.
INVALID_FIELDS = [
    (DeviceFailure, dict(iteration=2.5, device=3), "iteration"),
    (DeviceFailure, dict(iteration=2, device=3.0), "device"),
    (LinkDegradation, dict(iteration=1.0, src=0, dst=1, factor=0.5), "iteration"),
    (LinkDegradation, dict(iteration=1, src=0.0, dst=1, factor=0.5), "src"),
    (LinkDegradation, dict(iteration=1, src=0, dst=1.5, factor=0.5), "dst"),
    (LinkDegradation, dict(iteration=1, src=0, dst=1, factor=0.5, duration=2.5), "duration"),
    (LinkDegradation, dict(iteration=1, src=0, dst=1, factor=math.nan), "factor"),
    (Straggler, dict(iteration=2.0, device=3, factor=2.0, duration=4), "iteration"),
    (Straggler, dict(iteration=2, device=np.float64(3), factor=2.0, duration=4), "device"),
    (Straggler, dict(iteration=2, device=3, factor=2.0, duration=math.nan), "duration"),
    (Straggler, dict(iteration=2, device=3, factor=2.0, duration=math.inf), "duration"),
    (Straggler, dict(iteration=2, device=3, factor=math.nan, duration=4), "factor"),
    (Straggler, dict(iteration=2, device=3, factor=math.inf, duration=4), "factor"),
]


class TestEventValidation:
    def test_negative_iteration_rejected(self):
        with pytest.raises(ValueError):
            DeviceFailure(iteration=-1, device=0)
        with pytest.raises(ValueError):
            LinkDegradation(iteration=-1, src=0, dst=1, factor=0.5)
        with pytest.raises(ValueError):
            Straggler(iteration=-1, device=0, factor=2.0, duration=5)

    def test_link_factor_bounds(self):
        with pytest.raises(ValueError):
            LinkDegradation(iteration=0, src=0, dst=1, factor=0.0)
        with pytest.raises(ValueError):
            LinkDegradation(iteration=0, src=0, dst=1, factor=1.5)
        LinkDegradation(iteration=0, src=0, dst=1, factor=1.0)

    def test_link_duration_positive_or_none(self):
        with pytest.raises(ValueError):
            LinkDegradation(iteration=0, src=0, dst=1, factor=0.5, duration=0)
        assert LinkDegradation(0, 0, 1, 0.5, duration=None).duration is None

    def test_straggler_is_a_slowdown(self):
        with pytest.raises(ValueError):
            Straggler(iteration=0, device=0, factor=0.5, duration=5)
        with pytest.raises(ValueError):
            Straggler(iteration=0, device=0, factor=2.0, duration=0)

    @pytest.mark.parametrize(
        "event_cls, fields, invalid",
        INVALID_FIELDS,
        ids=[f"{cls.__name__}-{fields[name]}-{name}" for cls, fields, name in INVALID_FIELDS],
    )
    def test_invalid_field_is_named(self, event_cls, fields, invalid):
        with pytest.raises(ValueError, match=rf"^{invalid} "):
            event_cls(**fields)

    def test_numpy_integers_are_legal(self):
        index = np.int64
        assert DeviceFailure(iteration=index(2), device=np.int32(3)).device == 3
        link = LinkDegradation(index(1), index(0), index(1), np.float64(0.5), index(3))
        assert link.duration == 3
        straggler = Straggler(index(2), index(3), np.float64(2.0), index(4))
        assert straggler.factor == 2.0

    def test_link_loss_is_heavy_degradation(self):
        loss = LinkDegradation.link_loss(iteration=3, src=0, dst=1)
        assert loss.factor == pytest.approx(1e-3)
        assert loss.duration is None

    def test_restore_bandwidth_positive(self):
        with pytest.raises(ValueError):
            FaultSchedule([], restore_bandwidth=0.0)


class TestScheduleOrdering:
    def test_events_sorted_failures_first(self):
        schedule = FaultSchedule(
            [
                Straggler(iteration=5, device=2, factor=2.0, duration=3),
                LinkDegradation(iteration=5, src=0, dst=1, factor=0.5),
                DeviceFailure(iteration=5, device=7),
                DeviceFailure(iteration=2, device=1),
            ]
        )
        kinds = [type(e) for e in schedule.events]
        assert kinds == [DeviceFailure, DeviceFailure, LinkDegradation, Straggler]
        assert schedule.first_iteration == 2
        assert len(schedule.events_at(5)) == 3
        assert schedule.events_at(9) == ()

    def test_empty_schedule_is_falsy(self):
        assert not FaultSchedule([])
        assert FaultSchedule([]).first_iteration is None
        assert FaultSchedule([DeviceFailure(0, 0)])

    def test_device_failures_filter(self):
        schedule = FaultSchedule(
            [
                DeviceFailure(iteration=1, device=0),
                Straggler(iteration=1, device=1, factor=2.0, duration=2),
            ]
        )
        assert len(schedule.device_failures()) == 1


class TestConstructors:
    def test_single_failure(self):
        schedule = FaultSchedule.single_failure(iteration=30, device=5)
        assert schedule.events == (DeviceFailure(iteration=30, device=5),)

    def test_correlated_failures_must_be_distinct(self):
        with pytest.raises(ValueError, match="distinct"):
            FaultSchedule.correlated_failures(10, [1, 2, 2])
        schedule = FaultSchedule.correlated_failures(10, [3, 1, 2])
        assert [e.device for e in schedule.events] == [1, 2, 3]
        assert all(e.iteration == 10 for e in schedule.events)

    def test_rolling_stragglers_deterministic(self):
        a = FaultSchedule.rolling_stragglers(
            start=10, count=6, period=8, duration=4, factor=2.0,
            num_devices=16, seed=42,
        )
        b = FaultSchedule.rolling_stragglers(
            start=10, count=6, period=8, duration=4, factor=2.0,
            num_devices=16, seed=42,
        )
        assert a.events == b.events
        c = FaultSchedule.rolling_stragglers(
            start=10, count=6, period=8, duration=4, factor=2.0,
            num_devices=16, seed=43,
        )
        assert a.events != c.events

    def test_rolling_stragglers_no_immediate_repeat(self):
        for seed in range(20):
            schedule = FaultSchedule.rolling_stragglers(
                start=0, count=12, period=2, duration=1, factor=1.5,
                num_devices=2, seed=seed,
            )
            devices = [e.device for e in schedule.events]
            assert all(a != b for a, b in zip(devices, devices[1:]))

    def test_rolling_stragglers_cadence(self):
        schedule = FaultSchedule.rolling_stragglers(
            start=5, count=4, period=10, duration=3, factor=3.0,
            num_devices=8, seed=0,
        )
        assert [e.iteration for e in schedule.events] == [5, 15, 25, 35]

    def test_rolling_stragglers_validation(self):
        with pytest.raises(ValueError):
            FaultSchedule.rolling_stragglers(0, 0, 1, 1, 2.0, 8, 0)
        with pytest.raises(ValueError):
            FaultSchedule.rolling_stragglers(0, 1, 1, 1, 2.0, 1, 0)
