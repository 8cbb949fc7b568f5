"""Span recording, self-time arithmetic and hook installation."""

from contextlib import ExitStack
from types import SimpleNamespace

import pytest

import repro.engine.serving as serving_module
from perfbench import tracing


class FakeClock:
    """Advances one tick per reading, so every span's bounds are known."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_self_time_subtracts_direct_children_only():
    recorder = tracing.Recorder(clock=FakeClock())
    leaf = recorder.wrap("leaf", lambda: None)
    inner = recorder.wrap("inner", lambda: leaf())
    outer = recorder.wrap("outer", lambda: (inner(), inner()))
    outer()
    # Ticks: outer 1..10, inner 2..5 and 6..9, leaf 3..4 and 7..8.
    assert list(recorder.start) == [1, 2, 3, 6, 7]
    assert list(recorder.end) == [10, 5, 4, 9, 8]
    assert list(recorder.parent) == [-1, 0, 1, 0, 3]
    table = recorder.table()
    assert table["outer"] == (1, 9.0, 3.0)  # 9 minus two inner spans of 3
    assert table["inner"] == (2, 6.0, 4.0)  # each 3 minus a leaf of 1
    assert table["leaf"] == (2, 2.0, 2.0)
    assert sum(own for _, _, own in table.values()) == table["outer"][1]


def test_table_since_keeps_later_spans_with_their_own_children():
    recorder = tracing.Recorder(clock=FakeClock())
    leaf = recorder.wrap("leaf", lambda: None)
    step = recorder.wrap("step", lambda: leaf())
    step()
    step()
    later = recorder.table(since=recorder.start[2])
    assert later["step"] == (1, 3.0, 2.0)
    assert later["leaf"] == (1, 1.0, 1.0)


def test_span_closes_when_the_call_raises():
    recorder = tracing.Recorder(clock=FakeClock())

    def fail():
        raise RuntimeError("boom")

    with pytest.raises(RuntimeError):
        recorder.wrap("fail", fail)()
    after = recorder.wrap("after", lambda: None)
    after()
    assert recorder.end[0] > recorder.start[0]
    assert recorder.parent[1] == -1


def test_hooks_are_removed_afterwards():
    original = serving_module.layered_dispatch_plan
    owner = SimpleNamespace(method=lambda: 1)
    recorder = tracing.Recorder()
    with tracing.global_hooks(recorder), ExitStack() as stack:
        assert serving_module.layered_dispatch_plan is not original
        tracing.hook(recorder, stack, owner, "method", "probe")
        assert owner.method() == 1
    assert serving_module.layered_dispatch_plan is original
    assert "method" in vars(owner) and owner.method() == 1
    assert recorder.table()["probe"][0] == 1


def test_a_vanished_target_is_reported_missing():
    recorder = tracing.Recorder()
    with ExitStack() as stack:
        tracing.hook(recorder, stack, None, "step", "gone")
        tracing.hook(recorder, stack, SimpleNamespace(), "step", "gone")
    assert recorder.installed["gone"] == 0
