"""Span recorder and the hooks that attribute simulator host time to layers.

Tracing lives entirely in the benchmark: wrappers are installed around
public calls on instances, module attributes or classes for the length of
one traced pass and removed afterwards, so no file under ``src/`` changes
and the simulation packages never read a clock.  A hook whose target no
longer exists (a later refactor deleted the class) is recorded as missing;
the pass still runs and the layer metrics built on it report ``missing``.

Each span records its name, start, end and parent in flat arrays kept in
memory.  Wrappers only nest through the call stack of one thread, so a
span's direct children are disjoint intervals inside it and its self time
is its duration minus the sum of its direct children's durations.
"""

import functools
import importlib
import time
from array import array
from contextlib import ExitStack, contextmanager
from pathlib import Path

import numpy as np

#: (span name, module, attribute) — functions looked up as module
#: globals by their callers, so the wrapper replaces the global.
MODULE_HOOKS = (
    ("network.alltoall_layer0", "repro.engine.iteration", "simulate_alltoall"),
    ("network.plan", "repro.engine.serving", "layered_dispatch_plan"),
    ("balancer.split", "repro.engine.serving", "split_migration"),
    ("balancer.route", "repro.engine.serving", "migration_route_arrays"),
    ("network.pricer", "repro.network.alltoall", "alltoall_pricer"),
    ("network.pricer", "repro.network.alltoall", "sparse_alltoall_pricer"),
)

#: (span name, module, class, method) — objects created inside the run.
CLASS_HOOKS = (
    (
        "network.layered_price",
        "repro.network.alltoall",
        "LayeredDispatchPlan",
        "alltoall_durations_resolved",
    ),
    ("network.pricer_build", "repro.network.alltoall", "LayeredAllToAllPricer", "__init__"),
    ("network.pricer_build", "repro.network.alltoall", "SparseAllToAllPricer", "__init__"),
    ("network.pricer_build", "repro.network.alltoall", "SparseAllToAllPricer", "state_for"),
    ("balancer.drain", "repro.balancer.migration", "PendingMigration", "advance"),
    ("serving.dispatch", "repro.serving.dispatcher", "ReplicaDispatcher", "dispatch"),
)

#: (span name, attribute path from the ServingSimulator, method) —
#: wrapped on the instance, so subclass overrides are caught too.
INSTANCE_HOOKS = (
    ("engine.step", "", "step"),
    ("engine.layer0", "simulator", "simulate_layer"),
    ("engine.roofline", "simulator.compute", "moe_peak_arrays"),
    ("network.allreduce", "simulator", "simulate_allreduce"),
    ("network.allreduce_miss", "mapping", "simulate_allreduce"),
    ("workload.gating", "workload", "next_group_counts"),
    ("workload.gating", "workload", "next_loads"),
    ("balancer.observe", "engine", "observe"),
    ("balancer.plan", "engine", "heats"),
    ("balancer.plan", "engine", "imbalance_sum"),
    ("balancer.plan", "engine", "evict_stale"),
    ("balancer.plan", "engine", "plan"),
    ("balancer.commit", "engine", "commit_many"),
    ("faults.repair", "engine", "plan_repairs"),
    ("topology.route", "mapping.topology", "route"),
)


class Recorder:
    """In-memory span store: parallel arrays indexed by span id."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack = [-1]
        #: Span name -> hooks installed under it (0 means missing).
        self.installed: dict[str, int] = {}
        #: Last plan returned by ``layered_dispatch_plan`` and the reuse
        #: tally; the reference is dropped when the hooks come off.
        self.last_plan = None
        self.plan_reuses = 0
        #: Demand cells returned by the gating calls.
        self.gating_cells = 0
        #: Pricers handed out while hooked, for their operator bytes.
        self.pricers: list = []

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn, on_result=None):
        """``fn`` wrapped in a span named ``name``."""
        name_id = self._intern(name)
        clock = self.clock
        stack = self._stack
        name_ids, starts, ends, parents = self.name_id, self.start, self.end, self.parent

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def table(self, since: float | None = None) -> dict[str, tuple[int, float, float]]:
        """Span name -> (calls, total seconds, self seconds).

        ``since`` keeps only spans that started at or after that clock value.
        """
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        start = np.frombuffer(self.start, dtype=np.float64)
        duration = np.frombuffer(self.end, dtype=np.float64) - start
        parent = np.frombuffer(self.parent, dtype=np.int32)
        has_parent = parent >= 0
        children = np.bincount(
            parent[has_parent], weights=duration[has_parent], minlength=duration.size
        )
        self_time = duration - children
        if since is not None:
            keep = start >= since
            name_id, duration, self_time = name_id[keep], duration[keep], self_time[keep]
        size = len(self.names)
        calls = np.bincount(name_id, minlength=size)
        total = np.bincount(name_id, weights=duration, minlength=size)
        own = np.bincount(name_id, weights=self_time, minlength=size)
        return {
            name: (int(calls[i]), float(total[i]), float(own[i]))
            for i, name in enumerate(self.names)
        }

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
        )


def patch(stack: ExitStack, owner, attr: str, replacement) -> None:
    """Set ``owner.attr`` and restore the previous binding on exit."""
    own = vars(owner)
    had_own = attr in own
    previous = own.get(attr)
    setattr(owner, attr, replacement)

    def restore():
        if had_own:
            setattr(owner, attr, previous)
        else:
            delattr(owner, attr)

    stack.callback(restore)


def _resolve(root, path: str):
    target = root
    for part in filter(None, path.split(".")):
        target = getattr(target, part, None)
        if target is None:
            return None
    return target


def _note(recorder: Recorder, name: str, ok: bool) -> None:
    recorder.installed[name] = recorder.installed.get(name, 0) + int(ok)


def _on_plan(recorder: Recorder):
    def seen(plan):
        if plan is recorder.last_plan:
            recorder.plan_reuses += 1
        recorder.last_plan = plan

    return seen


def _on_gating(recorder: Recorder):
    def seen(result):
        first = result[0] if isinstance(result, tuple) else result
        recorder.gating_cells += int(np.size(first))

    return seen


def _on_pricer(recorder: Recorder):
    def seen(pricer):
        if not any(pricer is known for known in recorder.pricers):
            recorder.pricers.append(pricer)

    return seen


_CALLBACKS = {
    "network.plan": _on_plan,
    "workload.gating": _on_gating,
    "network.pricer": _on_pricer,
}


@contextmanager
def global_hooks(recorder: Recorder):
    """Module and class hooks, installed for the duration of the block."""
    with ExitStack() as stack:
        for name, module_name, attr in MODULE_HOOKS:
            hook(recorder, stack, importlib.import_module(module_name), attr, name)
        for name, module_name, class_name, attr in CLASS_HOOKS:
            owner = getattr(importlib.import_module(module_name), class_name, None)
            hook(recorder, stack, owner, attr, name)

        def release():
            recorder.last_plan = None
            recorder.pricers = []

        stack.callback(release)
        yield


def hook(recorder: Recorder, stack: ExitStack, owner, attr: str, name: str) -> None:
    """Wrap ``owner.attr`` in a ``name`` span until ``stack`` closes."""
    fn = None if owner is None else getattr(owner, attr, None)
    _note(recorder, name, fn is not None)
    if fn is not None:
        callback = _CALLBACKS.get(name)
        patch(
            stack,
            owner,
            attr,
            recorder.wrap(name, fn, callback(recorder) if callback else None),
        )


def instance_hooks(recorder: Recorder, simulator, stack: ExitStack) -> None:
    """Wrap one ServingSimulator's collaborators; undone when ``stack`` closes."""
    for name, path, attr in INSTANCE_HOOKS:
        hook(recorder, stack, _resolve(simulator, path), attr, name)
