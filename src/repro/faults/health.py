"""Topology health: the degraded state of a fabric, with a version.

The network layer caches aggressively — route tables, all-reduce
results, layered pricing operators — all keyed on objects
that were immutable until faults existed.  Rather than hunting down and
invalidating each cache, degraded state lives in one
:class:`TopologyHealth` record attached to the topology instance, with a
**monotonically increasing version**.  Caches that depend on fabric
bandwidth either

* re-key on ``health_version(topology)`` (the all-reduce result cache),
  or
* look up the current effective bandwidth *at duration time* (the
  route-cache's ``effective_bandwidth()``), which is how the batched
  pricers already separate topology-shaped operators (cacheable) from
  bandwidth division (cheap, done last).

A topology with no health record attached (``health_version == 0``)
pays nothing: every accessor returns the identical objects used before
this module existed.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "TopologyHealth",
    "topology_health",
    "health_version",
]

_ATTR = "_fault_health"


class TopologyHealth:
    """Mutable degraded-fabric state for one topology instance.

    ``version`` increases on every mutation; it never decreases, even
    when a degradation is lifted (restoring a link is still a change the
    caches must notice).
    """

    def __init__(self, topology) -> None:
        self.topology = topology
        self.version = 1
        self.dead_devices: set[int] = set()
        self._link_factors: dict[tuple[int, int], float] = {}
        self._compute_factors: dict[int, float] = {}

    # -- devices ------------------------------------------------------------

    def fail_device(self, device: int) -> None:
        if device not in self.dead_devices:
            self.dead_devices.add(int(device))
            self.version += 1

    def is_dead(self, device: int) -> bool:
        return device in self.dead_devices

    # -- links --------------------------------------------------------------

    def degrade_link(self, src: int, dst: int, factor: float) -> None:
        """Run both directions of the (src, dst) link at ``factor`` of
        nominal bandwidth.  Degradations compose by taking the minimum
        (worst) factor, not by multiplying — repeated application of the
        same event is idempotent."""
        if not (0.0 < factor <= 1.0):
            raise ValueError("link factor must be in (0, 1]")
        changed = False
        for key in ((src, dst), (dst, src)):
            current = self._link_factors.get(key, 1.0)
            value = min(current, float(factor))
            if value != current:
                self._link_factors[key] = value
                changed = True
        if changed:
            self.version += 1

    def restore_link(self, src: int, dst: int) -> None:
        changed = False
        for key in ((src, dst), (dst, src)):
            if self._link_factors.pop(key, None) is not None:
                changed = True
        if changed:
            self.version += 1

    def link_factors(self, keys: list[tuple[int, int]]) -> np.ndarray | None:
        """Per-link factor array in ``keys`` order, or ``None`` when no
        link is degraded (the common case, letting callers keep the
        pristine bandwidth array untouched)."""
        if not self._link_factors:
            return None
        factors = self._link_factors
        return np.array([factors.get(key, 1.0) for key in keys])

    @property
    def degraded_links(self) -> dict[tuple[int, int], float]:
        return dict(self._link_factors)

    # -- compute (stragglers) ------------------------------------------------

    def set_compute_factor(self, device: int, factor: float) -> None:
        """Device compute runs ``factor`` times slower (>= 1)."""
        if factor < 1.0:
            raise ValueError("compute factor is a slowdown multiplier, must be >= 1")
        if factor == 1.0:
            self.clear_compute_factor(device)
            return
        if self._compute_factors.get(device) != factor:
            self._compute_factors[int(device)] = float(factor)
            self.version += 1

    def clear_compute_factor(self, device: int) -> None:
        if self._compute_factors.pop(device, None) is not None:
            self.version += 1

    def compute_factor(self, device: int) -> float:
        return self._compute_factors.get(device, 1.0)

    @property
    def compute_factors(self) -> dict[int, float]:
        return dict(self._compute_factors)


def topology_health(topology, create: bool = False) -> TopologyHealth | None:
    """The topology's health record, or ``None`` when pristine.

    With ``create=True`` a fresh record is attached on first access —
    only fault-injecting callers do that; read paths never force a
    record into existence."""
    health = getattr(topology, _ATTR, None)
    if health is not None and health.topology is not topology:
        health = None
    if health is None and create:
        health = TopologyHealth(topology)
        setattr(topology, _ATTR, health)
    return health


def health_version(topology) -> int:
    """0 for a pristine topology, the record's version otherwise."""
    health = topology_health(topology)
    return 0 if health is None else health.version
