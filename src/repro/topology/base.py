"""Topology interface shared by meshes and switched fabrics.

A topology is a set of *nodes* (compute devices plus, for switched fabrics,
switch nodes) joined by directed :class:`Link` objects, together with a
deterministic single-path routing function.  Devices always occupy node ids
``0 .. num_devices - 1``; switches use ids above that range.
"""

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from repro.memo import instance_memo



@dataclass(frozen=True)
class Link:
    """A directed link.

    Attributes:
        src: source node id.
        dst: destination node id.
        bandwidth: per-direction bandwidth in bytes/s.
        latency: per-hop link latency in seconds (Eq. 1 latency term).
    """

    src: int
    dst: int
    bandwidth: float
    latency: float

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise ValueError(f"self-link at node {self.src}")
        if self.bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive, got {self.bandwidth}")
        if self.latency < 0:
            raise ValueError(f"latency must be >= 0, got {self.latency}")

    @property
    def key(self) -> tuple[int, int]:
        return (self.src, self.dst)


class Topology(ABC):
    """Directed graph of links plus deterministic routing."""

    def __init__(self, num_devices: int) -> None:
        if num_devices <= 0:
            raise ValueError(f"num_devices must be positive, got {num_devices}")
        self._num_devices = num_devices
        self._links: dict[tuple[int, int], Link] = {}

    @property
    def num_devices(self) -> int:
        """Number of compute devices (node ids 0 .. num_devices - 1)."""
        return self._num_devices

    @property
    def devices(self) -> range:
        return range(self._num_devices)

    @property
    def links(self) -> dict[tuple[int, int], Link]:
        """All directed links keyed by (src, dst)."""
        return self._links

    def is_device(self, node: int) -> bool:
        return 0 <= node < self._num_devices

    def _add_link(self, src: int, dst: int, bandwidth: float, latency: float) -> None:
        if (src, dst) in self._links:
            raise ValueError(f"duplicate link ({src}, {dst})")
        self._links[(src, dst)] = Link(src, dst, bandwidth, latency)

    def _add_bidirectional(self, a: int, b: int, bandwidth: float, latency: float) -> None:
        self._add_link(a, b, bandwidth, latency)
        self._add_link(b, a, bandwidth, latency)

    def link(self, src: int, dst: int) -> Link:
        try:
            return self._links[(src, dst)]
        except KeyError:
            raise KeyError(f"no link ({src}, {dst}) in {type(self).__name__}") from None

    @abstractmethod
    def route(self, src: int, dst: int) -> list[Link]:
        """Deterministic path from device ``src`` to device ``dst``.

        Returns the (possibly empty, when src == dst) list of links crossed.
        """

    def hops(self, src: int, dst: int) -> int:
        """Number of links on the route from src to dst."""
        return len(self.route(src, dst))

    def hop_counts(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """:meth:`hops` of every pair of the broadcast ``src`` and ``dst``."""
        return np.vectorize(self.hops, otypes=[np.intp])(src, dst)

    def path_latency(self, src: int, dst: int) -> float:
        """Sum of per-hop link latencies along the route."""
        return sum(link.latency for link in self.route(src, dst))

    def validate(self) -> None:
        """Check every device pair is routable over existing links."""
        for src in self.devices:
            for dst in self.devices:
                if src == dst:
                    continue
                path = self.route(src, dst)
                if not path:
                    raise AssertionError(f"empty route {src}->{dst}")
                if path[0].src != src or path[-1].dst != dst:
                    raise AssertionError(f"route {src}->{dst} has wrong endpoints")
                for first, second in zip(path, path[1:]):
                    if first.dst != second.src:
                        raise AssertionError(f"discontinuous route {src}->{dst}")


class CachedRoutingMixin:
    """Memoise ``route`` — topologies are immutable after construction.

    Memoization is per instance (see :mod:`repro.memo`): an ``lru_cache``
    here would pin every topology — and its phase route cache — alive for
    the process lifetime, defeating the weakref-keyed caches layered on
    mappings above.
    """

    @instance_memo("_route_memo")
    def _cached_route(self, src: int, dst: int):  # pragma: no cover - trivial
        return tuple(self._route_impl(src, dst))

    def route(self, src: int, dst: int) -> list[Link]:
        return list(self._cached_route(src, dst))
