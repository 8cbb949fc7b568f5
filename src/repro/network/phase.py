"""Single-phase congestion model (generalised Eq. 1)."""

import sys
from dataclasses import dataclass, field

import numpy as np

from repro import sanitize
from repro.faults.health import topology_health
from repro.network.traffic import Flow, TrafficMatrix
from repro.topology.base import Topology
from repro.topology.mesh import MeshTopology


@dataclass
class PhaseResult:
    """Outcome of simulating one communication phase.

    Attributes:
        duration: phase completion time in seconds.
        link_bytes: bytes carried per directed link during the phase.
        serialization_time: bottleneck-link transfer component.
        latency_time: worst per-flow cumulative hop latency component.
        total_volume: sum of flow volumes (for sanity checks / reporting).
    """

    duration: float
    link_bytes: dict[tuple[int, int], float] = field(default_factory=dict)
    serialization_time: float = 0.0
    latency_time: float = 0.0
    total_volume: float = 0.0

    @property
    def bottleneck_link(self) -> tuple[int, int] | None:
        if not self.link_bytes:
            return None
        return max(self.link_bytes, key=lambda key: self.link_bytes[key])

    def merge_link_bytes(self, into: dict[tuple[int, int], float]) -> None:
        for key, volume in self.link_bytes.items():
            into[key] = into.get(key, 0.0) + volume


#: Pairs per row-building batch: bounds the transient (hop, pair) arrays
#: of a mesh batch, so a large fill never raises the peak RSS.
_BATCH_PAIRS = 4096

#: The builtin ``sum`` folds floats with Neumaier compensation from Python
#: 3.12 on; batched path latencies fold the same way, so a mesh row's
#: latency equals ``sum(link.latency for link in path)`` bit for bit.
_COMPENSATED_SUM = sys.version_info >= (3, 12)


def _walk_sums(terms: np.ndarray) -> np.ndarray:
    """The builtin ``sum`` of every column of ``terms``, folded top down.

    Zero padding below a column's last term leaves its sum unchanged.  A
    pairwise reduction such as ``np.sum`` can round differently.
    """
    total = np.zeros(terms.shape[1])
    compensation = np.zeros(terms.shape[1])
    for term in terms:
        folded = total + term
        if _COMPENSATED_SUM:
            compensation += np.where(
                np.abs(total) >= np.abs(term),
                (total - folded) + term,
                (term - folded) + total,
            )
        total = folded
    return total + compensation


def _extended(array: np.ndarray, filled: int, values: np.ndarray) -> np.ndarray:
    """``array`` with ``values`` written after its first ``filled`` items.

    Capacity at least doubles when it runs out, so a run of appends copies
    each item a constant number of times, amortized; items past the filled
    prefix are unused capacity.
    """
    stop = filled + values.size
    if stop > array.size:
        grown = np.empty(max(stop, 2 * array.size), dtype=array.dtype)
        grown[:filled] = array[:filled]
        array = grown
    array[filled:stop] = values
    return array


class _RouteCache:
    """Per-topology route rows in CSR index/weight form.

    Topologies are immutable after construction, so for every (src, dst)
    pair the set of links a flow loads — primary route plus the O1TURN
    alternate when a mesh offers one — is fixed.  The cache stores that set
    as one CSR row: sorted unique link indices with per-link byte weights
    (route share times the number of the pair's routes crossing the link)
    plus the worst per-route latency, letting :func:`simulate_phase`
    charge a whole flow list with one ``bincount`` and the all-to-all
    pricer fold the rows into its link operators.  Meshes build missing
    rows in closed form, a batch at a time
    (:meth:`MeshTopology.dimension_order_links`); other fabrics walk their
    single route per pair.

    Each row also keeps the reversed pair's worst latency, so the
    all-to-all's combine phase, which retraces dispatch, needs no rows of
    its own.  A walk back adds the same hop latencies in the other order,
    which can round differently.

    The cache also keeps the ring collectives' array plans
    (:mod:`repro.network.allreduce`), whose time-staggered flows ride their
    primary routes only (:meth:`primary_links`).
    """

    def __init__(self, topology: Topology) -> None:
        self.topology = topology
        self.keys = list(topology.links)
        self.index = {key: position for position, key in enumerate(self.keys)}
        links = [topology.links[key] for key in self.keys]
        self.bandwidth = sanitize.freeze(np.array([link.bandwidth for link in links]))
        self.latency = np.array([link.latency for link in links])
        self.num_links = len(self.keys)
        #: Position of each link's reverse (dst, src) link; -1 where none.
        self.reverse = sanitize.freeze(
            np.array([self.index.get((dst, src), -1) for src, dst in self.keys], dtype=np.intp)
        )
        # Pair key src * num_devices + dst -> CSR row.  Row r's entries are
        # _indices/_weights[_offsets[r] : _offsets[r] + _counts[r]]; the
        # arrays grow in place (see _extended) as batches of rows arrive.
        num_devices = topology.num_devices
        self._row_of = np.full(num_devices * num_devices, -1, dtype=np.intp)
        self._num_rows = 0
        self._num_entries = 0
        self._counts = np.empty(0, dtype=np.intp)
        self._offsets = np.empty(0, dtype=np.intp)
        self._latencies = np.empty(0)
        self._reverse_latencies = np.empty(0)
        self._indices = np.empty(0, dtype=np.intp)
        self._weights = np.empty(0)
        # Degraded-fabric bandwidth, cached per topology-health version.
        # While the topology is pristine (or every degradation is lifted)
        # this IS ``self.bandwidth`` — the identical array object — so the
        # fault-free pricing path is untouched, bit for bit.
        self._effective_bandwidth = self.bandwidth
        self._effective_version = 0
        #: Ring collective plans, keyed as :mod:`repro.network.allreduce`
        #: keys them.  A plan holds route shape only and reads
        #: :meth:`effective_bandwidth` when it is evaluated, so no health
        #: version keys it.
        self.plans: dict = {}

    def effective_bandwidth(self) -> np.ndarray:
        """Per-link bandwidth with current link degradations applied."""
        health = topology_health(self.topology)
        if health is None:
            return self.bandwidth
        if health.version != self._effective_version:
            factors = health.link_factors(self.keys)
            if factors is None:
                self._effective_bandwidth = self.bandwidth
            else:
                self._effective_bandwidth = sanitize.freeze(
                    self.bandwidth * factors
                )
            self._effective_version = health.version
        return self._effective_bandwidth

    def rows_for(
        self, src: np.ndarray, dst: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Route rows of (src, dst) pairs, building missing rows in batches.

        Returns (entries per pair, link indices, per-byte link weights, path
        latency per pair, path latency of each reversed pair); the pairs'
        entries concatenate in pair order.
        """
        self._check_endpoints(src, dst)
        keys = src * self.topology.num_devices + dst
        rows = self._row_of[keys]
        missing = rows < 0
        if missing.any():
            # New rows follow first request order, so gathering this batch
            # again later reads the table front to back.
            new, first = np.unique(keys[missing], return_index=True)
            self._add_rows(new[np.argsort(first)])
            rows = self._row_of[keys]
        counts = self._counts[rows]
        ends = np.cumsum(counts)
        entries = np.repeat(self._offsets[rows] + counts - ends, counts)
        entries += np.arange(entries.size)
        return (
            counts,
            self._indices[entries],
            self._weights[entries],
            self._latencies[rows],
            self._reverse_latencies[rows],
        )

    def primary_links(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """Link positions of each pair's primary route, in walk order.

        Returns a ``(max_hops, pairs)`` array padded with -1: column ``p``
        lists the links ``topology.route(src[p], dst[p])`` crosses, with no
        O1TURN alternate.  Meshes build the columns in closed form; other
        fabrics walk ``route`` once per pair.
        """
        self._check_endpoints(src, dst)
        if isinstance(self.topology, MeshTopology):
            return self.topology.dimension_order_links(src, dst, rows_first=True)
        paths = [self.topology.route(s, d) for s, d in zip(src.tolist(), dst.tolist())]
        links = np.full((max(map(len, paths), default=0), len(paths)), -1, dtype=np.intp)
        for column, path in enumerate(paths):
            links[: len(path), column] = [self.index[link.key] for link in path]
        return links

    def _check_endpoints(self, src: np.ndarray, dst: np.ndarray) -> None:
        num_devices = self.topology.num_devices
        if src.size and not (
            src.min() >= 0
            and dst.min() >= 0
            and src.max() < num_devices
            and dst.max() < num_devices
        ):
            raise ValueError(f"route endpoints must be devices 0..{num_devices - 1}")

    def _add_rows(self, keys: np.ndarray) -> None:
        """Build and append the rows of new, distinct pair keys."""
        src, dst = np.divmod(keys, self.topology.num_devices)
        mesh = isinstance(self.topology, MeshTopology)
        build = self._mesh_rows if mesh else self._walked_rows
        for start in range(0, keys.size, _BATCH_PAIRS):
            part = slice(start, start + _BATCH_PAIRS)
            counts, indices, weights, latency, reverse_latency = build(src[part], dst[part])
            self._row_of[keys[part]] = np.arange(
                self._num_rows, self._num_rows + counts.size
            )
            offsets = self._num_entries + np.cumsum(counts) - counts
            self._offsets = _extended(self._offsets, self._num_rows, offsets)
            self._counts = _extended(self._counts, self._num_rows, counts)
            self._latencies = _extended(self._latencies, self._num_rows, latency)
            self._reverse_latencies = _extended(
                self._reverse_latencies, self._num_rows, reverse_latency
            )
            self._indices = _extended(self._indices, self._num_entries, indices)
            self._weights = _extended(self._weights, self._num_entries, weights)
            self._num_rows += counts.size
            self._num_entries += indices.size

    def _mesh_rows(self, src, dst):
        """Closed-form rows of mesh pairs: the XY route plus, where it
        differs, the YX route, each flow split evenly between them.

        The reversed pair's XY route retraces this pair's YX route
        backwards, and its YX route the XY one, so their latencies fold the
        same hop arrays flipped.  The flip moves the padding to the front,
        where it adds exact zeros.
        """
        xy = self.topology.dimension_order_links(src, dst, rows_first=True)
        yx = self.topology.dimension_order_links(src, dst, rows_first=False)
        alternate = (xy != yx).any(axis=0)
        latency = np.maximum(self._path_latency(xy), self._path_latency(yx))
        reverse_latency = np.maximum(
            self._path_latency(self._reversed(yx)), self._path_latency(self._reversed(xy))
        )
        links = np.concatenate([xy, np.where(alternate, yx, -1)])
        _, pair = np.nonzero(links >= 0)
        return *self._rows(pair, links[links >= 0], 1 + alternate), latency, reverse_latency

    def _reversed(self, links: np.ndarray) -> np.ndarray:
        """The padded walks back: each column's reversed links, last hop first."""
        return np.where(links >= 0, self.reverse[links], -1)[::-1]

    def _path_latency(self, links: np.ndarray) -> np.ndarray:
        """Each padded column's path latency, summed in walk order."""
        return _walk_sums(np.where(links >= 0, self.latency[links], 0.0))

    def _walked_rows(self, src, dst):
        """Rows of a single-route fabric, walked link by link, and the
        latencies of the reversed pairs' own walks."""
        pairs = list(zip(src.tolist(), dst.tolist()))
        paths = [self.topology.route(s, d) for s, d in pairs]
        pair = np.repeat(np.arange(len(paths)), [len(path) for path in paths])
        links = np.array(
            [self.index[link.key] for path in paths for link in path], dtype=np.intp
        )
        latency = np.array(
            [sum(link.latency for link in path) for path in paths], dtype=float
        )
        reverse_latency = np.array(
            [sum(link.latency for link in self.topology.route(d, s)) for s, d in pairs],
            dtype=float,
        )
        routes = np.ones(len(paths), dtype=np.intp)
        return *self._rows(pair, links, routes), latency, reverse_latency

    def _rows(self, pair, links, routes):
        """CSR rows from the link positions of each pair's routes.

        A pair's row holds its sorted unique links, each weighted by the
        route share ``1 / routes`` times the routes crossing it.
        """
        keys, crossings = np.unique(pair * self.num_links + links, return_counts=True)
        row_pair, indices = np.divmod(keys, self.num_links)
        weights = (1.0 / routes)[row_pair] * crossings
        counts = np.bincount(row_pair, minlength=routes.size)
        return counts, indices, weights


def _route_cache(topology: Topology) -> _RouteCache:
    cache = getattr(topology, "_phase_route_cache", None)
    if cache is None or cache.topology is not topology:
        cache = _RouteCache(topology)
        topology._phase_route_cache = cache
    return cache


def migration_route_arrays(
    topology: Topology, src: np.ndarray, dst: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-hop (bandwidths, latencies) of each pair's primary route.

    Store-and-forward migration pricing walks a weight copy's primary
    route (no O1TURN split: a copy is a single transfer).  Both arrays
    are ``(max_hops, pairs)``, column ``p`` holding the links of
    ``topology.route(src[p], dst[p])`` in walk order at their current
    effective bandwidth, padded with ``inf`` bandwidth and 0 latency, so a
    hop-by-hop fold of ``volume / bandwidth + latency`` adds exact zeros
    past a path's end.  Meshes build the columns in closed form.
    """
    cache = _route_cache(topology)
    links = primary_route_links(topology, src, dst)
    hop = links >= 0
    bandwidths = np.where(hop, cache.effective_bandwidth()[links], np.inf)
    latencies = np.where(hop, cache.latency[links], 0.0)
    return bandwidths, latencies


def primary_route_links(
    topology: Topology, src: np.ndarray, dst: np.ndarray
) -> np.ndarray:
    """Link positions of each pair's primary route, in walk order.

    A ``(max_hops, pairs)`` array padded with -1; positions index
    ``list(topology.links)``, the route cache's link order.  Meshes build
    the columns in closed form; other fabrics walk ``route`` per pair.
    """
    return _route_cache(topology).primary_links(
        np.asarray(src, dtype=np.intp), np.asarray(dst, dtype=np.intp)
    )


def route_rows(
    topology: Topology, src: np.ndarray, dst: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Cached route rows of a batch of (src, dst) device pairs.

    Returns (entries per pair, link indices, per-byte link weights, path
    latency per pair, path latency of each reversed ``dst -> src`` pair):
    the CSR rows :func:`simulate_phase` charges flows with — O1TURN
    splitting pre-merged into the weights — concatenated in pair order,
    links ascending within a pair, so layer-batched all-to-all pricing can
    fold them into link operators.  Raises ``ValueError`` when an endpoint
    is not a device.
    """
    return _route_cache(topology).rows_for(
        np.asarray(src, dtype=np.intp), np.asarray(dst, dtype=np.intp)
    )


def link_reversal(topology: Topology) -> np.ndarray:
    """Per link, in route-cache link order, the position of its reverse
    ``(dst, src)`` link, or -1 where the topology has none."""
    return _route_cache(topology).reverse


def phase_durations_from_link_volumes(
    topology: Topology,
    link_volumes: np.ndarray,
    worst_latencies: np.ndarray,
) -> np.ndarray:
    """Batched cut-through durations from precomputed per-link volumes.

    Applies the same Eq. 1 semantics as :func:`simulate_phase` — busiest
    link's drain time plus the worst active flow's cumulative hop latency —
    over any leading batch axes (the layer axis of a stacked serving
    iteration).  ``link_volumes`` has shape ``(..., num_links)`` in route
    cache link order; ``worst_latencies`` broadcasts against the leading
    axes.
    """
    serialization = (
        link_volumes / _route_cache(topology).effective_bandwidth()
    ).max(axis=-1)
    return serialization + worst_latencies


def phase_result_from_link_volumes(
    topology: Topology,
    link_volumes: np.ndarray,
    worst_latency: float,
    total_volume: float,
) -> PhaseResult:
    """One phase's :class:`PhaseResult` from its per-link volumes.

    ``link_volumes`` is ``(num_links,)`` in route cache link order.  The
    duration is formed as :func:`phase_durations_from_link_volumes` forms
    it, and ``link_bytes`` holds the nonzero links in that order.
    """
    cache = _route_cache(topology)
    serialization = float((link_volumes / cache.effective_bandwidth()).max())
    return PhaseResult(
        duration=serialization + worst_latency,
        link_bytes={
            cache.keys[position]: float(link_volumes[position])
            for position in np.nonzero(link_volumes)[0]
        },
        serialization_time=serialization,
        latency_time=worst_latency,
        total_volume=total_volume,
    )


def simulate_phase(
    topology: Topology,
    flows: TrafficMatrix | list[Flow],
) -> PhaseResult:
    """Route every flow and apply the congested Eq. 1 model.

    Every flow's bytes are charged to each link on its deterministic route.
    Cut-through (wormhole) semantics end the phase when the busiest link
    drains, plus the worst flow's cumulative per-hop latency — distance
    still costs, because longer paths load more links and pay more latency.
    """
    if isinstance(flows, TrafficMatrix):
        # (src, dst, volume) triples straight off the matrix: pricing never
        # needs Flow objects.
        triples = [(src, dst, volume) for (src, dst), volume in flows.items()]
    else:
        triples = [
            (flow.src, flow.dst, flow.volume)
            for flow in flows
            if flow.volume > 0 and flow.src != flow.dst
        ]
    if not triples:
        return PhaseResult(duration=0.0)
    src, dst, volume = zip(*triples)
    total_volume = 0.0
    for flow_volume in volume:
        total_volume += flow_volume
    return _simulate_cut_through(
        topology,
        np.array(src, dtype=np.intp),
        np.array(dst, dtype=np.intp),
        np.array(volume, dtype=float),
        total_volume,
    )


def _simulate_cut_through(
    topology: Topology,
    src: np.ndarray,
    dst: np.ndarray,
    volume: np.ndarray,
    total_volume: float,
) -> PhaseResult:
    """Cut-through pricing without a per-pair Python loop.

    Pairs gather their cached route rows in one call, volumes expand across
    each row's links with one ``repeat``, and a single ``bincount`` charges
    every link — each link sums its flows' terms in flow order.
    """
    cache = _route_cache(topology)
    counts, links, weights, latency, _ = cache.rows_for(src, dst)
    volumes = np.bincount(
        links, weights=weights * np.repeat(volume, counts), minlength=cache.num_links
    )
    return phase_result_from_link_volumes(
        topology, volumes, float(latency.max()), total_volume
    )
