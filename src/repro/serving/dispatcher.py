"""Heap-based request dispatch over replicated DP groups.

The dispatch layer treats each DP group of the mapping as a *backend*: a
replica of the full expert stack that serves a slice of the continuous
batch.  Following the hivemind ``LoadBalancer`` shape (heap-ordered
backends, EMA throughput, blacklist-on-failure), backends live in a
min-heap keyed by *expected wait* — outstanding tokens over the
backend's EMA service rate — with lazy invalidation: stale heap entries
(their version no longer matches the backend's) are discarded on pop
instead of being rebuilt in place, so dispatch stays O(log B) per
request without a rebuild pass.

Fault integration is two-tier, mirroring the engine's fault model:

* **blacklist / reinstate** — temporary degradation (a straggler window
  on any group member).  A blacklisted backend keeps its state but is
  skipped by dispatch until reinstated; if *every* live backend is
  blacklisted, dispatch degrades gracefully and picks the least-loaded
  blacklisted one (serving slowly beats refusing service).
* **remove** — permanent loss (a device in the group failed fail-stop).
  The backend leaves the heap for good and its in-flight work must be
  re-dispatched by the caller.

Everything is deterministic: no RNG, no wall clock — ties break by
backend index through the heap tuple ordering.
"""

import heapq
from dataclasses import dataclass, field

__all__ = ["BackendState", "ReplicaDispatcher"]


@dataclass
class BackendState:
    """Mutable dispatch-side view of one DP-group backend."""

    backend: int
    #: Tokens dispatched but not yet served (prefill + remaining decode).
    queue_tokens: float = 0.0
    #: EMA of observed service rate, tokens per simulated second.
    ema_rate: float = 1.0
    blacklisted: bool = False
    alive: bool = True
    #: Bumped on every state change; heap entries carry the version they
    #: were pushed with and are dropped as stale when it moved on.
    version: int = field(default=0, repr=False)

    @property
    def expected_wait_s(self) -> float:
        """Outstanding work over service rate — the heap key."""
        return self.queue_tokens / self.ema_rate


class ReplicaDispatcher:
    """Assign requests to replica backends by least expected wait.

    Args:
        num_backends: replica (DP-group) count; backends are indexed
            ``0..num_backends-1`` to match ``mapping.tp_groups``.
        ema_alpha: smoothing factor for the per-backend service-rate EMA
            (1.0 trusts only the last observation).
        initial_rate: optimistic starting service rate (tokens/s) before
            any observation — every backend starts equally attractive, so
            the first requests round-robin through the heap.
    """

    def __init__(
        self,
        num_backends: int,
        ema_alpha: float = 0.2,
        initial_rate: float = 1.0,
    ) -> None:
        if num_backends <= 0:
            raise ValueError("num_backends must be positive")
        if not 0.0 < ema_alpha <= 1.0:
            raise ValueError(f"ema_alpha must be in (0, 1], got {ema_alpha}")
        if initial_rate <= 0:
            raise ValueError("initial_rate must be positive")
        self.ema_alpha = ema_alpha
        self.backends = [
            BackendState(backend=index, ema_rate=initial_rate)
            for index in range(num_backends)
        ]
        #: (expected wait, backend index, version) — min-heap with lazy
        #: invalidation; the index doubles as a deterministic tiebreak.
        self._heap: list[tuple[float, int, int]] = []
        for state in self.backends:
            self._push(state)

    # -- heap plumbing -------------------------------------------------------

    def _push(self, state: BackendState) -> None:
        heapq.heappush(
            self._heap, (state.expected_wait_s, state.backend, state.version)
        )

    def _touch(self, state: BackendState) -> None:
        """Invalidate the backend's heap entries and re-push the fresh one."""
        state.version += 1
        if state.alive:
            self._push(state)

    # -- dispatch ------------------------------------------------------------

    def dispatch(self, tokens: float, exclude: set[int] | None = None) -> int:
        """Pick the backend with the least expected wait; charge it.

        Args:
            tokens: request work to enqueue — the tokens the backend will
                drain serving it (``RequestTrace.served_tokens``).
            exclude: backend indices the caller cannot use right now
                (e.g. at their batch-slot cap); they stay in the heap.

        Raises:
            RuntimeError: no live backend remains (every replica lost a
                device) or all live backends are excluded.
        """
        if tokens <= 0:
            raise ValueError("tokens must be positive")
        exclude = exclude or set()
        candidates = [
            state
            for state in self.backends
            if state.alive and state.backend not in exclude
        ]
        if not candidates:
            raise RuntimeError("no live backend available for dispatch")
        dispatchable = {
            state.backend for state in candidates if not state.blacklisted
        }
        if not dispatchable:
            # Degraded operation: everything live is blacklisted — serve
            # on the least-loaded blacklisted backend rather than refuse.
            dispatchable = {state.backend for state in candidates}
        # Lazy-invalidation pop: discard entries whose version is stale or
        # whose backend is not currently dispatchable, remembering them is
        # unnecessary (dispatchable ones get re-pushed on _touch).
        popped_valid: list[tuple[float, int, int]] = []
        chosen: BackendState | None = None
        while self._heap:
            wait, backend, version = heapq.heappop(self._heap)
            state = self.backends[backend]
            if not state.alive or version != state.version:
                continue  # stale entry
            if backend in dispatchable:
                chosen = state
                break
            popped_valid.append((wait, backend, version))
        for entry in popped_valid:
            heapq.heappush(self._heap, entry)
        if chosen is None:
            # Heap exhausted (all current entries belonged to excluded
            # backends): fall back to a scan — correctness over speed in
            # a case that only arises when every backend is saturated.
            chosen = min(
                (s for s in self.backends if s.backend in dispatchable),
                key=lambda s: (s.expected_wait_s, s.backend),
            )
        chosen.queue_tokens += tokens
        self._touch(chosen)
        return chosen.backend

    # -- feedback ------------------------------------------------------------

    def drain(self, backend: int, tokens: float) -> None:
        """Mark ``tokens`` of the backend's outstanding work as served."""
        state = self.backends[backend]
        state.queue_tokens = max(0.0, state.queue_tokens - tokens)
        self._touch(state)

    def observe_rate(self, backend: int, tokens: float, elapsed_s: float) -> None:
        """Fold an observed (tokens, elapsed) service sample into the EMA."""
        if elapsed_s <= 0 or tokens <= 0:
            return
        state = self.backends[backend]
        sample = tokens / elapsed_s
        state.ema_rate += self.ema_alpha * (sample - state.ema_rate)
        self._touch(state)

    # -- fault integration ---------------------------------------------------

    def blacklist(self, backend: int) -> bool:
        """Exclude the backend from dispatch; True if newly blacklisted."""
        state = self.backends[backend]
        if state.blacklisted:
            return False
        state.blacklisted = True
        return True

    def reinstate(self, backend: int) -> bool:
        """Lift a blacklist; True if the backend was blacklisted."""
        state = self.backends[backend]
        if not state.blacklisted:
            return False
        state.blacklisted = False
        return True

    def remove(self, backend: int) -> bool:
        """Permanently drop a backend (fail-stop); True if newly removed."""
        state = self.backends[backend]
        if not state.alive:
            return False
        state.alive = False
        state.version += 1  # strand every heap entry
        return True

    # -- introspection -------------------------------------------------------

    @property
    def num_alive(self) -> int:
        return sum(1 for state in self.backends if state.alive)

    def live_backends(self) -> list[int]:
        return [state.backend for state in self.backends if state.alive]

    def blacklisted_backends(self) -> list[int]:
        return [
            state.backend
            for state in self.backends
            if state.alive and state.blacklisted
        ]

    def min_expected_wait_s(self) -> float:
        """Least expected wait across dispatchable backends (inf if none).

        The admission controller's deadline estimate: a request admitted
        now waits at least this long before its prefill starts.
        """
        candidates = [
            state
            for state in self.backends
            if state.alive and not state.blacklisted
        ]
        if not candidates:
            candidates = [state for state in self.backends if state.alive]
        if not candidates:
            return float("inf")
        return min(state.expected_wait_s for state in candidates)
