"""Open-loop, request-level serving front end over the iteration engine.

This is the layer that turns the closed-loop :class:`ServingSimulator`
(fixed iterations, fixed batch) into the system the paper's operators
run: requests arrive on their own clock (:mod:`repro.workload.arrivals`),
wait in an admission-controlled queue, join the batch at iteration
boundaries (continuous batching), and leave when their decode finishes —
so batch size, and with it iteration latency, floats with offered load.

Simulation semantics, in one place:

* **Clock.**  Simulated seconds.  Each engine iteration advances the
  clock by its simulated latency; when nothing is queued or in flight the
  clock jumps to the next arrival (idle time is accounted, not simulated
  iteration by iteration).
* **Continuous batching.**  Requests join and leave only at iteration
  boundaries.  A request's first iteration processes its whole prompt
  (``prefill_tokens``) and emits the first output token (TTFT is measured
  at that iteration's end, anchored to *arrival*); each later iteration
  emits one decode token.
* **Dynamic batch.**  The engine models DP groups symmetrically, so the
  iteration is priced at the *fullest* backend's token load
  (``ServingSimulator.step(tokens_per_group=...)``) — the pessimistic
  pacing: every replica waits for the busiest one at the synchronous
  collectives.
* **Admission control.**  Queue-depth shedding (reject when the wait
  queue is full) plus optional deadline shedding (reject when the
  dispatcher's expected wait already exceeds the TTFT deadline).  A
  rejected request is never served; the counted ``rejected`` stream is
  part of the trace.
* **Dispatch.**  A :class:`~repro.serving.dispatcher.ReplicaDispatcher`
  assigns admitted requests to DP-group backends by least expected wait
  (EMA service rate).  Straggler windows blacklist a backend until they
  expire; device failures remove it permanently, and its in-flight
  requests are re-queued (decode restarts; an already-produced first
  token keeps its timestamp).

The closed-loop figure specs never construct this class, and the default
``ServingSimulator.run()`` path is untouched — tracked artifacts stay
bit-identical.
"""

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.engine.serving import IterationRecord, ServingSimulator
from repro.serving.dispatcher import ReplicaDispatcher
from repro.serving.metrics import SLOSummary, summarize
from repro.serving.requests import RequestTrace
from repro.workload.arrivals import ArrivalProcess

__all__ = [
    "DispatchEvent",
    "FrontendConfig",
    "FrontendTrace",
    "ServingFrontend",
]


@dataclass(frozen=True)
class FrontendConfig:
    """Front-end knobs: workload shape, admission control, dispatch.

    Attributes:
        num_requests: open-loop arrivals to simulate; the run drains
            fully (every request completes or is rejected) unless every
            backend dies first.
        seed: RNG seed for request shapes (prefill/decode lengths), drawn
            in one block up front — the stream is independent of loop
            scheduling, like every other seed in the repo.
        prefill_tokens: inclusive (low, high) range of prompt lengths.
        decode_tokens: inclusive (low, high) range of output lengths.
        max_queue_requests: admission queue capacity; arrivals beyond it
            are shed (queue-depth admission control).
        ttft_deadline_s: optional TTFT SLO.  When set, admission also
            sheds requests whose expected dispatch wait already exceeds
            the deadline, and goodput counts only completions that met it.
        max_requests_per_backend: continuous-batching slots per DP-group
            backend; full backends are excluded from dispatch until a
            request leaves.
        ema_alpha: dispatcher service-rate EMA smoothing.
        max_iterations: hard safety cap on simulated iterations (a
            mis-calibrated arrival rate cannot hang the test suite).
    """

    num_requests: int = 256
    seed: int = 0
    prefill_tokens: tuple[int, int] = (16, 64)
    decode_tokens: tuple[int, int] = (8, 32)
    max_queue_requests: int = 64
    ttft_deadline_s: float | None = None
    max_requests_per_backend: int = 8
    ema_alpha: float = 0.2
    max_iterations: int = 1_000_000

    def __post_init__(self) -> None:
        if self.num_requests <= 0:
            raise ValueError("num_requests must be positive")
        for name in ("prefill_tokens", "decode_tokens"):
            low, high = getattr(self, name)
            if low <= 0 or high < low:
                raise ValueError(f"{name} must be a positive (low, high) range")
        if self.max_queue_requests <= 0:
            raise ValueError("max_queue_requests must be positive")
        if self.ttft_deadline_s is not None and self.ttft_deadline_s <= 0:
            raise ValueError("ttft_deadline_s must be positive when set")
        if self.max_requests_per_backend <= 0:
            raise ValueError("max_requests_per_backend must be positive")
        if self.max_iterations <= 0:
            raise ValueError("max_iterations must be positive")


@dataclass(frozen=True)
class DispatchEvent:
    """One dispatcher health transition, for fault-recovery assertions."""

    time_s: float
    backend: int
    #: "blacklist" (straggler window opened), "reinstate" (window closed),
    #: or "drop" (group lost a device permanently).
    kind: str


@dataclass
class _InFlight:
    """Runtime decode state of a dispatched request."""

    trace: RequestTrace
    needs_prefill: bool
    remaining_decode: int

    def tokens_this_iteration(self) -> int:
        return self.trace.prefill_tokens if self.needs_prefill else 1


@dataclass
class FrontendTrace:
    """Everything one front-end run produced.

    The request log (``requests``) satisfies conservation — every arrived
    request is completed, rejected, or (only if every backend died)
    rejected by outage; the iteration records are the engine-side
    companion (same clock).
    """

    requests: list[RequestTrace]
    iteration_records: list[IterationRecord]
    events: list[DispatchEvent]
    elapsed_s: float
    idle_s: float
    ttft_deadline_s: float | None

    def summary(self) -> SLOSummary:
        return summarize(self.requests, self.elapsed_s, self.ttft_deadline_s)

    def event_count(self, kind: str) -> int:
        return sum(1 for event in self.events if event.kind == kind)


class ServingFrontend:
    """Drive a :class:`ServingSimulator` with open-loop request traffic.

    Args:
        simulator: the iteration engine (its gating workload, balancer,
            and fault schedule all keep working underneath; the front end
            only paces ``step(tokens_per_group=...)`` and reads the
            fault-health accessors).
        arrivals: seeded open-loop arrival process (owns the clock).
        config: front-end knobs; defaults are sized for tests.
    """

    def __init__(
        self,
        simulator: ServingSimulator,
        arrivals: ArrivalProcess,
        config: FrontendConfig | None = None,
    ) -> None:
        self.simulator = simulator
        self.arrivals = arrivals
        self.config = config or FrontendConfig()
        self.num_backends = simulator.mapping.dp

    # -- workload materialisation --------------------------------------------

    def _materialise_requests(self) -> list[RequestTrace]:
        """Draw every request (arrival time + shape) up front, seeded."""
        config = self.config
        times: list[float] = []
        while len(times) < config.num_requests:
            times.extend(self.arrivals.take_until(self.arrivals.peek_next()))
        times = times[: config.num_requests]
        rng = np.random.default_rng(config.seed)
        prefills = rng.integers(
            config.prefill_tokens[0],
            config.prefill_tokens[1] + 1,
            size=config.num_requests,
        )
        decodes = rng.integers(
            config.decode_tokens[0],
            config.decode_tokens[1] + 1,
            size=config.num_requests,
        )
        return [
            RequestTrace(
                request_id=index,
                arrival_s=times[index],
                prefill_tokens=int(prefills[index]),
                decode_tokens=int(decodes[index]),
            )
            for index in range(config.num_requests)
        ]

    # -- the loop ------------------------------------------------------------

    def run(self) -> FrontendTrace:
        config = self.config
        requests = self._materialise_requests()
        pending = deque(requests)
        queue: deque[RequestTrace] = deque()
        dispatcher = ReplicaDispatcher(self.num_backends, ema_alpha=config.ema_alpha)
        active: dict[int, list[_InFlight]] = {
            backend: [] for backend in range(self.num_backends)
        }
        events: list[DispatchEvent] = []
        records: list[IterationRecord] = []
        now = 0.0
        idle = 0.0
        iterations = 0

        def in_flight() -> int:
            return sum(len(slot) for slot in active.values())

        while pending or queue or in_flight():
            # 1. Admission: pull every arrival with arrival_s <= now.
            while pending and pending[0].arrival_s <= now:
                self._admit(pending.popleft(), queue, dispatcher)

            # 2. Idle: nothing to serve — jump the clock to the next arrival.
            if not queue and not in_flight():
                next_arrival = pending[0].arrival_s
                idle += next_arrival - now
                now = next_arrival
                continue

            # 3. Total outage: every replica lost a device; nothing queued
            #    or pending can ever be served again.
            if dispatcher.num_alive == 0:
                for trace in list(queue) + list(pending):
                    trace.rejected = True
                queue.clear()
                pending.clear()
                break

            # 4. Continuous batching: fill free slots from the queue, by
            #    least expected wait, at this iteration boundary.
            while queue:
                full = {
                    backend
                    for backend, slot in active.items()
                    if len(slot) >= config.max_requests_per_backend
                }
                if len(full) >= dispatcher.num_alive:
                    break  # every live backend is at its slot cap
                trace = queue[0]
                try:
                    backend = dispatcher.dispatch(
                        trace.served_tokens, exclude=full
                    )
                except RuntimeError:
                    break
                queue.popleft()
                trace.backend = backend
                active[backend].append(
                    _InFlight(
                        trace=trace,
                        needs_prefill=True,
                        remaining_decode=trace.decode_tokens,
                    )
                )

            # 5. One engine iteration at the fullest backend's load.
            backend_tokens = {
                backend: sum(r.tokens_this_iteration() for r in slot)
                for backend, slot in active.items()
                if slot
            }
            tokens_per_group = max(backend_tokens.values())
            record = self.simulator.step(tokens_per_group=tokens_per_group)
            records.append(record)
            iterations += 1
            if iterations > config.max_iterations:
                raise RuntimeError(
                    f"front end exceeded max_iterations={config.max_iterations} "
                    "— arrival rate far above service capacity?"
                )
            elapsed = record.latency
            now += elapsed

            # 6. Request progress: first token at the end of the prefill
            #    iteration, one decode token per later iteration.
            for backend, slot in active.items():
                if not slot:
                    continue
                served = backend_tokens[backend]
                dispatcher.observe_rate(backend, served, elapsed)
                dispatcher.drain(backend, served)
                finished: list[_InFlight] = []
                for request in slot:
                    if request.needs_prefill:
                        request.needs_prefill = False
                        request.trace.first_token_s = now
                        request.remaining_decode -= 1
                    else:
                        request.remaining_decode -= 1
                    if request.remaining_decode <= 0:
                        request.trace.completed_s = now
                        finished.append(request)
                for request in finished:
                    slot.remove(request)

            # 7. Fault sync: dead groups drop out of the heap for good
            #    (their requests re-queue); straggler windows blacklist a
            #    backend and reinstate it when they expire.
            self._sync_faults(dispatcher, active, queue, events, now)

        return FrontendTrace(
            requests=requests,
            iteration_records=records,
            events=events,
            elapsed_s=now,
            idle_s=idle,
            ttft_deadline_s=config.ttft_deadline_s,
        )

    # -- pieces --------------------------------------------------------------

    def _admit(
        self,
        trace: RequestTrace,
        queue: deque,
        dispatcher: ReplicaDispatcher,
    ) -> None:
        """Queue-depth + deadline admission control at arrival time."""
        config = self.config
        if len(queue) >= config.max_queue_requests:
            trace.rejected = True
            return
        if (
            config.ttft_deadline_s is not None
            and dispatcher.min_expected_wait_s() > config.ttft_deadline_s
        ):
            trace.rejected = True
            return
        trace.admitted_s = trace.arrival_s
        queue.append(trace)

    def _sync_faults(
        self,
        dispatcher: ReplicaDispatcher,
        active: dict[int, list[_InFlight]],
        queue: deque,
        events: list[DispatchEvent],
        now: float,
    ) -> None:
        health = self.simulator.group_health()
        straggling = self.simulator.straggling_devices()
        groups = self.simulator.mapping.tp_groups
        for backend in dispatcher.live_backends():
            if not health[backend]:
                dispatcher.remove(backend)
                events.append(DispatchEvent(now, backend, "drop"))
                # Re-queue the dead backend's in-flight work (front of the
                # queue: they arrived before anything still waiting).
                for request in reversed(active[backend]):
                    request.trace.redispatches += 1
                    queue.appendleft(request.trace)
                active[backend].clear()
                continue
            slowed = any(member in straggling for member in groups[backend])
            if slowed:
                if dispatcher.blacklist(backend):
                    events.append(DispatchEvent(now, backend, "blacklist"))
            elif dispatcher.reinstate(backend):
                events.append(DispatchEvent(now, backend, "reinstate"))
