"""Open-loop request arrival processes for the serving front end.

The paper evaluates under cyclically evolving scenario mixtures driven by
Azure request *arrival traces* — an open-loop workload: requests arrive on
their own clock whether or not the system keeps up, which is what makes
tail latency (TTFT/TPOT p99) a meaningful operator metric.  This module
owns that arrival clock.  Two processes cover the trace properties the
evaluation depends on:

* :class:`PoissonArrivals` — a (optionally diurnally modulated)
  inhomogeneous Poisson process.  The smooth rate cycle stands in for the
  day/night swing of the Azure traces; thinning against the peak rate
  keeps the draw exact, not a discretized approximation.
* :class:`MMPPArrivals` — a Markov-modulated Poisson process: a seeded
  continuous-time chain switches between rate states (e.g. a calm rate
  and a flash-crowd rate), producing the bursty-arrival clusters that
  stress admission control and the continuous-batching queue.

Determinism contract: every process consumes a single
``numpy.random.default_rng(seed)`` stream in fixed-size blocks, so the
generated arrival-time sequence depends only on the constructor arguments
— never on how the caller paces :meth:`ArrivalProcess.take_until` (one
call per simulated hour and one call per microsecond drain the same
stream).  Fixed seed = fixed request stream, bitwise.
"""

from abc import ABC, abstractmethod

import numpy as np

__all__ = [
    "ArrivalProcess",
    "PoissonArrivals",
    "MMPPArrivals",
]

#: Interarrival draws per RNG block.  Block draws make the stream a pure
#: function of the seed (call-pattern independent); the size only trades
#: Python-loop overhead against over-draw, never changes the stream.
_BLOCK = 256


class ArrivalProcess(ABC):
    """A deterministic, monotone stream of request arrival times (seconds).

    Subclasses implement :meth:`_next_block` returning the next block of
    arrival times strictly after the ones already produced; the base class
    buffers blocks so :meth:`take_until` can hand out exactly the arrivals
    in ``(last_taken, t]`` regardless of call granularity.
    """

    def __init__(self, seed: int) -> None:
        self._rng = np.random.default_rng(seed)
        #: Arrivals drawn but not yet handed out, ascending.
        self._buffer: list[float] = []
        #: Latest drawn arrival time — blocks are drawn until past ``t``.
        self._horizon = 0.0

    @abstractmethod
    def _next_block(self) -> np.ndarray:
        """The next ``_BLOCK`` arrival times, ascending, after _horizon."""

    def take_until(self, t: float) -> list[float]:
        """Consume and return every arrival with time <= ``t``, ascending.

        Each arrival is returned exactly once across calls; ``t`` must not
        move backwards (the stream is an event clock, not random access).
        """
        while self._horizon <= t:
            block = self._next_block()
            self._buffer.extend(block.tolist())
            self._horizon = self._buffer[-1]
        cut = 0
        for time in self._buffer:
            if time > t:
                break
            cut += 1
        taken = self._buffer[:cut]
        del self._buffer[:cut]
        return taken

    def peek_next(self) -> float:
        """The next undelivered arrival time (drawing blocks as needed)."""
        while not self._buffer:
            block = self._next_block()
            self._buffer.extend(block.tolist())
            self._horizon = self._buffer[-1]
        return self._buffer[0]


class PoissonArrivals(ArrivalProcess):
    """Poisson arrivals at ``rate`` req/s, optionally diurnally modulated.

    With ``diurnal_depth > 0`` the instantaneous intensity is::

        rate * (1 + diurnal_depth * cos(2 * pi * t / diurnal_period_s))

    drawn exactly by thinning a homogeneous process at the peak intensity
    ``rate * (1 + diurnal_depth)``: each candidate arrival is kept with
    probability ``intensity(t) / peak``.  One uniform is drawn per
    candidate *unconditionally* (even with ``diurnal_depth == 0``), so the
    homogeneous process is the exact ``depth -> 0`` limit of the modulated
    one on the same seed.
    """

    def __init__(
        self,
        rate: float,
        seed: int,
        diurnal_period_s: float = 60.0,
        diurnal_depth: float = 0.0,
    ) -> None:
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        if diurnal_period_s <= 0:
            raise ValueError("diurnal_period_s must be positive")
        if not (0.0 <= diurnal_depth < 1.0):
            raise ValueError(
                f"diurnal_depth must be in [0, 1), got {diurnal_depth}"
            )
        super().__init__(seed)
        self.rate = rate
        self.diurnal_period_s = diurnal_period_s
        self.diurnal_depth = diurnal_depth
        #: Homogeneous candidate clock.  Rejected candidates advance it
        #: too — restarting from the last *accepted* time would re-expose
        #: the tail of the block to fresh candidates and inflate the rate.
        self._clock = 0.0

    def intensity(self, t: float | np.ndarray) -> float | np.ndarray:
        """Instantaneous arrival intensity at time ``t`` (req/s)."""
        cycle = np.cos(2.0 * np.pi * np.asarray(t) / self.diurnal_period_s)
        return self.rate * (1.0 + self.diurnal_depth * cycle)

    def _next_block(self) -> np.ndarray:
        peak = self.rate * (1.0 + self.diurnal_depth)
        times: list[float] = []
        while len(times) < _BLOCK:
            gaps = self._rng.exponential(1.0 / peak, size=_BLOCK)
            keeps = self._rng.random(size=_BLOCK)
            candidates = self._clock + np.cumsum(gaps)
            self._clock = candidates[-1]
            accept = keeps * peak < self.intensity(candidates)
            times.extend(candidates[accept].tolist())
        return np.asarray(times)


class MMPPArrivals(ArrivalProcess):
    """Markov-modulated Poisson arrivals: bursty flash-crowd clusters.

    A seeded continuous-time Markov chain cycles through ``rates`` states
    (uniform transitions to the *other* states after an exponential
    sojourn of mean ``mean_sojourn_s``); within a state, arrivals are
    Poisson at that state's rate.  Two well-separated rates produce the
    calm/burst alternation that stresses queueing and admission control;
    the long-run mean rate is reported by :attr:`mean_rate` (uniform
    stationary distribution — sojourn means are state-independent).
    """

    def __init__(
        self,
        rates: list[float] | tuple[float, ...],
        mean_sojourn_s: float,
        seed: int,
        start_state: int = 0,
    ) -> None:
        rates = tuple(float(rate) for rate in rates)
        if len(rates) < 2:
            raise ValueError("MMPP needs at least two rate states")
        if any(rate <= 0 for rate in rates):
            raise ValueError(f"every state rate must be positive, got {rates}")
        if mean_sojourn_s <= 0:
            raise ValueError("mean_sojourn_s must be positive")
        if not (0 <= start_state < len(rates)):
            raise ValueError(f"start_state out of range: {start_state}")
        super().__init__(seed)
        self.rates = rates
        self.mean_sojourn_s = mean_sojourn_s
        self._state = start_state
        #: End of the current sojourn window; arrivals past it switch state.
        self._sojourn_end = 0.0
        self._started = False

    @property
    def mean_rate(self) -> float:
        """Long-run arrival rate (uniform stationary state occupancy)."""
        return float(np.mean(self.rates))

    def _advance_state(self, t: float) -> None:
        """Walk the chain until the sojourn containing ``t``."""
        while self._sojourn_end <= t or not self._started:
            if self._started:
                # Uniform jump to one of the *other* states.
                step = int(self._rng.integers(1, len(self.rates)))
                self._state = (self._state + step) % len(self.rates)
            self._sojourn_end += self._rng.exponential(self.mean_sojourn_s)
            self._started = True

    def _next_block(self) -> np.ndarray:
        times = np.empty(_BLOCK)
        t = self._horizon
        for index in range(_BLOCK):
            self._advance_state(t)
            # Memorylessness lets the truncated interarrival restart at a
            # state boundary: draw within the current sojourn, and on
            # overflow re-draw from the boundary under the next state.
            while True:
                gap = self._rng.exponential(1.0 / self.rates[self._state])
                if t + gap <= self._sojourn_end:
                    t += gap
                    break
                t = self._sojourn_end
                self._advance_state(t)
            times[index] = t
        return times
