"""Request-level accounting for the open-loop serving front end.

A :class:`RequestTrace` is the paper-trail of one request through the
front end: when it arrived on the open-loop clock, whether admission let
it in, when its first token came back, and when it finished.  The four
timestamps are exactly the events an operator's SLO dashboard is built
from — TTFT is ``first_token_s - arrival_s`` (queueing included: the
clock starts when the *user* sent the request, not when the batch picked
it up), TPOT is the mean decode-token interval after the first token.

Traces are plain mutable dataclasses: the front end fills the fields in
as the simulation crosses each event, and the rolled-up metrics
(:mod:`repro.serving.metrics`) read only finished traces.
"""

from dataclasses import dataclass, field

__all__ = ["RequestTrace"]


@dataclass(slots=True)
class RequestTrace:
    """One request's lifecycle through the serving front end.

    Attributes:
        request_id: position in the arrival stream (0-based, arrival order).
        arrival_s: open-loop arrival time (seconds on the simulated clock).
        prefill_tokens: prompt tokens processed in the request's first
            iteration on a backend.
        decode_tokens: output tokens to generate (>= 1); the first one is
            produced by the prefill iteration itself.
        admitted_s: when admission control accepted the request
            (``None`` while queued pre-admission or when rejected).
        first_token_s: end of the iteration that produced the first output
            token (``None`` until then).
        completed_s: end of the iteration that produced the last output
            token (``None`` until then).
        backend: DP-group index that served the request (the last one, if
            a backend failure forced a re-dispatch).
        rejected: shed by admission control — mutually exclusive with ever
            being served (the queue/admission invariant tests pin this).
        redispatches: times the request was re-queued because its backend's
            group lost a device mid-flight (decode restarts; the first
            token, once out, keeps its timestamp).
    """

    request_id: int
    arrival_s: float
    prefill_tokens: int
    decode_tokens: int
    admitted_s: float | None = None
    first_token_s: float | None = None
    completed_s: float | None = None
    backend: int | None = None
    rejected: bool = field(default=False)
    redispatches: int = 0

    @property
    def completed(self) -> bool:
        return self.completed_s is not None

    @property
    def ttft_s(self) -> float | None:
        """Time to first token, arrival-anchored (queueing included)."""
        if self.first_token_s is None:
            return None
        return self.first_token_s - self.arrival_s

    @property
    def tpot_s(self) -> float | None:
        """Mean time per output token after the first.

        ``None`` until completion; 0.0 for single-token requests (no
        decode interval exists to average).
        """
        if self.completed_s is None or self.first_token_s is None:
            return None
        intervals = self.decode_tokens - 1
        if intervals <= 0:
            return 0.0
        return (self.completed_s - self.first_token_s) / intervals

    @property
    def served_tokens(self) -> int:
        """Tokens a backend processes to serve the request — the load unit.

        The prefill iteration processes the whole prompt and already emits
        the first output token; each later iteration processes one decode
        token.
        """
        return self.prefill_tokens + self.decode_tokens - 1
