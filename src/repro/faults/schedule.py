"""Deterministic fault schedules.

A :class:`FaultSchedule` is a plain, sorted list of fault events bound to
iteration numbers.  All randomness (e.g. which devices straggle in a
rolling-straggler scenario) is consumed *at construction time* from a
seeded generator, never during the serving run — so the simulator's RNG
stream is untouched by fault injection and traces stay bit-reproducible
(and bit-identical to the fault-free run up to the first event).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DeviceFailure",
    "LinkDegradation",
    "Straggler",
    "FaultSchedule",
]


@dataclass(frozen=True)
class DeviceFailure:
    """Fail-stop: at ``iteration`` the device permanently stops computing.

    Every expert replica hosted there is lost; attention work held by the
    device's TP group redistributes over the surviving members.  The
    device's *router* is assumed to survive (mesh forwarding is a
    separate, far simpler circuit than the compute tile), so traffic
    still flows through its position on the fabric.
    """

    iteration: int
    device: int

    def __post_init__(self) -> None:
        _check_integer("iteration", self.iteration, minimum=0)
        _check_integer("device", self.device, minimum=0)


@dataclass(frozen=True)
class LinkDegradation:
    """The ``src -> dst`` link (both directions) runs at ``factor`` of
    its nominal bandwidth from ``iteration`` for ``duration`` iterations
    (``None`` = permanently).  ``factor`` in ``(0, 1]``; a full link
    *loss* is modelled as heavy degradation (see :meth:`link_loss`)
    rather than a reroute — the routing tables in this simulator are
    static O1TURN, matching the paper's fabric.
    """

    iteration: int
    src: int
    dst: int
    factor: float
    duration: int | None = None

    def __post_init__(self) -> None:
        _check_integer("iteration", self.iteration, minimum=0)
        _check_integer("src", self.src, minimum=0)
        _check_integer("dst", self.dst, minimum=0)
        if not (isinstance(self.factor, numbers.Real) and 0.0 < self.factor <= 1.0):
            raise ValueError(f"factor must be in (0, 1], got {self.factor!r}")
        if self.duration is not None:
            _check_integer("duration", self.duration, minimum=1)

    @classmethod
    def link_loss(
        cls, iteration: int, src: int, dst: int, residual: float = 1e-3
    ) -> "LinkDegradation":
        """A lost link: residual bandwidth models the recovery fabric
        (retransmit over adjacent rows) without changing routes."""
        return cls(iteration=iteration, src=src, dst=dst, factor=residual)


@dataclass(frozen=True)
class Straggler:
    """Device compute slows down by ``factor`` (>= 1) for a window of
    ``duration`` iterations starting at ``iteration``."""

    iteration: int
    device: int
    factor: float
    duration: int

    def __post_init__(self) -> None:
        _check_integer("iteration", self.iteration, minimum=0)
        _check_integer("device", self.device, minimum=0)
        if not (
            isinstance(self.factor, numbers.Real)
            and math.isfinite(self.factor)
            and self.factor >= 1.0
        ):
            raise ValueError(
                f"factor is a slowdown multiplier and must be finite and >= 1, "
                f"got {self.factor!r}"
            )
        _check_integer("duration", self.duration, minimum=1)


def _check_integer(name: str, value, minimum: int) -> None:
    """Raise ``ValueError`` naming ``name`` unless ``value`` is an integer
    (numpy integers included) of at least ``minimum``.

    A fractional iteration never equals the integer one ``events_at`` is
    asked for, and a NaN duration never expires, so neither may pass.
    """
    if not isinstance(value, numbers.Integral) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")


FaultEvent = DeviceFailure | LinkDegradation | Straggler


@dataclass(frozen=True)
class FaultSchedule:
    """A sorted, immutable list of fault events.

    ``restore_bandwidth`` is the host/NVMe side-channel bandwidth (B/s)
    used to restream an orphaned expert's weights onto a survivor during
    emergency repair; the restore time is charged as exposed latency on
    the iteration the repair commits (the expert is unavailable while it
    streams in, whatever fabric carries it).
    """

    events: tuple[FaultEvent, ...]
    restore_bandwidth: float = 8e9

    def __init__(
        self,
        events: "list[FaultEvent] | tuple[FaultEvent, ...]" = (),
        restore_bandwidth: float = 8e9,
    ) -> None:
        if restore_bandwidth <= 0:
            raise ValueError("restore_bandwidth must be positive")
        ordered = tuple(sorted(events, key=_event_key))
        object.__setattr__(self, "events", ordered)
        object.__setattr__(self, "restore_bandwidth", float(restore_bandwidth))

    def __bool__(self) -> bool:
        return bool(self.events)

    @property
    def first_iteration(self) -> int | None:
        return self.events[0].iteration if self.events else None

    def events_at(self, iteration: int) -> tuple[FaultEvent, ...]:
        return tuple(e for e in self.events if e.iteration == iteration)

    def device_failures(self) -> tuple[DeviceFailure, ...]:
        return tuple(e for e in self.events if isinstance(e, DeviceFailure))

    # -- deterministic scenario constructors --------------------------------

    @classmethod
    def single_failure(
        cls, iteration: int, device: int, restore_bandwidth: float = 8e9
    ) -> "FaultSchedule":
        return cls(
            [DeviceFailure(iteration=iteration, device=device)],
            restore_bandwidth=restore_bandwidth,
        )

    @classmethod
    def correlated_failures(
        cls,
        iteration: int,
        devices: "list[int] | tuple[int, ...]",
        restore_bandwidth: float = 8e9,
    ) -> "FaultSchedule":
        """Several devices (e.g. one rack / one wafer column) die in the
        same iteration."""
        if len(set(devices)) != len(devices):
            raise ValueError("correlated failure devices must be distinct")
        return cls(
            [DeviceFailure(iteration=iteration, device=int(d)) for d in devices],
            restore_bandwidth=restore_bandwidth,
        )

    @classmethod
    def rolling_stragglers(
        cls,
        start: int,
        count: int,
        period: int,
        duration: int,
        factor: float,
        num_devices: int,
        seed: int,
        restore_bandwidth: float = 8e9,
    ) -> "FaultSchedule":
        """``count`` straggler windows, one every ``period`` iterations,
        each hitting a device drawn (without immediate repeats) from a
        seeded generator.  The RNG is consumed here, at construction —
        the schedule itself is a plain list of concrete events.
        """
        if count <= 0 or period <= 0:
            raise ValueError("count and period must be positive")
        if num_devices < 2:
            raise ValueError("rolling stragglers need at least 2 devices")
        rng = np.random.default_rng(seed)
        events: list[FaultEvent] = []
        previous = -1
        for index in range(count):
            device = int(rng.integers(num_devices))
            if device == previous:
                device = (device + 1) % num_devices
            previous = device
            events.append(
                Straggler(
                    iteration=start + index * period,
                    device=device,
                    factor=factor,
                    duration=duration,
                )
            )
        return cls(events, restore_bandwidth=restore_bandwidth)


def _event_key(event: FaultEvent) -> tuple[int, int, int]:
    # Failures sort before link faults before stragglers within an
    # iteration so application order is deterministic and repair sees
    # the full picture.
    rank = {DeviceFailure: 0, LinkDegradation: 1, Straggler: 2}[type(event)]
    device = getattr(event, "device", getattr(event, "src", 0))
    return (event.iteration, rank, device)
