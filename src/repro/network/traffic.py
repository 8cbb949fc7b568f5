"""Flows and traffic matrices.

:class:`TrafficMatrix` is a dict-backed accumulator for incrementally built
patterns (ESP gathers, hand-written tests) that
:func:`~repro.network.phase.simulate_phase` prices; the MoE all-to-all
never builds per-pair traffic and prices through link operators instead
(:mod:`repro.network.alltoall`).
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Flow:
    """A point-to-point transfer of ``volume`` bytes."""

    src: int
    dst: int
    volume: float

    def __post_init__(self) -> None:
        if self.volume < 0:
            raise ValueError(f"flow volume must be >= 0, got {self.volume}")


class TrafficMatrix:
    """Accumulates point-to-point volumes, merging duplicate (src, dst) pairs.

    Merging matters for performance: the all-to-all of a 256-device system
    generates hundreds of thousands of logical (group, expert, replica)
    demands that collapse onto far fewer device pairs.
    """

    def __init__(self) -> None:
        self._volumes: dict[tuple[int, int], float] = {}

    def add(self, src: int, dst: int, volume: float) -> None:
        if volume < 0:
            raise ValueError(f"volume must be >= 0, got {volume}")
        if volume == 0 or src == dst:
            return
        key = (src, dst)
        self._volumes[key] = self._volumes.get(key, 0.0) + volume

    def add_flow(self, flow: Flow) -> None:
        self.add(flow.src, flow.dst, flow.volume)

    def merge(self, other: "TrafficMatrix") -> None:
        for (src, dst), volume in other.items():
            self.add(src, dst, volume)

    def items(self):
        return self._volumes.items()

    def flows(self) -> list[Flow]:
        return [Flow(src, dst, volume) for (src, dst), volume in self._volumes.items()]

    @property
    def total_volume(self) -> float:
        return sum(self._volumes.values())

    def __len__(self) -> int:
        return len(self._volumes)

    def __bool__(self) -> bool:
        return bool(self._volumes)

    def scaled(self, factor: float) -> "TrafficMatrix":
        """A copy with every volume multiplied by ``factor``."""
        if factor < 0:
            raise ValueError(f"factor must be >= 0, got {factor}")
        out = TrafficMatrix()
        for (src, dst), volume in self._volumes.items():
            out.add(src, dst, volume * factor)
        return out
