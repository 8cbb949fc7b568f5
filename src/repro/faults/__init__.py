"""Fault injection and degraded operation for the serving simulator.

The package has two halves:

* :mod:`repro.faults.schedule` — the *what and when*: deterministic,
  seed-driven :class:`FaultSchedule` objects listing device fail-stops,
  link degradations, and straggler windows.
* :mod:`repro.faults.health` — the *current machine state*: a
  :class:`TopologyHealth` record attached to a topology instance with a
  monotonically increasing version so network-layer caches know when
  the fabric underneath them changed.

``docs/fault-model.md`` describes the model and the repair path.
"""

from repro.faults.health import (
    TopologyHealth,
    health_version,
    topology_health,
)
from repro.faults.schedule import (
    DeviceFailure,
    FaultSchedule,
    LinkDegradation,
    Straggler,
)

__all__ = [
    "DeviceFailure",
    "FaultSchedule",
    "LinkDegradation",
    "Straggler",
    "TopologyHealth",
    "health_version",
    "topology_health",
]
