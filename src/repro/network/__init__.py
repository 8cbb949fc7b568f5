"""Congestion-aware analytical network simulator.

The simulator decomposes every collective into *phases*.  A phase is a set
of concurrent point-to-point flows; its duration follows Eq. 1 of the paper
generalised to congested links:

    duration = max_over_links(accumulated bytes / link bandwidth)
             + max_over_flows(sum of per-hop link latencies)

Collectives are sequences of phases.  This mirrors the analytical backend
the paper built into ASTRA-sim: serialisation on the bottleneck link plus a
per-hop latency term.  ESP gathers list their flows for
:func:`simulate_phase`, ring collectives price from cached array plans of
one ring step (:mod:`repro.network.allreduce`), and the MoE all-to-all's
dispatch and combine phases fold the same route rows into per-mapping link
operators (:mod:`repro.network.alltoall`), one way for the figures and the
serving loop alike.
"""

from repro.network.traffic import Flow, TrafficMatrix
from repro.network.phase import PhaseResult, simulate_phase
from repro.network.allreduce import (
    CollectiveResult,
    ring_allreduce,
    ring_allgather,
    ring_reduce_scatter,
    hierarchical_allreduce,
)
from repro.network.alltoall import (
    AllToAllResult,
    clear_plan_caches,
    simulate_alltoall,
)

__all__ = [
    "Flow",
    "TrafficMatrix",
    "PhaseResult",
    "simulate_phase",
    "CollectiveResult",
    "ring_allreduce",
    "ring_allgather",
    "ring_reduce_scatter",
    "hierarchical_allreduce",
    "AllToAllResult",
    "clear_plan_caches",
    "simulate_alltoall",
]
