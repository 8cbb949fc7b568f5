"""Inference engine: compute roofline, iteration latency, serving loop.

The engine composes the substrates: the network simulator prices the
attention all-reduce and MoE all-to-all under a mapping; the roofline
prices attention and expert computation; the iteration model overlaps them
PipeMoE-style (Sec. V-A pipelining); the serving simulator runs the
iteration loop with a gating workload and a balancer in control of expert
placement, including the NI-Balancer's hidden migration stream.
"""

from repro.engine.compute import ComputeModel, RooflineTimes
from repro.engine.iteration import (
    EngineConfig,
    IterationBreakdown,
    IterationSimulator,
    pipelined_time,
)
from repro.engine.serving import (
    BalancingConfig,
    IterationRecord,
    ServingConfig,
    ServingSimulator,
    ServingTrace,
)

#: The supported engine surface (see ``docs/api.md``): the roofline
#: compute model, the single-iteration simulator, and the serving loop
#: with its grouped configuration.  Module internals (pricing caches,
#: migration bookkeeping) are not part of the contract.
__all__ = [
    "ComputeModel",
    "RooflineTimes",
    "EngineConfig",
    "IterationBreakdown",
    "IterationSimulator",
    "pipelined_time",
    "ServingConfig",
    "BalancingConfig",
    "ServingSimulator",
    "ServingTrace",
    "IterationRecord",
]
