"""Expert load balancing strategies (paper Sec. V).

Each strategy is one :class:`Balancer` subclass that balances every
sparse layer of a :class:`~repro.mapping.placement.StackedPlacement` at
once; ``ServingSimulator(balancer_cls=...)`` takes the class itself.  Four
strategies, matching the Fig. 15 comparison:

* :class:`NoBalancer` — native placement only.
* :class:`GreedyBalancer` — EPLB-style invasive balancing: replicate the
  globally hottest expert onto the globally coldest device, topology-blind.
* :class:`TopologyAwareBalancer` — Algorithm 1: migrate the hottest
  device's hottest expert to the *nearest* device that would stay below the
  current peak heat.
* :class:`NonInvasiveBalancer` — NI-Balancer: topology-aware source and
  destination selection, with the weight transfer decomposed into Local
  (intra-FTD, hidden under the attention all-reduce) and Global (inter-FTD,
  hidden under the MoE all-to-all) steps that drain cold-link capacity —
  zero exposed migration latency.
"""

from repro.balancer.base import Balancer, BalancerConfig, Migration
from repro.balancer.none import NoBalancer
from repro.balancer.greedy import GreedyBalancer
from repro.balancer.topology_aware import TopologyAwareBalancer
from repro.balancer.ni import NonInvasiveBalancer
from repro.balancer.heat import (
    LinkHeat,
    classify_links,
    cold_capacity,
    complementarity,
)
from repro.balancer.migration import MigrationLinks, PendingMigration, split_migration

__all__ = [
    "Balancer",
    "BalancerConfig",
    "Migration",
    "NoBalancer",
    "GreedyBalancer",
    "TopologyAwareBalancer",
    "NonInvasiveBalancer",
    "LinkHeat",
    "classify_links",
    "cold_capacity",
    "complementarity",
    "MigrationLinks",
    "PendingMigration",
    "split_migration",
]
