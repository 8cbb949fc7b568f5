"""NI-Balancer: non-invasive topology-aware balancing.

Planning reuses Algorithm 1 (topology-aware source/destination selection),
but migrations are *queued* rather than executed: the serving engine drains
each migration's Local segments during attention all-reduce phases and its
Global segment during MoE all-to-all phases, using only cold-link
capacity.  Because nothing ever lands on the critical path, beta of Eq. 2
is zero — the balancer may fine-tune shadow slots continuously.
"""

from repro.balancer.base import BalancerConfig
from repro.balancer.topology_aware import TopologyAwareBalancer
from repro.mapping.placement import StackedPlacement
from repro.topology.base import Topology

#: Default per-trigger plan cap for non-invasive balancing: continuous
#: fine-tuning plans at most a couple of migrations per trigger but
#: triggers freely (beta = 0 in the engine).
NONINVASIVE_PLAN_CAP = 2


class NonInvasiveBalancer(TopologyAwareBalancer):
    """Topology-aware planning with hidden, multi-step migrations.

    Without a config it plans at most :data:`NONINVASIVE_PLAN_CAP`
    migrations per trigger; an explicit config is used as given.
    """

    invasive = False

    def __init__(
        self,
        placement: StackedPlacement,
        topology: Topology,
        expert_bytes: float,
        config: BalancerConfig | None = None,
    ) -> None:
        if config is None:
            config = BalancerConfig(max_migrations_per_trigger=NONINVASIVE_PLAN_CAP)
        super().__init__(placement, topology, expert_bytes, config)
