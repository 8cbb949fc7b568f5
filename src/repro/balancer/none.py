"""The no-balancing baseline: native placement, never migrates."""

from repro.balancer.base import Balancer, Migration


class NoBalancer(Balancer):
    """All layers keep their native placement; never migrates."""

    invasive = False

    def plan(self, iteration: int) -> list[list[Migration]]:
        return [[] for _ in range(self.num_layers)]
