"""Integration tests pinning the paper's headline qualitative claims.

Absolute numbers differ (analytical simulator, synthetic traces) — these
tests assert the *shape*: who wins, roughly by how much, and in which
direction each mechanism moves each metric.
"""

import numpy as np
import pytest

from repro.balancer import (
    GreedyBalancer,
    NoBalancer,
    NonInvasiveBalancer,
    TopologyAwareBalancer,
)
from repro.balancer.base import BalancerConfig
from repro.engine import ComputeModel, EngineConfig, ServingConfig, ServingSimulator
from repro.mapping.placement import ExpertPlacement, StackedPlacement
from repro.models import DEEPSEEK_V3, QWEN3_235B, get_model
from repro.network.alltoall import simulate_alltoall, uniform_demand
from repro.systems import build_dgx, build_multi_wsc, build_nvl72, build_wsc
from repro.workload import AzureLikeMixer, CHAT, CODING, MATH, PRIVACY, GatingSimulator


def comm_times(system, tokens_per_group=256):
    """(allreduce, alltoall) for one sparse layer under balanced gating."""
    model = system.model
    mapping = system.mapping
    placement = system.fresh_placement()
    demand = uniform_demand(
        mapping.dp, model.num_experts, tokens_per_group,
        model.experts_per_token, model.token_bytes,
    )
    allreduce = mapping.simulate_allreduce(tokens_per_group * model.token_bytes)
    alltoall = simulate_alltoall(
        system.topology, demand, placement, mapping
    )
    return allreduce.duration, alltoall.duration


class TestSectionIIIClaims:
    def test_wsc_reduces_comm_over_dgx(self):
        """WSC inherently cuts communication vs DGX (paper: ~56%)."""
        wsc = build_wsc(QWEN3_235B, side=6, tp=4, mapping="baseline")
        dgx = build_dgx(QWEN3_235B, num_nodes=4, tp=4)
        wsc_total = sum(comm_times(wsc))
        dgx_total = sum(comm_times(dgx))
        assert wsc_total < 0.6 * dgx_total

    def test_alltoall_dwarfs_allreduce_on_mesh(self):
        """Fig. 6: all-to-all dominates; all-reduce stays minimal."""
        for side in (4, 6, 8):
            system = build_wsc(QWEN3_235B, side=side, tp=4, mapping="baseline")
            allreduce, alltoall = comm_times(system)
            assert alltoall > 2 * allreduce

    def test_alltoall_grows_faster_with_scale_than_allreduce(self):
        allreduces, alltoalls = [], []
        for side in (4, 8):
            system = build_wsc(QWEN3_235B, side=side, tp=4, mapping="baseline")
            ar, a2a = comm_times(system)
            allreduces.append(ar)
            alltoalls.append(a2a)
        assert alltoalls[1] / alltoalls[0] > allreduces[1] / allreduces[0]


class TestERMappingClaims:
    @pytest.mark.parametrize("side", [4, 6, 8])
    def test_er_cuts_total_communication(self, side):
        baseline = build_wsc(QWEN3_235B, side=side, tp=4, mapping="baseline")
        er = build_wsc(QWEN3_235B, side=side, tp=4, mapping="er")
        base_total = sum(comm_times(baseline))
        er_total = sum(comm_times(er))
        improvement = 1 - er_total / base_total
        assert improvement > 0.2  # paper: up to 35-62%

    def test_er_trades_allreduce_for_alltoall(self):
        baseline = build_wsc(QWEN3_235B, side=4, tp=4, mapping="baseline")
        er = build_wsc(QWEN3_235B, side=4, tp=4, mapping="er")
        base_ar, base_a2a = comm_times(baseline)
        er_ar, er_a2a = comm_times(er)
        assert er_ar > base_ar  # the modest all-reduce sacrifice
        assert er_a2a < 0.5 * base_a2a  # more-than-2x all-to-all cut

    def test_her_consistent_improvement_on_multiwafer(self):
        """Fig. 13d: HER wins over baseline mapping on every multi-wafer."""
        for side in (4, 6, 8):
            baseline = build_multi_wsc(
                QWEN3_235B, num_wafers=4, side=side, tp=4, mapping="baseline"
            )
            her = build_multi_wsc(
                QWEN3_235B, num_wafers=4, side=side, tp=4, mapping="her"
            )
            base_total = sum(comm_times(baseline, tokens_per_group=64))
            her_total = sum(comm_times(her, tokens_per_group=64))
            assert her_total < base_total

    def test_er_benefit_scales_with_activated_experts(self):
        """Fig. 13b: more activated experts -> larger ER benefit; Mixtral
        (top-2) benefits least."""
        improvements = {}
        for name in ("deepseek-v3", "mixtral"):
            model = get_model(name)
            baseline = build_wsc(model, side=4, tp=4, mapping="baseline")
            er = build_wsc(model, side=4, tp=4, mapping="er")
            improvements[name] = 1 - sum(comm_times(er)) / sum(comm_times(baseline))
        assert improvements["deepseek-v3"] > improvements["mixtral"]


class TestFig4EPScaling:
    def test_memory_fraction_falls_and_perf_rises_with_ep(self):
        model = DEEPSEEK_V3
        compute = ComputeModel(build_wsc(model, 4, 4).device, model)
        tokens_per_device = 64
        fractions, throughputs = [], []
        for num_devices in (32, 72, 256):
            placement = ExpertPlacement(model.num_experts, num_devices)
            total_selected = tokens_per_device * num_devices * model.experts_per_token
            loads = np.full(model.num_experts, total_selected / model.num_experts)
            peak = compute.moe_peak_time(loads, placement)
            fractions.append(peak.memory_fraction)
            throughputs.append(tokens_per_device / peak.total)
        assert fractions == sorted(fractions, reverse=True)
        assert throughputs == sorted(throughputs)


class TestBalancerClaims:
    def _run(self, balancer_cls):
        system = build_wsc(QWEN3_235B, side=4, tp=4, mapping="er")
        mixer = AzureLikeMixer([CHAT, CODING, MATH, PRIVACY], period_iters=60)
        workload = GatingSimulator(
            QWEN3_235B, num_groups=system.mapping.dp, tokens_per_group=128,
            mixer=mixer, num_layers=2, seed=11,
        )
        sim = ServingSimulator(
            system.device, QWEN3_235B, system.mapping, workload, balancer_cls,
            engine_config=EngineConfig(tokens_per_group=128),
            serving_config=ServingConfig(num_iterations=50),
        )
        return sim.run()

    def test_fig15_strategy_ordering(self):
        none = self._run(NoBalancer)
        greedy = self._run(GreedyBalancer)
        topo = self._run(TopologyAwareBalancer)
        ni = self._run(NonInvasiveBalancer)

        # Balancing cuts the peak/mean device load ratio.
        assert greedy.mean_load_ratio(skip=15) < none.mean_load_ratio(skip=15)
        assert ni.mean_load_ratio(skip=15) < none.mean_load_ratio(skip=15)

        # Topology awareness cuts migration overhead vs greedy (paper 2.6x);
        # non-invasive eliminates it.
        assert topo.total_migration_overhead() < greedy.total_migration_overhead()
        assert ni.total_migration_overhead() == 0.0
        assert ni.num_interruptions() == 0
        assert greedy.num_interruptions() > 0

    def test_balancing_reduces_moe_compute_peak(self):
        """The paper's up-to-54% MoE *computation* cut; replication adds
        some weight-streaming memory, so the compute component is the
        claim's subject."""
        none = self._run(NoBalancer)
        ni = self._run(NonInvasiveBalancer)
        assert ni.mean_component("moe_compute", skip=15) < none.mean_component(
            "moe_compute", skip=15
        )


class TestFig17Ablation:
    def test_multi_wsc_beats_nvl72_per_device(self):
        """The headline: at EP = 256 (E/D = 1) the multi-WSC system delivers
        higher per-device MoE throughput than NVL72 (E/D = 3.56), whose
        weight streaming dominates under the same skewed expert load."""
        model = DEEPSEEK_V3
        tokens_per_device = 64
        rng = np.random.default_rng(0)
        # The same skewed expert popularity hits both platforms, and both
        # get to balance it (the paper's NVL72 baseline balances via the
        # NVMe side channel; the WSC via NI-Balancer).
        popularity = rng.dirichlet(np.full(model.num_experts, 2.0))

        def per_device_throughput(system):
            mapping = system.mapping
            stack = StackedPlacement(
                1, model.num_experts, system.num_devices, shadow_slots=2
            )
            compute = ComputeModel(system.device, model)
            total_selected = (
                tokens_per_device * system.num_devices * model.experts_per_token
            )
            loads = popularity * total_selected

            balancer = TopologyAwareBalancer(
                stack,
                system.topology,
                expert_bytes=model.expert_bytes,
                config=BalancerConfig(max_migrations_per_trigger=16),
            )
            balancer.observe(loads[None, :])
            for _ in range(40):
                (migrations,) = balancer.plan(0)
                if not migrations:
                    break
                balancer.commit_many([(0, migration) for migration in migrations])

            placement = stack.layer(0)
            demand = np.tile(loads / mapping.dp, (mapping.dp, 1)) * model.token_bytes
            a2a = simulate_alltoall(
                system.topology, demand, placement, mapping
            )
            moe = compute.moe_peak_time(loads, placement)
            layer_time = max(moe.total, a2a.duration) + min(moe.total, a2a.duration) / 4
            return tokens_per_device / layer_time

        nvl = per_device_throughput(build_nvl72(model, tp=4))
        wsc = per_device_throughput(
            build_multi_wsc(model, num_wafers=4, side=8, tp=4, mapping="her")
        )
        assert wsc > nvl
