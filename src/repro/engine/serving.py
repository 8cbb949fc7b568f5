"""Multi-iteration serving simulation with dynamic load balancing.

Runs the inference loop: gating workload -> per-layer expert loads ->
Eq. 2 trigger -> balancer planning -> migration execution (invasive on the
critical path, or non-invasively drained through cold links) -> iteration
latency.  Produces the run-time traces behind Fig. 15 and the aggregate
comparisons of Fig. 16/17.

Every sparse layer's placement and balancer state is layer-stacked
(:class:`~repro.mapping.placement.StackedPlacement`, one sparse
replica-entry table for all layers, + the strategy's
:class:`~repro.balancer.base.Balancer`), so observing loads, evaluating
the Eq. 2 cumulative trigger, planning migrations and pricing MoE
rooflines cost a handful of vectorized ops regardless of depth.
``balancer_cls`` is the strategy class the simulator instantiates as its
:attr:`ServingSimulator.engine`.

Each layer pays its own all-to-all for its own demand and its own expert
placement: the workload resolves group-level gating counts for every layer
(:meth:`~repro.workload.gating.GatingSimulator.next_group_counts`), and
one call of the layer-batched
:class:`~repro.network.alltoall.LayeredDispatchPlan` prices every layer's
dispatch and combine against its own demand rows and destination shares.
Layer 0 takes the same path as every other layer; its components fill
``IterationRecord.breakdown``.
"""

import numbers
from dataclasses import dataclass, field

import numpy as np

from repro.analysis.load import device_token_loads
from repro.balancer.base import Balancer, BalancerConfig, Migration
from repro.balancer.migration import PendingMigration, SegmentKind, split_migration
from repro.engine.compute import RooflineTimes
from repro.engine.iteration import (
    EngineConfig,
    IterationBreakdown,
    IterationSimulator,
)
from repro.faults.health import topology_health
from repro.faults.schedule import (
    DeviceFailure,
    FaultSchedule,
    LinkDegradation,
    Straggler,
)
from repro.hardware.device import DeviceSpec
from repro.mapping.base import Mapping
from repro.mapping.placement import StackedPlacement
from repro.models.configs import MoEModelConfig
from repro.network.alltoall import layered_dispatch_plan
from repro.network.phase import migration_route_arrays
from repro.workload.gating import GatingSimulator


@dataclass(frozen=True)
class BalancingConfig:
    """Eq. 2 trigger and migration-execution parameters.

    Attributes:
        alpha: Eq. 2 threshold on the imbalance degree summed over layers
            (``inf`` never triggers).
        beta_iters: minimum iterations between invasive migrations (Eq. 2's
            delta-t constraint; non-invasive balancers use beta = 0).
        warmup_iters: iterations before balancing may trigger (load
            prediction needs history).
        shadow_slots: shadow capacity per device.
        migration_side_channel: hide migration behind a dedicated channel
            (the NVMe path GPU systems use, paper reference [3]) — exposed
            latency becomes zero even for invasive balancers.
    """

    alpha: float = 0.5
    beta_iters: int = 10
    warmup_iters: int = 5
    shadow_slots: int = 1
    migration_side_channel: bool = False

    def __post_init__(self) -> None:
        if not self.alpha >= 0:  # also rejects NaN
            raise ValueError(f"alpha must be >= 0, got {self.alpha}")
        for name in ("beta_iters", "warmup_iters", "shadow_slots"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or value < 0:
                raise ValueError(f"{name} must be a non-negative integer, got {value!r}")


@dataclass(frozen=True)
class ServingConfig:
    """Serving-loop parameters, grouped by concern.

    Attributes:
        num_iterations: iterations to simulate.
        balancing: Eq. 2 trigger and migration-execution knobs
            (:class:`BalancingConfig`).
    """

    num_iterations: int = 150
    balancing: BalancingConfig = field(default_factory=BalancingConfig)

    def __post_init__(self) -> None:
        if self.num_iterations <= 0:
            raise ValueError("num_iterations must be positive")


@dataclass(slots=True)
class IterationRecord:
    """Everything measured in one serving iteration."""

    iteration: int
    latency: float
    #: Layer 0's components (every layer shares its attention phase).
    breakdown: IterationBreakdown
    #: Mean all-to-all duration across the simulated layers, each layer
    #: priced against its own demand rows and its own placement
    #: (``breakdown.alltoall`` is layer 0's price alone).
    alltoall_mean: float
    #: Mean peak-device MoE roofline across the simulated layers
    #: (``breakdown.moe`` is layer 0's alone).
    moe_mean: RooflineTimes
    max_device_load: float
    mean_device_load: float
    migration_exposed: float
    migrations_started: int
    migrations_completed: int
    triggered: bool
    #: Faults in effect this iteration: dead devices + active straggler
    #: windows + degraded links.  Always 0 without a fault schedule.
    faults_active: int = 0
    #: Experts still lacking any live replica *after* this iteration's
    #: repair pass (nonzero only when repair ran out of shadow capacity).
    experts_orphaned: int = 0
    #: Emergency re-replications committed this iteration.
    repair_migrations: int = 0
    #: Exposed latency of restreaming repaired experts from the host side
    #: channel (charged on top of migration_exposed).
    repair_exposed: float = 0.0

    @property
    def load_ratio(self) -> float:
        if self.mean_device_load <= 0:
            return 1.0
        return self.max_device_load / self.mean_device_load


@dataclass
class ServingTrace:
    """Full run-time trace plus aggregate statistics."""

    records: list[IterationRecord] = field(default_factory=list)
    num_sparse_layers: int = 1

    def _steady(self, skip: int) -> list[IterationRecord]:
        """The steady-state tail after ``skip`` warmup iterations.

        When the trace is shorter than the warmup window the last record —
        the closest thing to steady state the run reached — stands in, so
        short runs never silently average warmup iterations back in.
        """
        if len(self.records) > skip:
            return self.records[skip:]
        return self.records[-1:]

    def mean_latency(self, skip: int = 0) -> float:
        steady = self._steady(skip)
        return float(np.mean([r.latency for r in steady]))

    def mean_load_ratio(self, skip: int = 0) -> float:
        steady = self._steady(skip)
        return float(np.mean([r.load_ratio for r in steady]))

    def mean_component(self, component: str, skip: int = 0) -> float:
        """Mean of a component ('alltoall', 'moe', ...), averaged over the
        simulated layers except for the layer-0 ``*_layer0`` components."""
        steady = self._steady(skip)
        values = []
        for record in steady:
            if component == "moe":
                values.append(record.moe_mean.total)
            elif component == "moe_compute":
                values.append(record.moe_mean.compute)
            elif component == "moe_memory":
                values.append(record.moe_mean.memory)
            elif component == "moe_layer0":
                values.append(record.breakdown.moe.total)
            elif component == "alltoall":
                values.append(record.alltoall_mean)
            elif component == "alltoall_layer0":
                values.append(record.breakdown.alltoall)
            elif component == "allreduce":
                values.append(record.breakdown.allreduce)
            elif component == "attention":
                values.append(record.breakdown.attention.total)
            else:
                raise ValueError(f"unknown component {component!r}")
        return float(np.mean(values))

    def total_migration_overhead(self) -> float:
        return sum(record.migration_exposed for record in self.records)

    def migration_overhead_fraction(self, skip: int = 0) -> float:
        steady = self._steady(skip)
        total = sum(record.latency for record in steady)
        if total <= 0:
            return 0.0
        return sum(record.migration_exposed for record in steady) / total

    def num_interruptions(self) -> int:
        return sum(1 for record in self.records if record.migration_exposed > 0)

    def num_migrations(self) -> int:
        return sum(record.migrations_started for record in self.records)

    # -- fault / recovery metrics -------------------------------------------------

    def first_fault_index(self) -> int | None:
        """Index of the first faulted iteration, or ``None`` (clean run)."""
        for index, record in enumerate(self.records):
            if record.faults_active > 0:
                return index
        return None

    def num_repairs(self) -> int:
        return sum(record.repair_migrations for record in self.records)

    def total_repair_exposed(self) -> float:
        return sum(record.repair_exposed for record in self.records)

    def time_to_recovery(
        self, epsilon: float = 0.05, baseline_window: int = 10
    ) -> float:
        """Iterations from the first fault until the system is healthy again.

        Healthy means no orphaned experts remain *and* the load ratio is
        back within ``1 + epsilon`` times the pre-fault baseline (the mean
        ratio over the ``baseline_window`` iterations before the fault).
        Returns 0.0 when the fault iteration itself already qualifies,
        ``inf`` when the trace never recovers, and NaN for a clean run.
        """
        first = self.first_fault_index()
        if first is None:
            return float("nan")
        pre = self.records[max(0, first - baseline_window) : first]
        baseline = (
            float(np.mean([r.load_ratio for r in pre])) if pre else 1.0
        )
        target = baseline * (1.0 + epsilon)
        for index in range(first, len(self.records)):
            record = self.records[index]
            if record.experts_orphaned == 0 and record.load_ratio <= target:
                return float(index - first)
        return float("inf")

    def degraded_throughput_fraction(self, baseline_window: int = 10) -> float:
        """Throughput lost to the fault: ``1 - pre_latency / post_latency``.

        Compares mean iteration latency over the pre-fault baseline window
        against the whole post-fault tail (clamped at 0 — a fault cannot
        *gain* throughput).  NaN for a clean run or a fault at iteration 0
        (no baseline to compare against).
        """
        first = self.first_fault_index()
        if first is None or first == 0:
            return float("nan")
        pre = self.records[max(0, first - baseline_window) : first]
        post = self.records[first:]
        pre_latency = float(np.mean([r.latency for r in pre]))
        post_latency = float(np.mean([r.latency for r in post]))
        if post_latency <= 0:
            return 0.0
        return max(0.0, 1.0 - pre_latency / post_latency)


class ServingSimulator:
    """The serving loop: workload -> balancer -> iteration latency."""

    def __init__(
        self,
        device: DeviceSpec,
        model: MoEModelConfig,
        mapping: Mapping,
        workload: GatingSimulator,
        balancer_cls: type[Balancer],
        engine_config: EngineConfig | None = None,
        serving_config: ServingConfig | None = None,
        balancer_config: BalancerConfig | None = None,
        fault_schedule: FaultSchedule | None = None,
    ) -> None:
        if not (isinstance(balancer_cls, type) and issubclass(balancer_cls, Balancer)):
            raise ValueError(
                "balancer_cls must be a repro.balancer.Balancer subclass, "
                f"got {balancer_cls!r}"
            )
        if workload.num_groups != mapping.dp:
            raise ValueError(
                f"workload draws demand for {workload.num_groups} DP groups "
                f"but the mapping has {mapping.dp}"
            )
        if workload.model.num_experts != model.num_experts:
            raise ValueError(
                f"workload gates over {workload.model.num_experts} experts "
                f"but the model has {model.num_experts}"
            )
        self.device = device
        self.model = model
        self.mapping = mapping
        self.workload = workload
        self.serving_config = serving_config or ServingConfig()
        self.engine_config = engine_config or EngineConfig(
            tokens_per_group=workload.tokens_per_group
        )
        self.simulator = IterationSimulator(device, model, mapping, self.engine_config)
        self.num_layers = workload.num_layers

        num_devices = mapping.topology.num_devices
        placement = StackedPlacement(
            self.num_layers,
            model.num_experts,
            num_devices,
            shadow_slots=self.serving_config.balancing.shadow_slots,
        )
        self.engine: Balancer = balancer_cls(
            placement,
            mapping.topology,
            expert_bytes=model.expert_bytes,
            config=balancer_config,
        )
        #: (layer, migration, in-flight state) for non-invasive draining.
        self._in_flight: list[tuple[int, Migration, PendingMigration]] = []
        self._last_migration_iter = -(10**9)

        #: Recycled (layers, groups, experts) demand buffer — every cell is
        #: rewritten each iteration, so one allocation serves the whole run.
        self._counts_buffer: np.ndarray | None = None

        #: Fault-injection state.  An empty schedule is normalized to None
        #: so the zero-cost-when-disabled discipline (every fault branch
        #: guarded on ``self._faults is not None``) also covers it.
        if fault_schedule is not None and not fault_schedule.events:
            fault_schedule = None
        self._faults = fault_schedule
        self._dead: set[int] = set()
        self._active_stragglers: list[Straggler] = []
        self._active_link_faults: list[LinkDegradation] = []
        self._device_scale: np.ndarray | None = None
        self._attention_scale = 1.0
        if self._faults is not None:
            self._validate_schedule(num_devices)

    def _validate_schedule(self, num_devices: int) -> None:
        topology = self.mapping.topology
        dead: set[int] = set()
        for event in self._faults.events:
            if isinstance(event, LinkDegradation):
                if not (
                    0 <= event.src < num_devices and 0 <= event.dst < num_devices
                ):
                    raise ValueError(
                        f"link fault endpoint out of range: {event.src}->{event.dst}"
                    )
                if (event.src, event.dst) not in topology.links:
                    raise ValueError(
                        f"no link {event.src}->{event.dst} in this topology"
                    )
            else:
                if event.device >= num_devices:
                    raise ValueError(
                        f"fault device {event.device} out of range "
                        f"(0..{num_devices - 1})"
                    )
                if isinstance(event, DeviceFailure):
                    dead.add(event.device)
        if len(dead) >= num_devices:
            raise ValueError("fault schedule fails every device")
        for group in self.mapping.tp_groups:
            if all(device in dead for device in group):
                raise ValueError(
                    "fault schedule fails an entire TP group — attention "
                    "work there has no survivors to redistribute onto"
                )

    @property
    def invasive(self) -> bool:
        return self.engine.invasive

    # -- migration pricing -------------------------------------------------------

    def _migration_path_time(self, migration: Migration) -> float:
        """Store-and-forward weight-copy latency on the critical path.

        Per-pair (bandwidth, latency) arrays come from the shared phase
        route cache instead of re-walking ``topology.route`` per migration;
        the cumulative sum keeps the seed's sequential accumulation order,
        so the priced latency is bit-identical to the original loop.
        """
        bandwidths, latencies = migration_route_arrays(
            self.mapping.topology, migration.src, migration.dst
        )
        if bandwidths.size == 0:
            return 0.0
        return float(np.cumsum(migration.volume / bandwidths + latencies)[-1])

    def _ftd_of(self, device: int):
        ftd_fn = getattr(self.mapping, "ftd_of", None)
        if ftd_fn is None:
            return None
        return ftd_fn(device)

    # -- the loop -----------------------------------------------------------------

    def run(self) -> ServingTrace:
        trace = ServingTrace(num_sparse_layers=self.model.num_sparse_layers)
        for _ in range(self.serving_config.num_iterations):
            trace.records.append(self.step())
        return trace

    # -- fault-health introspection ------------------------------------------------

    def dead_devices(self) -> frozenset[int]:
        """Devices lost to fail-stop failures so far (never revived)."""
        return frozenset(self._dead)

    def straggling_devices(self) -> frozenset[int]:
        """Devices inside an active straggler window right now.

        Unlike :meth:`dead_devices` this set shrinks again when windows
        expire — the signal the serving front end's dispatcher uses to
        blacklist a replica group temporarily and reinstate it afterwards.
        """
        return frozenset(
            straggler.device for straggler in self._active_stragglers
        )

    def group_health(self) -> list[bool]:
        """Per-DP-group health flag, index-aligned with ``mapping.tp_groups``.

        A group is healthy while none of its members has failed; straggler
        windows degrade but do not kill a group.
        """
        return [
            all(member not in self._dead for member in group)
            for group in self.mapping.tp_groups
        ]

    def step(self, tokens_per_group: int | None = None) -> IterationRecord:
        """Advance one serving iteration and return its record.

        ``tokens_per_group`` sets this iteration's per-group batch size —
        the continuous-batching front end passes the tokens of the
        requests actually in flight, so attention time, all-reduce volume
        and gating demand all scale with occupancy.  ``None`` (the
        closed-loop default, what :meth:`run` uses) keeps the workload's
        fixed batch and replays the pinned traces bit-identically.
        """
        iteration = self.workload.iteration
        # Group-resolved demand for every layer: layer 0 exact, later
        # layers split from their exact totals (flat selection-slot
        # model), so each layer's own demand skew reaches the pricer.
        counts, layer_loads = self.workload.next_group_counts(
            return_loads=True,
            out=self._counts_buffer,
            tokens_per_group=tokens_per_group,
        )
        self._counts_buffer = counts
        self.engine.observe(layer_loads)

        repair_exposed = 0.0
        repairs = 0
        orphaned = 0
        faults_active = 0
        if self._faults is not None:
            repair_exposed, repairs, orphaned, faults_active = self._apply_faults(
                iteration
            )

        exposed, started = self._maybe_rebalance(iteration)

        # Every layer pays its own all-to-all and MoE roofline, priced in
        # one batch over the layer-stacked placement; all layers share the
        # attention phase.
        attention, allreduce = self.simulator.attention_and_allreduce(
            tokens_per_group
        )
        if self._attention_scale != 1.0:
            # TP groups that lost members redistribute attention work over
            # the survivors; the slowest straggler paces the rest.  The
            # all-reduce is unscaled — the ring still runs over every
            # device position (routers survive fail-stop).
            attention = RooflineTimes(
                compute=attention.compute * self._attention_scale,
                memory=attention.memory * self._attention_scale,
            )
        placement = self.engine.placement
        # Scale to bytes in place: the buffer is fully redrawn next
        # iteration, so nothing reads the unscaled counts again.
        counts *= self.model.token_bytes
        plan = layered_dispatch_plan(self.mapping, placement)
        phases = plan.alltoall_durations_resolved(counts)
        moe_compute, moe_memory = self.simulator.compute.moe_peak_arrays(
            layer_loads, placement, device_scale=self._device_scale
        )
        breakdown = IterationBreakdown(
            attention=attention,
            allreduce=allreduce.duration,
            dispatch=float(phases[0, 0]),
            combine=float(phases[0, 1]),
            moe=RooflineTimes(compute=float(moe_compute[0]), memory=float(moe_memory[0])),
            pipeline_stages=self.engine_config.pipeline_stages,
            overlap=self.engine_config.overlap,
        )
        layer_a2a = phases.sum(axis=1)
        moe_totals = moe_compute + moe_memory
        if self.engine_config.overlap:
            stages = self.engine_config.pipeline_stages
            longer = np.maximum(moe_totals, layer_a2a)
            shorter = np.minimum(moe_totals, layer_a2a)
            moe_phases = longer + shorter / stages
        else:
            moe_phases = moe_totals + layer_a2a
        a2a_mean = float(np.mean(layer_a2a))

        # Depth-scaled sum over the simulated layers: every layer
        # contributes its own MoE phase (compute roofline + all-to-all
        # price), normalized by the simulated depth.
        latency = (
            self.model.num_sparse_layers
            * float(np.mean(breakdown.attention_phase + moe_phases))
            + exposed
            + repair_exposed
        )

        completed = self._drain_migrations(
            ar_duration=breakdown.allreduce * self.model.num_sparse_layers,
            a2a_duration=a2a_mean * self.model.num_sparse_layers,
        )

        max_load, mean_load = self._device_load_stats(layer_loads)
        return IterationRecord(
            iteration=iteration,
            latency=latency,
            breakdown=breakdown,
            alltoall_mean=a2a_mean,
            moe_mean=RooflineTimes(
                compute=float(np.mean(moe_compute)),
                memory=float(np.mean(moe_memory)),
            ),
            max_device_load=max_load,
            mean_device_load=mean_load,
            migration_exposed=exposed,
            migrations_started=started,
            migrations_completed=completed,
            triggered=started > 0,
            faults_active=faults_active,
            experts_orphaned=orphaned,
            repair_migrations=repairs,
            repair_exposed=repair_exposed,
        )

    # -- fault injection ----------------------------------------------------------

    def _apply_faults(self, iteration: int) -> tuple[float, int, int, int]:
        """Expire windows, land this iteration's events, repair orphans.

        Returns ``(repair_exposed, repair_migrations, experts_orphaned,
        faults_active)`` for the iteration record.  Consumes no RNG — the
        schedule is fully concrete — so the trace prefix before the first
        event is bitwise identical to a run without the schedule.
        """
        topology = self.mapping.topology

        if self._active_stragglers:
            expired = [
                straggler
                for straggler in self._active_stragglers
                if iteration >= straggler.iteration + straggler.duration
            ]
            if expired:
                health = topology_health(topology, create=True)
                for straggler in expired:
                    health.clear_compute_factor(straggler.device)
                self._active_stragglers = [
                    straggler
                    for straggler in self._active_stragglers
                    if iteration < straggler.iteration + straggler.duration
                ]
                self._recompute_scales()
        if self._active_link_faults:
            expired_links = [
                fault
                for fault in self._active_link_faults
                if fault.duration is not None
                and iteration >= fault.iteration + fault.duration
            ]
            if expired_links:
                health = topology_health(topology, create=True)
                for fault in expired_links:
                    health.restore_link(fault.src, fault.dst)
                self._active_link_faults = [
                    fault
                    for fault in self._active_link_faults
                    if fault not in expired_links
                ]

        scale_dirty = False
        for event in self._faults.events_at(iteration):
            if isinstance(event, DeviceFailure):
                self._fail_device(event.device)
                scale_dirty = True
            elif isinstance(event, LinkDegradation):
                topology_health(topology, create=True).degrade_link(
                    event.src, event.dst, event.factor
                )
                self._active_link_faults.append(event)
            elif event.device not in self._dead:
                topology_health(topology, create=True).set_compute_factor(
                    event.device, event.factor
                )
                self._active_stragglers.append(event)
                scale_dirty = True
        if scale_dirty:
            self._recompute_scales()

        # Emergency repair: orphaned experts re-replicate onto survivors
        # immediately, bypassing the Eq. 2 trigger and beta cooldown.  The
        # weights restream from the host side channel; concurrent restores
        # to different devices overlap, so the exposed stall is set by the
        # busiest destination.
        repair_exposed = 0.0
        repairs = self.engine.plan_repairs()
        if repairs:
            self._commit_many(repairs)
            per_destination: dict[int, int] = {}
            for _layer, migration in repairs:
                per_destination[migration.dst] = (
                    per_destination.get(migration.dst, 0) + 1
                )
            repair_exposed = (
                self.model.expert_bytes
                * max(per_destination.values())
                / self._faults.restore_bandwidth
            )

        orphan_layers, _orphan_experts = self.engine.placement.orphaned()
        faults_active = (
            len(self._dead)
            + len(self._active_stragglers)
            + len(self._active_link_faults)
        )
        return repair_exposed, len(repairs), int(orphan_layers.size), faults_active

    def _fail_device(self, device: int) -> None:
        if device in self._dead:
            return
        self._dead.add(device)
        # In-flight migrations sourcing from or landing on the dead device
        # are lost with it.
        if self._in_flight:
            surviving: list[tuple[int, Migration, PendingMigration]] = []
            for layer, migration, pending in self._in_flight:
                if migration.src == device or migration.dst == device:
                    self.engine.abandon(layer, migration)
                else:
                    surviving.append((layer, migration, pending))
            self._in_flight = surviving
        topology_health(self.mapping.topology, create=True).fail_device(device)
        self.engine.mark_device_failed(device)
        self.engine.placement.fail_device(device)

    def _recompute_scales(self) -> None:
        num_devices = self.mapping.topology.num_devices
        scale = np.ones(num_devices)
        worst_straggler = 1.0
        for straggler in self._active_stragglers:
            if straggler.device in self._dead:
                continue
            scale[straggler.device] = max(scale[straggler.device], straggler.factor)
            worst_straggler = max(worst_straggler, straggler.factor)
        self._device_scale = scale if (scale != 1.0).any() else None
        attention = 1.0
        if self._dead:
            for group in self.mapping.tp_groups:
                lost = sum(1 for member in group if member in self._dead)
                if lost:
                    attention = max(attention, len(group) / (len(group) - lost))
        self._attention_scale = attention * worst_straggler

    # -- balancing ----------------------------------------------------------------

    def _commit_many(self, items: list[tuple[int, Migration]]) -> None:
        """Commit a trigger's (or drain cycle's) migrations in one batch."""
        if items:
            self.engine.commit_many(items)

    def _maybe_rebalance(self, iteration: int) -> tuple[float, int]:
        config = self.serving_config.balancing
        if iteration < config.warmup_iters:
            return 0.0, 0
        # Pending-free heats serve both the trigger and the eviction
        # threshold; nothing mutates in between.
        trigger_heats = self.engine.heats(include_pending=False)
        if self.engine.imbalance_sum(trigger_heats) <= config.alpha:
            return 0.0, 0
        beta = 0 if not self.invasive else config.beta_iters
        if iteration - self._last_migration_iter < beta:
            return 0.0, 0

        # Layers are independent (each owns its placement and pending set),
        # so evicting and planning all layers up front is
        # decision-equivalent to a per-layer evict/plan/commit
        # interleaving; migrations execute in layer-major order either way.
        self.engine.evict_stale(trigger_heats)
        layer_plans = self.engine.plan(iteration)

        exposed = 0.0
        started = 0
        # Invasive commits apply as one batch after pricing: path pricing
        # reads only the topology, never the placement, so deferring the
        # placement mutations is decision-equivalent to the per-migration
        # interleaving while letting bursty triggers (16 migrations per
        # layer across all layers) hit the vectorized mutation path.
        commits: list[tuple[int, Migration]] = []
        for layer, migrations in enumerate(layer_plans):
            for migration in migrations:
                started += 1
                if self.invasive and not config.migration_side_channel:
                    exposed += self._migration_path_time(migration)
                    commits.append((layer, migration))
                elif self.invasive:
                    commits.append((layer, migration))
                else:
                    pending = split_migration(
                        self.mapping.topology,
                        self._ftd_of,
                        migration.expert,
                        migration.src,
                        migration.dst,
                        migration.volume,
                        iteration=iteration,
                    )
                    self._in_flight.append((layer, migration, pending))
        self._commit_many(commits)
        if started:
            self._last_migration_iter = iteration
        return exposed, started

    def _drain_migrations(self, ar_duration: float, a2a_duration: float) -> int:
        """Advance non-invasive migrations through the iteration's cold windows."""
        if not self._in_flight:
            return 0
        finished: list[tuple[int, Migration]] = []
        remaining: list[tuple[int, Migration, PendingMigration]] = []
        for layer, migration, pending in self._in_flight:
            # Local segments ride the attention all-reduce windows, the
            # Global segment the all-to-all windows; the layer-by-layer
            # alternation means all three segments can progress within one
            # iteration when budgets allow.
            for kind, duration in (
                (SegmentKind.LOCAL, ar_duration),
                (SegmentKind.GLOBAL, a2a_duration),
                (SegmentKind.LOCAL, ar_duration),
            ):
                segment = pending.current_segment
                if segment is None:
                    break
                if segment.kind is not kind:
                    continue
                # Cold links retain >= 50% spare capacity (they work at
                # most every other cycle), so migration may borrow half
                # the link bandwidth over the phase window.
                budget = 0.5 * duration * segment.min_bandwidth
                pending.advance(kind, budget)
            if pending.done:
                finished.append((layer, migration))
            else:
                remaining.append((layer, migration, pending))
        self._commit_many(finished)
        self._in_flight = remaining
        return len(finished)

    # -- stats ----------------------------------------------------------------------

    def _device_load_stats(self, layer_loads: np.ndarray) -> tuple[float, float]:
        device_loads = device_token_loads(layer_loads, self.engine.placement)
        if self._dead:
            # Dead devices carry no load by construction; keeping their
            # zero columns would flatter the mean.
            device_loads = device_loads[:, self.engine.live_devices]
        return (
            float(np.mean(device_loads.max(axis=1))),
            float(np.mean(device_loads.mean(axis=1))),
        )
