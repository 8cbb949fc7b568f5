"""Gating simulator: per-iteration expert-selection token counts.

For every MoE layer the simulator keeps an *effective popularity* state
that relaxes toward the current scenario-mixture popularity — so a fixed
scenario stabilises after a warm-up (Fig. 12) while a drifting mixture
keeps moving.  Token-to-expert assignment draws a multinomial over that
popularity, the standard aggregate approximation of top-k routing (each of
``tokens * top_k`` selection slots lands independently).
"""

import numpy as np

from repro.checks import check_count
from repro.models.configs import MoEModelConfig
from repro.workload import sampling
from repro.workload.mixers import ConstantMixer, ScenarioMixer
from repro.workload.scenarios import ScenarioProfile


class GatingSimulator:
    """Generates (layers x groups x experts) token-count tensors.

    Args:
        model: MoE model configuration.
        num_groups: DP groups (each contributes ``tokens_per_group`` tokens).
        tokens_per_group: tokens processed per group per iteration.
        mixer: scenario composition over time; a single
            :class:`ScenarioProfile` is promoted to a constant mixer.
        num_layers: simulated MoE layers (statistics for the Eq. 2 trigger).
        adaptation: per-iteration relaxation rate toward the target
            popularity; smaller = longer warm-up.
        seed: RNG seed.
        balanced: force uniform popularity (the balanced-gating ablation of
            Sec. VI-B).
    """

    def __init__(
        self,
        model: MoEModelConfig,
        num_groups: int,
        tokens_per_group: int,
        mixer: ScenarioMixer | ScenarioProfile,
        num_layers: int = 4,
        adaptation: float = 0.08,
        seed: int = 0,
        balanced: bool = False,
    ) -> None:
        check_count("num_groups", num_groups, minimum=1)
        check_count("tokens_per_group", tokens_per_group, minimum=1)
        check_count("num_layers", num_layers, minimum=1)
        if not (0.0 < adaptation <= 1.0):
            raise ValueError(f"adaptation must be in (0, 1], got {adaptation}")
        if isinstance(mixer, ScenarioProfile):
            mixer = ConstantMixer([mixer])
        self.model = model
        self.num_groups = int(num_groups)
        self.tokens_per_group = int(tokens_per_group)
        self.mixer = mixer
        self.num_layers = int(num_layers)
        self.adaptation = adaptation
        self.balanced = balanced
        self._rng = np.random.default_rng(seed)
        self._iteration = 0
        # Warm start far from the stationary profile: uniform popularity.
        self._state = np.full(
            (num_layers, model.num_experts), 1.0 / model.num_experts
        )
        self._balanced_popularity = np.full(
            (num_layers, model.num_experts), 1.0 / model.num_experts
        )

    @property
    def iteration(self) -> int:
        return self._iteration

    def _advance_popularity(self) -> np.ndarray:
        """Relax the per-layer popularity state one step; return (L, E)."""
        if self.balanced:
            return self._balanced_popularity
        # One batched mixer query: the mixer advances any per-layer state
        # (AR(1) noise) exactly as layer-sequential popularity() calls
        # would, and the profile mixing is a single einsum.
        targets = self.mixer.popularity_matrix(
            self.model.num_experts, self.num_layers, self._iteration
        )
        self._state = (
            (1.0 - self.adaptation) * self._state + self.adaptation * targets
        )
        return self._state

    def _resolve_selections(self, tokens_per_group: int | None) -> int:
        """Expert-selection slots per group for this iteration.

        ``None`` (the closed-loop default) keeps the constructor's
        ``tokens_per_group`` — bit-identical draws.  The serving front end
        passes the continuous-batching batch size instead, making demand
        scale with the requests actually in flight.
        """
        if tokens_per_group is None:
            tokens_per_group = self.tokens_per_group
        else:
            check_count("tokens_per_group", tokens_per_group, minimum=1)
        return int(tokens_per_group) * self.model.experts_per_token

    def next_loads(
        self, tokens_per_group: int | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Advance one iteration; return (layer-0 group counts, layer totals).

        Only layer 0 is resolved into DP groups; every other layer draws
        its per-expert totals.  Summing ``num_groups`` iid multinomials
        equals one multinomial with ``num_groups * selections`` trials, so
        layers past the first draw ``experts`` binomials instead of
        ``groups x experts``.  These are exactly the first two RNG
        consumptions of :meth:`next_group_counts`, which then splits the
        totals into groups — the reference its layer totals are tested
        against.
        """
        model = self.model
        selections = self._resolve_selections(tokens_per_group)
        popularity = self._advance_popularity()
        counts0 = self._rng.multinomial(
            selections, popularity[0], size=self.num_groups
        ).astype(float)
        loads = np.empty((self.num_layers, model.num_experts))
        loads[0] = counts0.sum(axis=0)
        if self.num_layers > 1:
            loads[1:] = self._rng.multinomial(
                self.num_groups * selections,
                popularity[1:, None, :],
                size=(self.num_layers - 1, 1),
            )[:, 0, :]
        self._iteration += 1
        return counts0, loads

    def next_group_counts(
        self,
        return_loads: bool = False,
        out: np.ndarray | None = None,
        tokens_per_group: int | None = None,
    ) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
        """Advance one iteration; return (layers, groups, experts) demand.

        With ``return_loads`` the (layers, experts) per-expert totals ride
        along as a second array, sparing the serving loop one reduction
        over the full demand tensor: the multinomial split preserves the
        drawn layer totals bit-exactly, so they *are* the group sum.
        ``out``, when given, receives the demand tensor in place (every
        cell is overwritten) and is returned — the serving loop recycles
        one buffer instead of faulting in ~1 MB per iteration.

        The demand-resolved serving path: every layer gets its *own*
        group-resolved counts, so per-layer demand skew reaches the
        all-to-all pricer instead of broadcasting layer 0's rows.  Drawing
        ``layers x groups x experts`` independent multinomial cells would
        multiply the serving loop's RNG floor by ~``layers`` (numpy's
        per-binomial cost dominates, not the trial count), so the draw is
        hierarchical and stays on the cheap large-``n`` path:

        1. Layer 0 keeps the exactly-resolved integer counts of
           :meth:`next_loads` — one multinomial per group, so every group
           fills exactly ``selections`` slots — and layers past the first
           draw the same layer-total multinomials.  The first two RNG
           consumptions are bit-identical to :meth:`next_loads`, so layer
           totals match it exactly in distribution.  With one layer that
           is the whole draw: one ``(groups, experts)`` multinomial.
        2. Each later layer's totals are resolved into DP groups under the
           *flat selection-slot* model — all ``groups x selections`` slots
           of a layer land independently, so a group's total fluctuates as
           ``Binomial(groups * selections, 1/groups)`` around
           ``selections`` instead of being pinned to it.  The split is the
           exact integer law ``Multinomial(total, 1/groups)`` per (layer,
           expert) cell, drawn by the
           :func:`repro.workload.sampling.multinomial_split` binary
           thinning tree; it preserves layer totals exactly.

        The layer-total multinomials stay on ``Generator.multinomial``
        deliberately: numpy's single batched C call is already exact *and*
        faster than a kernel tree at that shape, and keeping it preserves
        the :meth:`next_loads` RNG stream bit-for-bit.  The split draws
        come after, so a given seed yields another — equally distributed
        in totals — trace realization than :meth:`next_loads`.
        """
        model = self.model
        num_groups = self.num_groups
        selections = self._resolve_selections(tokens_per_group)
        popularity = self._advance_popularity()
        counts0 = self._rng.multinomial(
            selections, popularity[0], size=num_groups
        ).astype(float)
        shape = (self.num_layers, num_groups, model.num_experts)
        if out is None:
            counts = np.empty(shape)
        else:
            if out.shape != shape or out.dtype != np.float64:
                raise ValueError(
                    f"out must be float64 with shape {shape}, got "
                    f"{out.dtype} {out.shape}"
                )
            counts = out
        counts[0] = counts0
        totals = None
        if self.num_layers > 1:
            totals = self._rng.multinomial(
                num_groups * selections,
                popularity[1:, None, :],
                size=(self.num_layers - 1, 1),
            )[:, 0, :]
            sampling.multinomial_split(
                self._rng, totals, num_groups, axis=1, out=counts[1:]
            )
        self._iteration += 1
        if not return_loads:
            return counts
        loads = np.empty((self.num_layers, model.num_experts))
        loads[0] = counts0.sum(axis=0)
        if totals is not None:
            loads[1:] = totals
        return counts, loads

    def expert_loads(self, counts: np.ndarray) -> np.ndarray:
        """Sum counts over groups: (layers, experts) total expert loads."""
        return counts.sum(axis=1)
