"""Device load accounting."""

import numpy as np

from repro.mapping.placement import ExpertPlacement, StackedPlacement


def device_token_loads(
    expert_loads: np.ndarray, placement: ExpertPlacement
) -> np.ndarray:
    """Tokens each device processes, splitting replicated experts equally."""
    loads = np.asarray(expert_loads, dtype=float)
    if loads.shape != (placement.num_experts,):
        raise ValueError(
            f"expected {placement.num_experts} expert loads, got {loads.shape}"
        )
    counts = placement.replica_counts
    shares = np.divide(
        np.where(loads > 0, loads, 0.0),
        counts,
        out=np.zeros_like(loads),
        where=counts > 0,
    )
    return shares @ placement.replica_matrix


def stacked_device_token_loads(
    layer_loads: np.ndarray, placement: StackedPlacement
) -> np.ndarray:
    """Per-device token loads for every layer: ``(layers, devices)``.

    One sum over the stack's replica entries
    (:meth:`~repro.mapping.placement.StackedPlacement.device_sums`).  Each
    device sums its experts' shares in entry order, so with at most two experts per
    device a layer's row is bitwise identical to
    :func:`device_token_loads` on that layer, and within one rounding per
    extra term beyond.
    """
    loads = np.asarray(layer_loads, dtype=float)
    expected = (placement.num_layers, placement.num_experts)
    if loads.shape != expected:
        raise ValueError(f"expected {expected} layer loads, got {loads.shape}")
    counts = placement.replica_counts
    shares = np.divide(
        np.where(loads > 0, loads, 0.0),
        counts,
        out=np.zeros_like(loads),
        where=counts > 0,
    )
    return placement.device_sums(shares)


def load_ratio(device_loads: np.ndarray) -> float:
    """Peak-to-mean device load (the paper's Max/Avg ratio)."""
    loads = np.asarray(device_loads, dtype=float)
    mean = loads.mean()
    if mean <= 0:
        return 1.0
    return float(loads.max() / mean)


def imbalance_degree(device_loads: np.ndarray) -> float:
    """Eq. 2's per-layer imbalance degree: (max - mean) / mean."""
    return max(0.0, load_ratio(device_loads) - 1.0)
