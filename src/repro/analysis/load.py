"""Device load accounting."""

import numpy as np

from repro.mapping.placement import StackedPlacement


def device_token_loads(
    layer_loads: np.ndarray, placement: StackedPlacement
) -> np.ndarray:
    """Tokens each device processes per layer, ``(layers, experts)`` loads
    to ``(layers, devices)``: each expert's load splits equally over its
    replicas (the Load/Num rule).

    One sum over the stack's replica entries
    (:meth:`~repro.mapping.placement.StackedPlacement.device_sums`), each
    device adding its experts' shares in entry order.
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
