"""Per-die compute and memory specification.

All rates use base SI units: FLOP/s, bytes, bytes/s.  Helper constructors
accept the more convenient TFLOPS / GB / TB-per-second units used in the
paper text.
"""

import math
from dataclasses import dataclass

TERA = 1e12
GIGA = 1e9


@dataclass(frozen=True)
class DeviceSpec:
    """Compute die specification.

    Attributes:
        name: human-readable identifier.
        fp16_flops: peak FP16 throughput in FLOP/s (attention layers).
        int8_ops: peak INT8 throughput in OP/s (expert / linear layers,
            which the paper quantises to INT8).
        hbm_capacity: HBM capacity in bytes.
        hbm_bandwidth: HBM read bandwidth in bytes/s.
    """

    name: str
    fp16_flops: float
    int8_ops: float
    hbm_capacity: float
    hbm_bandwidth: float

    def __post_init__(self) -> None:
        for field in ("fp16_flops", "int8_ops", "hbm_capacity", "hbm_bandwidth"):
            value = getattr(self, field)
            if not 0 < value < math.inf:
                raise ValueError(f"{field} must be positive and finite, got {value}")

    @classmethod
    def from_units(
        cls,
        name: str,
        fp16_tflops: float,
        hbm_capacity_gb: float,
        hbm_bandwidth_tbps: float,
        int8_tops: float | None = None,
    ) -> "DeviceSpec":
        """Build a spec from TFLOPS / GB / TB-per-second values.

        INT8 throughput defaults to twice the FP16 rate, the usual tensor
        core ratio and the one implied by the paper's INT8 quantisation of
        linear operations.
        """
        if int8_tops is None:
            int8_tops = 2.0 * fp16_tflops
        return cls(
            name=name,
            fp16_flops=fp16_tflops * TERA,
            int8_ops=int8_tops * TERA,
            hbm_capacity=hbm_capacity_gb * GIGA,
            hbm_bandwidth=hbm_bandwidth_tbps * TERA,
        )


#: The paper's reference die: "each device in the WSC is equivalent to an
#: NVIDIA B200 GPU capable of 2250 TFLOPS@FP16, equipped with 180GB HBM
#: featuring 8TB/s access bandwidth" (Sec. VI-A1).
B200 = DeviceSpec.from_units(
    name="B200",
    fp16_tflops=2250.0,
    hbm_capacity_gb=180.0,
    hbm_bandwidth_tbps=8.0,
)
