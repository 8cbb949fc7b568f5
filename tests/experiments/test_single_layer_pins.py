"""Exact pins of the single-layer figures' point metrics.

fig01, fig04, fig11 and fig12 build their placements themselves and price
one MoE layer each: fig01 and fig04 through ``ComputeModel.moe_peak_time``,
fig01 and fig11 through ``simulate_alltoall`` and fig12 through
``device_token_loads``.  fig14a prices one ESP layer per platform, its
token gather read from the mapping's holder table.  Every float metric is
pinned bit for bit as ``float.hex``; text metrics are pinned verbatim.  A
moved pin means the priced numbers moved: do not re-capture it to make a
refactor pass.
"""

import pytest

from repro.experiments import get_spec

FIG11_4X4_TP4 = """\
--- 4x4 WSC, TP=4 (2, 2) ---
attention all-reduce device heat:
+ # # +
# # # #
# # # #
+ # # +
MoE all-to-all device heat:
# # # #
# # # #
# # # #
# # # #
complementarity (links cold in >= 1 phase): 1.00"""

FIG11_4X4_TP2 = """\
--- 4x4 WSC, TP=2 (2, 1) ---
attention all-reduce device heat:
+ + + +
# # # #
# # # #
+ + + +
MoE all-to-all device heat:
# # # #
# # # #
# # # #
# # # #
complementarity (links cold in >= 1 phase): 1.00"""

FIG11_6X6_TP4 = """\
--- 6x6 WSC, TP=4 (2, 2) ---
attention all-reduce device heat:
+ # # # # +
# # # # # #
# # # # # #
# # # # # #
# # # # # #
+ # # # # +
MoE all-to-all device heat:
# # # # # #
# # # # # #
# # # # # #
# # # # # #
# # # # # #
# # # # # #
complementarity (links cold in >= 1 phase): 0.60"""

#: (spec, params, metrics): floats as ``float.hex``, strings verbatim.
PINS = [
    (
        "fig01_breakdown",
        {"platform": "dgx4"},
        {
            "alltoall": "0x1.e116b3de2cde4p-13",
            "moe": "0x1.c580cb28fbc52p-15",
            "total": "0x1.e116b3de2cde4p-13",
        },
    ),
    (
        "fig01_breakdown",
        {"platform": "nvl72"},
        {
            "alltoall": "0x1.3b2b145a7f88fp-16",
            "moe": "0x1.174b25cea09dap-15",
            "total": "0x1.174b25cea09dap-15",
        },
    ),
    (
        "fig01_breakdown",
        {"platform": "wsc_baseline"},
        {
            "alltoall": "0x1.c80cd6448c0e5p-13",
            "moe": "0x1.047e4d06a0305p-16",
            "total": "0x1.c80cd6448c0e5p-13",
        },
    ),
    (
        "fig01_breakdown",
        {"platform": "wsc_her"},
        {
            "alltoall": "0x1.0208df343559ap-15",
            "moe": "0x1.047e4d06a0305p-16",
            "total": "0x1.0208df343559ap-15",
        },
    ),
    (
        "fig04_ep_sweep_deepseek_v3",
        {"model": "deepseek-v3", "ep": 8},
        {
            "experts_per_device": "0x1.0000000000000p+5",
            "memory_fraction": "0x1.e470d223bdaf7p-1",
            "throughput": "0x1.4fb1402bbcf28p+18",
        },
    ),
    (
        "fig04_ep_sweep_deepseek_v3",
        {"model": "deepseek-v3", "ep": 16},
        {
            "experts_per_device": "0x1.0000000000000p+4",
            "memory_fraction": "0x1.cbb25cc1af808p-1",
            "throughput": "0x1.3e8bcc518c7a4p+19",
        },
    ),
    (
        "fig04_ep_sweep_deepseek_v3",
        {"model": "deepseek-v3", "ep": 32},
        {
            "experts_per_device": "0x1.0000000000000p+3",
            "memory_fraction": "0x1.a116cd05bf1e9p-1",
            "throughput": "0x1.21056be525bc9p+20",
        },
    ),
    (
        "fig04_ep_sweep_deepseek_v3",
        {"model": "deepseek-v3", "ep": 72},
        {
            "experts_per_device": "0x1.c71c71c71c71cp+1",
            "memory_fraction": "0x1.529fd4a7f52a0p-1",
            "throughput": "0x1.d54c60a2481c7p+20",
        },
    ),
    (
        "fig04_ep_sweep_deepseek_v3",
        {"model": "deepseek-v3", "ep": 256},
        {
            "experts_per_device": "0x1.0000000000000p+0",
            "memory_fraction": "0x1.6b10378223569p-2",
            "throughput": "0x1.f72b15125c526p+21",
        },
    ),
    (
        "fig04_ep_sweep_qwen3",
        {"model": "qwen3-235b", "ep": 8},
        {
            "experts_per_device": "0x1.0000000000000p+4",
            "memory_fraction": "0x1.cbb25cc1af808p-1",
            "throughput": "0x1.73a31909ce8eap+20",
        },
    ),
    (
        "fig04_ep_sweep_qwen3",
        {"model": "qwen3-235b", "ep": 16},
        {
            "experts_per_device": "0x1.0000000000000p+3",
            "memory_fraction": "0x1.a116cd05bf1eap-1",
            "throughput": "0x1.5130fde0ac06bp+21",
        },
    ),
    (
        "fig04_ep_sweep_qwen3",
        {"model": "qwen3-235b", "ep": 32},
        {
            "experts_per_device": "0x1.0000000000000p+2",
            "memory_fraction": "0x1.5fdcf85652e22p-1",
            "throughput": "0x1.1c75cd42eea43p+22",
        },
    ),
    (
        "fig04_ep_sweep_qwen3",
        {"model": "qwen3-235b", "ep": 72},
        {
            "experts_per_device": "0x1.c71c71c71c71cp+0",
            "memory_fraction": "0x1.f9edc95c143cbp-2",
            "throughput": "0x1.9903533567526p+22",
        },
    ),
    (
        "fig04_ep_sweep_qwen3",
        {"model": "qwen3-235b", "ep": 256},
        {
            "experts_per_device": "0x1.0000000000000p-1",
            "memory_fraction": "0x1.b94b761eb1caep-3",
            "throughput": "0x1.64c29e49a5ae8p+22",
        },
    ),
    (
        "fig11_heatmaps",
        {"case": [4, 4, [2, 2]]},
        {"block": FIG11_4X4_TP4, "complementarity": "0x1.0000000000000p+0"},
    ),
    (
        "fig11_heatmaps",
        {"case": [4, 2, [2, 1]]},
        {"block": FIG11_4X4_TP2, "complementarity": "0x1.0000000000000p+0"},
    ),
    (
        "fig11_heatmaps",
        {"case": [6, 4, [2, 2]]},
        {"block": FIG11_6X6_TP4, "complementarity": "0x1.3333333333333p-1"},
    ),
    (
        "fig12_load_traces",
        {"scenario": "chat"},
        {
            "name": "Chat",
            "early": "0x1.72f3b645a1cadp-7",
            "late": "0x1.0f3020c49ba5ep-9",
            "peak": "0x1.b100000000000p+0",
        },
    ),
    (
        "fig12_load_traces",
        {"scenario": "coding"},
        {
            "name": "Coding",
            "early": "0x1.59371758e2197p-7",
            "late": "0x1.1ccc63f141206p-9",
            "peak": "0x1.60e0000000000p+0",
        },
    ),
    (
        "fig12_load_traces",
        {"scenario": "math"},
        {
            "name": "Math",
            "early": "0x1.2011e4f765fd8p-6",
            "late": "0x1.133f141205bc0p-9",
            "peak": "0x1.fd40000000000p+0",
        },
    ),
    (
        "fig12_load_traces",
        {"scenario": "privacy"},
        {
            "name": "Privacy",
            "early": "0x1.5fe0c49ba5e34p-7",
            "late": "0x1.07f0068db8badp-9",
            "peak": "0x1.7ee0000000000p+0",
        },
    ),
    (
        "fig14a_esp",
        {"model": "dbrx"},
        {
            "name": "DBRX",
            "dgx": "0x1.c90055089cbc0p-13",
            "wsc": "0x1.583a2fd4e7300p-14",
            "er": "0x1.f782a264402a1p-15",
        },
    ),
    (
        "fig14a_esp",
        {"model": "mixtral-8x22b"},
        {
            "name": "Mixtral-8x22B",
            "dgx": "0x1.da32ac73bd9c4p-14",
            "wsc": "0x1.67bf08165c454p-15",
            "er": "0x1.0a040a1454522p-15",
        },
    ),
]


def _exact(metrics: dict) -> dict:
    return {
        key: value.hex() if isinstance(value, float) else value
        for key, value in metrics.items()
    }


@pytest.mark.parametrize(
    "name, params, expected",
    PINS,
    ids=[f"{name}-{'-'.join(str(v) for v in params.values())}" for name, params, _ in PINS],
)
def test_point_metrics_pinned(name, params, expected):
    assert _exact(get_spec(name).point(params)) == expected


def test_pins_cover_every_grid_point():
    for name in {name for name, _, _ in PINS}:
        pinned = [params for spec_name, params, _ in PINS if spec_name == name]
        assert pinned == get_spec(name).expand(), name
