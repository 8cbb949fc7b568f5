"""Parallelism mappings: who sits where on the fabric.

A mapping fixes, for a given topology and parallelism degree:

* the TP groups of the attention layer and their ring traversal order,
* which devices *hold* a given group's tokens after the attention layer
  (the token-fetch source set for the MoE all-to-all),
* how the attention all-reduce is scheduled (plain rings, entwined
  staggered rings, or the hierarchical multi-wafer scheme).

Implementations: :class:`BaselineMapping` (contiguous tiles, the paper's
baseline), :class:`ERMapping` (entwined rings, Fig. 10a),
:class:`HierarchicalERMapping` (multi-WSC, Fig. 10c) and
:class:`GPUMapping` (TP groups within switch domains, for DGX/NVL72).
"""

from repro.mapping.base import Mapping, MeshMapping, ParallelismConfig
from repro.mapping.baseline import BaselineMapping
from repro.mapping.er import ERMapping
from repro.mapping.her import HierarchicalERMapping
from repro.mapping.gpu import GPUMapping
from repro.mapping.ftd import FTDAnalysis, analyze_ftds
from repro.mapping.placement import StackedPlacement

__all__ = [
    "ParallelismConfig",
    "Mapping",
    "MeshMapping",
    "BaselineMapping",
    "ERMapping",
    "HierarchicalERMapping",
    "GPUMapping",
    "FTDAnalysis",
    "analyze_ftds",
    "StackedPlacement",
]
