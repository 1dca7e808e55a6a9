"""Experiment harness: regenerate every table and figure of the paper.

:mod:`repro.analysis.experiments` contains one ``run_*`` function per
experiment (Figure 3, Figure 9, Figure 10, Figure 12, Figure 13, Figure 14,
Figure 16, Table 2, Table 3, the Section 3.3 Crystal-vs-independent-threads
comparison, and the Section 5.3 q2.1 case study).  Each returns a plain data
structure (rows / series) that the ``benchmarks/bench_*.py`` scripts print
and whose assertions check against the paper's reported values.

:mod:`repro.analysis.scaling` rescales a query profile measured at a small
scale factor up to the paper's SF 20, and :mod:`repro.analysis.cost`
implements the Table 3 dollar-cost comparison.
"""

from repro.analysis.capacity import MultiGPUConfig, gpus_needed, placement_advice
from repro.analysis.cost import CostComparison, cost_comparison
from repro.analysis.report import format_series, format_table
from repro.analysis.scaling import scale_profile

__all__ = [
    "CostComparison",
    "MultiGPUConfig",
    "cost_comparison",
    "format_series",
    "format_table",
    "gpus_needed",
    "placement_advice",
    "scale_profile",
]
