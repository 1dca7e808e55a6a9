"""Hardware substrate: device specifications and memory-hierarchy models.

The paper's analysis is grounded in a small set of hardware parameters
(Table 2 of the paper): memory bandwidths, cache sizes and bandwidths, cache
line / memory transaction granularities, and the PCIe link bandwidth.  This
package provides:

* :mod:`repro.hardware.specs` -- dataclasses describing a CPU, a GPU, and
  their cache levels.
* :mod:`repro.hardware.presets` -- the concrete Intel i7-6900 and Nvidia
  V100 specifications used throughout the paper, plus the measured PCIe
  bandwidth.
* :mod:`repro.hardware.cache` -- an analytic cache-hit-ratio model (used by
  the cost models) and a set-associative LRU cache simulator (the reference
  the analytic model is checked against).
* :mod:`repro.hardware.memory` -- the device a piece of data resides on.
* :mod:`repro.hardware.interconnect` -- the PCIe transfer model used by the
  coprocessor experiments.
* :mod:`repro.hardware.counters` -- memory-traffic counters shared by the
  operator implementations and the simulators.
"""

from repro.hardware.cache import AnalyticCacheModel, SetAssociativeCache
from repro.hardware.counters import TrafficCounter
from repro.hardware.interconnect import PCIeLink
from repro.hardware.presets import (
    AWS_P3_2XLARGE,
    AWS_R5_2XLARGE,
    DEFAULT_PCIE,
    INTEL_I7_6900,
    NVIDIA_V100,
    bandwidth_ratio,
)
from repro.hardware.specs import CacheLevelSpec, CPUSpec, GPUSpec

__all__ = [
    "AnalyticCacheModel",
    "AWS_P3_2XLARGE",
    "AWS_R5_2XLARGE",
    "CacheLevelSpec",
    "CPUSpec",
    "DEFAULT_PCIE",
    "GPUSpec",
    "INTEL_I7_6900",
    "NVIDIA_V100",
    "PCIeLink",
    "SetAssociativeCache",
    "TrafficCounter",
    "bandwidth_ratio",
]
