"""GPU operator implementations built on the Crystal primitives (Section 4).

* Project (Q1/Q2): a single fused kernel of two ``block_load``s, the
  arithmetic, and a ``block_store``.
* Select (Q3): the Figure 4(b)/Figure 8 single-kernel tile-based selection,
  plus the three-kernel independent-threads baseline of Figure 4(a) used in
  the Section 3.3 comparison.
* Hash join (Q4): ``block_load`` + ``block_lookup`` + ``block_aggregate``.
* Radix partitioning / sort: the stable (LSB, 7 bits per pass) and unstable
  (MSB, 8 bits per pass) GPU variants.

Each kernel returns the same answer as its :mod:`repro.ops.cpu` twin and
differs only in its bill.  The hash-join build and the radix kernels reuse
the CPU side's answer path and add their traffic and launch; the kernels
that run a ``CrystalKernel`` keep their tile bodies, since the tile is what
Section 3.3 reproduces.
"""

from repro.ops.gpu.hash_join import gpu_hash_join_build, gpu_hash_join_probe
from repro.ops.gpu.project import gpu_project
from repro.ops.gpu.radix_partition import gpu_radix_partition
from repro.ops.gpu.radix_sort import gpu_radix_sort
from repro.ops.gpu.select import gpu_select, gpu_select_independent_threads

__all__ = [
    "gpu_hash_join_build",
    "gpu_hash_join_probe",
    "gpu_project",
    "gpu_radix_partition",
    "gpu_radix_sort",
    "gpu_select",
    "gpu_select_independent_threads",
]
