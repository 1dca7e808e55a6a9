"""CPU operator implementations (Section 4, CPU side).

Each operator comes in the variants the paper evaluates:

* Project (Q1/Q2): ``naive`` (multi-threaded scalar) and ``opt``
  (SIMD + non-temporal writes).
* Select (Q3): ``if`` (branching), ``pred`` (predicated), ``simd_pred``
  (vectorized selective stores).
* Hash join (Q4): ``scalar``, ``simd`` (vertical vectorization), and
  ``prefetch`` (group prefetching), all over the shared linear-probing hash
  table.
* Radix partitioning / LSB radix sort following Polychroniou & Ross, and
  the partitioned radix join built on them.

A kernel and its :mod:`repro.ops.gpu` twin share one answer path -- the
hash-table build, the radix-partition pass and the radix-sort loop live
here -- and differ only in their bill: the traffic they charge and the
simulator that prices it.
"""

from repro.ops.cpu.hash_join import cpu_hash_join_build, cpu_hash_join_probe
from repro.ops.cpu.project import cpu_project
from repro.ops.cpu.radix_join import cpu_radix_join
from repro.ops.cpu.radix_partition import cpu_radix_partition
from repro.ops.cpu.radix_sort import cpu_radix_sort
from repro.ops.cpu.select import cpu_select

__all__ = [
    "cpu_hash_join_build",
    "cpu_hash_join_probe",
    "cpu_project",
    "cpu_radix_join",
    "cpu_radix_partition",
    "cpu_radix_sort",
    "cpu_select",
]
