"""CPU no-partitioning hash join (Section 4.3, query Q4).

The join is split into the two standard phases:

* :func:`cpu_hash_join_build` populates a shared linear-probing hash table
  from the build relation in parallel.
* :func:`cpu_hash_join_probe` probes the table with the probe relation and
  computes the ``SUM(A.v + B.v)`` checksum of the microbenchmark.  Three
  probe variants are provided: ``scalar`` (tuple at a time), ``simd``
  (vertical vectorization with gathers -- slower in practice because every
  8-key round needs two gathers plus de-interleaving), and ``prefetch``
  (group prefetching, which only helps once the table spills out of the LLC
  and costs extra instructions when it does not).

:func:`join_build` is the build phase the GPU shares; each device adds only
its traffic and its simulator call.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.hardware.counters import TrafficCounter
from repro.ops.base import OperatorResult
from repro.ops.hash_table import LinearProbingHashTable
from repro.sim.cpu import CPUSimulator
from repro.sim.timing import TimeBreakdown

#: Scalar-equivalent instruction cost per probed tuple for each variant.
#: The SIMD variant's gathers and de-interleave shuffles do not vectorize
#: the probe loop's latency chain, so its per-tuple cost is the highest
#: (this is what makes CPU SIMD slower than CPU Scalar in Figure 13).
PROBE_OPS = {"scalar": 6.0, "simd": 11.0, "prefetch": 8.5}

#: Effective fraction of DRAM bandwidth achieved on probe misses.  Group
#: prefetching keeps more misses in flight and gets closer to peak.
RANDOM_EFFICIENCY = {"scalar": 0.62, "simd": 0.62, "prefetch": 0.72}


def join_build(
    build_keys: np.ndarray,
    build_values: np.ndarray,
    device: str,
    price: Callable[[TrafficCounter, LinearProbingHashTable], TimeBreakdown],
) -> tuple[LinearProbingHashTable, OperatorResult]:
    """Build the hash table from the build relation, billed by ``price``.

    The build scans the build relation once and scatters one slot write
    per tuple.  ``price(traffic, table)`` adds what only the device does to
    that traffic and returns the simulated time.
    """
    build_keys = np.asarray(build_keys)
    table = LinearProbingHashTable.build(build_keys, build_values)
    n = build_keys.shape[0]
    traffic = TrafficCounter(
        sequential_read_bytes=float(n * 8),
        random_accesses=float(n),
        random_working_set_bytes=float(table.size_bytes),
        random_access_bytes=float(table.slot_bytes),
        compute_ops=float(n) * 4.0,
    )
    result = OperatorResult(
        value=table,
        time=price(traffic, table),
        traffic=traffic,
        device=device,
        variant="build",
        stats={
            "build_rows": float(n),
            "hash_table_bytes": float(table.size_bytes),
            "collisions": float(table.build_stats.collisions),
        },
    )
    return table, result


def cpu_hash_join_build(
    build_keys: np.ndarray, build_values: np.ndarray
) -> tuple[LinearProbingHashTable, OperatorResult]:
    """Build the shared hash table from the build relation.

    Returns the table and the simulated build-phase execution; writes to a
    large table stream to memory, as the paper's discussion of the build
    phase notes.
    """
    return join_build(
        build_keys,
        build_values,
        "cpu",
        lambda traffic, table: CPUSimulator().run(traffic, label="cpu-join-build").time,
    )


def cpu_hash_join_probe(
    probe_keys: np.ndarray,
    probe_values: np.ndarray,
    table: LinearProbingHashTable,
    variant: str = "scalar",
) -> OperatorResult:
    """Probe the hash table and compute ``SUM(A.v + B.v)`` over matches.

    Args:
        probe_keys / probe_values: Columns of the probe relation.
        table: Hash table produced by :func:`cpu_hash_join_build`.
        variant: ``"scalar"``, ``"simd"``, or ``"prefetch"``.

    Returns:
        An :class:`~repro.ops.base.OperatorResult` whose value is the
        checksum (a float) and whose stats include the match count.
    """
    if variant not in PROBE_OPS:
        raise ValueError(f"unknown CPU probe variant {variant!r}; expected one of {tuple(PROBE_OPS)}")
    simulator = CPUSimulator()
    probe_keys = np.asarray(probe_keys)
    probe_values = np.asarray(probe_values)
    if probe_keys.shape != probe_values.shape:
        raise ValueError("probe keys and values must align")

    found, build_payload = table.probe(probe_keys)
    checksum = float(np.sum(probe_values[found].astype(np.float64) + build_payload[found].astype(np.float64)))

    n = probe_keys.shape[0]
    traffic = TrafficCounter(
        sequential_read_bytes=float(n * 8),
        random_accesses=float(n),
        random_working_set_bytes=float(table.size_bytes),
        random_access_bytes=float(table.slot_bytes),
        compute_ops=float(n) * PROBE_OPS[variant],
        atomic_updates=float(simulator.spec.cores),
        atomic_targets=1.0,
    )
    execution = simulator.run(
        traffic,
        use_simd=False,
        random_efficiency=RANDOM_EFFICIENCY[variant],
        label=f"cpu-join-probe-{variant}",
    )
    return OperatorResult(
        value=checksum,
        time=execution.time,
        traffic=traffic,
        device="cpu",
        variant=variant,
        stats={
            "probe_rows": float(n),
            "matches": float(np.count_nonzero(found)),
            "match_rate": float(np.count_nonzero(found)) / n if n else 0.0,
            "hash_table_bytes": float(table.size_bytes),
        },
    )
