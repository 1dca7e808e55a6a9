"""CPU partitioned (radix) hash join (Section 4.3 discussion).

The radix join first radix-partitions both input relations into
cache-sized chunks and then joins the corresponding partitions with small,
cache-resident hash tables.  It avoids the random DRAM accesses of the
no-partitioning join at the price of extra partitioning passes and of losing
pipelining: the whole input must be materialized before the join can start,
which is why the paper (and this reproduction's SSB engines) still use the
no-partitioning join for multi-join queries.
"""

from __future__ import annotations

import numpy as np

from repro.hardware.counters import TrafficCounter
from repro.ops.base import OperatorResult
from repro.ops.cpu.radix_partition import RadixPartitionOutput, cpu_radix_partition
from repro.ops.hash_table import LinearProbingHashTable
from repro.sim.cpu import CPUSimulator
from repro.sim.timing import TimeBreakdown

#: Each partition's hash table is sized to fit this budget: the per-core L2.
_PARTITION_BUDGET_BYTES = 96 * 1024


def _partitions_needed(build_rows: int) -> int:
    """Radix bits needed so each partition's half-full hash table fits the budget."""
    table_bytes = build_rows / 0.5 * 8.0
    bits = 0
    while (table_bytes / (1 << bits)) > _PARTITION_BUDGET_BYTES and bits < 16:
        bits += 1
    return bits


def _runs(output: RadixPartitionOutput) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each partition's keys and payloads: one contiguous, stably ordered run."""
    bounds = [*output.partition_offsets.tolist(), output.keys.shape[0]]
    return [(output.keys[lo:hi], output.payloads[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]


def cpu_radix_join(
    build_keys: np.ndarray,
    build_values: np.ndarray,
    probe_keys: np.ndarray,
    probe_values: np.ndarray,
) -> OperatorResult:
    """Radix-partitioned hash join computing ``SUM(A.v + B.v)`` over matches.

    Both relations are partitioned on the same low-order key bits so that
    matching keys land in the same partition; each partition pair is then
    joined with a cache-resident linear-probing hash table.

    Args:
        build_keys / build_values: The (smaller) build relation.
        probe_keys / probe_values: The probe relation.
    """
    build_keys = np.asarray(build_keys)
    build_values = np.asarray(build_values)
    probe_keys = np.asarray(probe_keys)
    probe_values = np.asarray(probe_values)
    if build_keys.shape != build_values.shape or probe_keys.shape != probe_values.shape:
        raise ValueError("key and value columns must align")

    radix_bits = _partitions_needed(build_keys.shape[0])
    time = TimeBreakdown()
    traffic = TrafficCounter()

    if radix_bits == 0:
        build_parts = [(build_keys, build_values)]
        probe_parts = [(probe_keys, probe_values)]
    else:
        build_out, b_hist, b_shuffle = cpu_radix_partition(build_keys, build_values, radix_bits=radix_bits)
        probe_out, p_hist, p_shuffle = cpu_radix_partition(probe_keys, probe_values, radix_bits=radix_bits)
        for label, result in (
            ("partition.build.hist", b_hist), ("partition.build.shuffle", b_shuffle),
            ("partition.probe.hist", p_hist), ("partition.probe.shuffle", p_shuffle),
        ):
            time.merge(result.time, prefix=label + ".")
            traffic.merge(result.traffic)
        build_parts = _runs(build_out)
        probe_parts = _runs(probe_out)

    # Join each partition pair with a cache-resident hash table.
    checksum = 0.0
    matches = 0
    partition_table_bytes = 0.0
    for (b_keys, b_values), (p_keys, p_values) in zip(build_parts, probe_parts):
        if b_keys.shape[0] == 0 or p_keys.shape[0] == 0:
            continue
        table = LinearProbingHashTable.build(b_keys, b_values)
        partition_table_bytes = max(partition_table_bytes, float(table.size_bytes))
        found, payload = table.probe(p_keys)
        checksum += float(np.sum(p_values[found].astype(np.float64) + payload[found].astype(np.float64)))
        matches += int(np.count_nonzero(found))

    join_traffic = TrafficCounter(
        sequential_read_bytes=float(build_keys.nbytes + build_values.nbytes
                                    + probe_keys.nbytes + probe_values.nbytes),
        random_accesses=float(probe_keys.shape[0] + build_keys.shape[0]),
        random_working_set_bytes=max(partition_table_bytes, 1.0),
        random_access_bytes=8.0,
        compute_ops=float(probe_keys.shape[0] + build_keys.shape[0]) * 6.0,
    )
    join_exec = CPUSimulator().run(join_traffic, label="partitioned-join")
    time.merge(join_exec.time, prefix="join.")
    traffic.merge(join_traffic)

    return OperatorResult(
        value=checksum,
        time=time,
        traffic=traffic,
        device="cpu",
        variant="radix",
        stats={
            "probe_rows": float(probe_keys.shape[0]),
            "build_rows": float(build_keys.shape[0]),
            "matches": float(matches),
            "radix_bits": float(radix_bits),
            "partition_hash_table_bytes": partition_table_bytes,
        },
    )
