"""GPU no-partitioning hash join (Section 4.3) as Crystal kernels."""

from __future__ import annotations

import numpy as np

from repro.crystal import BlockContext, CrystalKernel, Tile, block_aggregate, block_load, block_lookup
from repro.hardware.counters import TrafficCounter
from repro.ops.base import OperatorResult
from repro.ops.cpu.hash_join import join_build
from repro.ops.hash_table import LinearProbingHashTable
from repro.sim.gpu import GPUSimulator, KernelLaunch
from repro.sim.timing import TimeBreakdown


def _price_build(traffic: TrafficCounter, table: LinearProbingHashTable) -> TimeBreakdown:
    # Each thread inserts its tuple with an atomic compare-and-swap on the slot.
    traffic.atomic_updates = traffic.random_accesses
    traffic.atomic_targets = float(table.num_slots)
    return GPUSimulator().run_kernel(traffic, KernelLaunch(label="gpu-join-build")).time


def gpu_hash_join_build(
    build_keys: np.ndarray, build_values: np.ndarray
) -> tuple[LinearProbingHashTable, OperatorResult]:
    """Build the hash table on the GPU.

    Each thread inserts one tuple with an atomic compare-and-swap on the
    slot; writes to a table larger than the L2 go to global memory, so the
    build phase scales linearly with the build relation (the paper's
    build-phase discussion).
    """
    return join_build(build_keys, build_values, "gpu", _price_build)


def gpu_hash_join_probe(
    probe_keys: np.ndarray,
    probe_values: np.ndarray,
    table: LinearProbingHashTable,
) -> OperatorResult:
    """Probe the hash table and compute ``SUM(A.v + B.v)`` on the GPU.

    The kernel loads a tile of keys and payloads with ``block_load``, probes
    the table with ``block_lookup`` (random accesses served by L1/L2/global
    memory depending on the table size), accumulates a per-thread local sum,
    and reduces it with ``block_aggregate`` -- one atomic per thread block.
    """
    probe_keys = np.asarray(probe_keys)
    probe_values = np.asarray(probe_values)
    if probe_keys.shape != probe_values.shape:
        raise ValueError("probe keys and values must align")

    def body(ctx: BlockContext) -> float:
        key_tile = block_load(ctx, probe_keys)
        value_tile = block_load(ctx, probe_values)
        found, build_payload = block_lookup(ctx, key_tile, table)
        contributions = np.where(
            found, value_tile.values.astype(np.float64) + build_payload.astype(np.float64), 0.0
        )
        total = block_aggregate(ctx, Tile(values=contributions), op="sum", counter_name="checksum")
        return total

    result = CrystalKernel(body, label="gpu-join-probe").run()
    checksum = float(result.value)
    n = probe_keys.shape[0]
    return OperatorResult(
        value=checksum,
        time=result.time,
        traffic=result.traffic,
        device="gpu",
        variant="crystal",
        stats={
            "probe_rows": float(n),
            "hash_table_bytes": float(table.size_bytes),
        },
    )
