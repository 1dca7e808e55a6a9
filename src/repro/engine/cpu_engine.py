"""Standalone CPU engine (the paper's hand-optimized CPU implementation).

Execution strategy (Section 5.2, "Standalone CPU"):

* For every dimension join, scan the (filtered) dimension once and build a
  cache-resident hash table keyed on the dimension key.
* Run a single pipelined pass over the fact table: vectors of rows flow
  through the fact filters (SIMD predicates), the chained hash-table probes,
  and into the final grouped aggregate without materializing intermediates.
* The probes of the chained joins are *dependent* random accesses: the CPU
  cannot hide their latency behind the streaming scan, which is why measured
  CPU runtimes exceed the bandwidth-saturated model (Section 5.3).
"""

from __future__ import annotations

from repro.engine.plan import QueryProfile
from repro.hardware.counters import TrafficCounter
from repro.sim.cpu import CPUSimulator
from repro.sim.timing import TimeBreakdown
from repro.ssb.queries import SSBQuery
from repro.storage import Database


class CPUStandaloneEngine:
    """Pipelined, vectorized, SIMD CPU query engine."""

    name = "standalone-cpu"

    def __init__(self, db: Database) -> None:
        self.db = db
        self.simulator = CPUSimulator()

    # ------------------------------------------------------------------
    def build_time(self, profile: QueryProfile) -> TimeBreakdown:
        """Time to build the dimension hash tables."""
        time = TimeBreakdown()
        for stage in profile.joins:
            traffic = TrafficCounter(
                sequential_read_bytes=stage.build_scan_bytes,
                sequential_write_bytes=stage.hash_table_bytes,
                compute_ops=float(stage.dimension_rows) * 3.0,
            )
            execution = self.simulator.run(traffic, use_simd=True, label=f"build-{stage.dimension}")
            time.merge(execution.time, prefix=f"build.{stage.dimension}.")
        return time

    def probe_time(self, profile: QueryProfile) -> TimeBreakdown:
        """Time of the pipelined probe pass over the fact table."""
        line = self.simulator.spec.cache_line_bytes
        time = TimeBreakdown()

        # Streaming component: fact columns under the selective-access rule,
        # plus the (small) grouped output.  Fused band predicates evaluate
        # branch-free inside the SIMD pipeline; each extra OR alternative
        # costs one more predicated pass over the L1-resident vector to
        # merge its lane into the selection mask, so branchy disjunctions
        # are charged extra compute and L1 traffic (conjunctive plans are
        # unchanged).
        or_branches = profile.filter_or_branches()
        streaming = TrafficCounter(
            sequential_read_bytes=profile.selective_column_bytes(line),
            sequential_write_bytes=float(profile.num_groups) * profile.output_row_bytes,
            shared_bytes=float(profile.fact_rows) * 4.0 * or_branches,
            compute_ops=float(profile.fact_rows) * (4.0 + float(or_branches)),
        )
        scan_exec = self.simulator.run(
            streaming, use_simd=True, non_temporal_writes=True, label="fact-scan"
        )
        time.merge(scan_exec.time, prefix="scan.")

        # Dependent probes of each chained join.
        for stage in profile.joins:
            probe = TrafficCounter(
                random_accesses=stage.probe_rows,
                random_working_set_bytes=stage.hash_table_bytes,
                random_access_bytes=8.0,
                compute_ops=stage.probe_rows * 3.0,
            )
            probe_exec = self.simulator.run(
                probe, dependent_random=True, label=f"probe-{stage.dimension}"
            )
            time.merge(probe_exec.time, prefix=f"probe.{stage.dimension}.")

        # Grouped aggregation over the surviving rows (tiny, cache resident).
        aggregate = TrafficCounter(
            random_accesses=profile.result_input_rows,
            random_working_set_bytes=float(profile.num_groups) * profile.output_row_bytes,
            random_access_bytes=profile.output_row_bytes,
            compute_ops=profile.result_input_rows * 3.0,
        )
        agg_exec = self.simulator.run(aggregate, label="aggregate")
        time.merge(agg_exec.time, prefix="aggregate.")
        return time

    # ------------------------------------------------------------------
    def simulate(self, query: SSBQuery, profile: QueryProfile) -> TimeBreakdown:
        """Simulated runtime of ``query`` for an already-collected profile
        (or one rescaled to the paper's SF 20 data sizes)."""
        time = TimeBreakdown()
        time.merge(self.build_time(profile))
        time.merge(self.probe_time(profile))
        return time

    def traffic(self, profile: QueryProfile) -> TrafficCounter:
        """Bytes the fact pass streams: the selected columns in, the groups out."""
        return TrafficCounter(
            sequential_read_bytes=profile.selective_column_bytes(self.simulator.spec.cache_line_bytes),
            sequential_write_bytes=float(profile.num_groups) * profile.output_row_bytes,
        )
