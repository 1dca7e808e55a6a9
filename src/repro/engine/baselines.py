"""Calibrated baseline engines: Hyper-like, MonetDB-like, and OmniSci-like.

The paper compares its Standalone CPU/GPU implementations against three
existing systems.  Those systems are closed source (Hyper, OmniSci) or
impractical to embed here (MonetDB), so the reproduction models each one by
executing the same queries with that system's *documented execution
strategy* on the same simulated hardware:

* **Hyper-like** -- a compiled, pipelined, push-based CPU engine.  Its plan
  shape matches the Standalone CPU engine; what it lacks is the
  hand-vectorized predicate evaluation and the streaming stores, so it pays
  scalar predicate costs and regular write traffic (the paper measures
  Standalone CPU at about 1.17x faster on average).
* **MonetDB-like** -- an operator-at-a-time column engine.  Every operator
  materializes its full intermediate result (selection vectors, join
  row-id lists) to memory before the next operator starts, so each query
  pays several extra passes over fact-table-sized intermediates; this is
  the inefficiency the paper repeatedly warns against using as a baseline.
* **OmniSci-like** -- a GPU engine that treats each thread as an independent
  unit (no tile staging in shared memory): per-row access is uncoalesced
  (every 4-byte access moves a 32-byte sector), intermediates are
  materialized between operator kernels, and output writes are scattered.
  The paper measures Crystal at roughly 16x faster.
"""

from __future__ import annotations

from repro.engine.plan import QueryProfile
from repro.hardware.counters import TrafficCounter
from repro.sim.cpu import CPUSimulator
from repro.sim.gpu import GPUSimulator, KernelLaunch
from repro.sim.timing import TimeBreakdown
from repro.ssb.queries import SSBQuery
from repro.storage import Database

#: Sector size moved by an uncoalesced per-thread access on the GPU.
_UNCOALESCED_SECTOR_BYTES = 32


class HyperLikeEngine:
    """A compiled, pipelined CPU OLAP engine without hand-tuned SIMD."""

    name = "hyper"

    def __init__(self, db: Database) -> None:
        self.db = db
        self.simulator = CPUSimulator()

    def simulate(self, query: SSBQuery, profile: QueryProfile) -> TimeBreakdown:
        """Simulated runtime for an already-collected profile."""
        line = self.simulator.spec.cache_line_bytes
        time = TimeBreakdown()

        # Build phase: same hash tables as the standalone engine.
        for stage in profile.joins:
            traffic = TrafficCounter(
                sequential_read_bytes=stage.build_scan_bytes,
                sequential_write_bytes=stage.hash_table_bytes,
                compute_ops=float(stage.dimension_rows) * 4.0,
            )
            time.merge(self.simulator.run(traffic, label=f"build-{stage.dimension}").time,
                       prefix=f"build.{stage.dimension}.")

        # Pipelined probe pass: scalar predicates, regular stores.  Compiled
        # scalar code evaluates one data-dependent branch per predicate leaf
        # plus one short-circuit jump per OR alternative, so branchy
        # disjunctions pay extra misprediction stalls that fused band
        # predicates do not.  (Counts come from the profile's filter stages,
        # so rescaled profiles charge consistently.)
        streaming = TrafficCounter(
            sequential_read_bytes=profile.selective_column_bytes(line),
            sequential_write_bytes=float(profile.num_groups) * profile.output_row_bytes,
            compute_ops=float(profile.fact_rows) * 8.0,
            data_dependent_branches=float(profile.fact_rows)
            * float(profile.filter_leaf_count() + profile.filter_or_branches()),
            branch_miss_rate=0.25,
        )
        time.merge(self.simulator.run(streaming, use_simd=False, label="fact-scan").time, prefix="scan.")

        for stage in profile.joins:
            probe = TrafficCounter(
                random_accesses=stage.probe_rows,
                random_working_set_bytes=stage.hash_table_bytes,
                random_access_bytes=8.0,
                compute_ops=stage.probe_rows * 4.0,
            )
            time.merge(
                self.simulator.run(probe, dependent_random=True, label=f"probe-{stage.dimension}").time,
                prefix=f"probe.{stage.dimension}.",
            )

        aggregate = TrafficCounter(
            random_accesses=profile.result_input_rows,
            random_working_set_bytes=float(profile.num_groups) * profile.output_row_bytes,
            compute_ops=profile.result_input_rows * 4.0,
        )
        time.merge(self.simulator.run(aggregate, label="aggregate").time, prefix="aggregate.")
        return time

    def traffic(self, profile: QueryProfile) -> TrafficCounter:
        """A baseline is priced by its runtime alone: it reports no traffic."""
        return TrafficCounter()


class MonetDBLikeEngine:
    """An operator-at-a-time column engine with full intermediate materialization.

    Besides materializing every intermediate, MonetDB's operator-at-a-time
    execution parallelizes each operator independently ("mitosis"), which on
    short-running operators leaves part of the machine idle; the engine
    therefore runs its streaming operators at a reduced effective core count.
    """

    name = "monetdb"

    #: Effective cores the operator-at-a-time execution keeps busy.
    effective_cores = 3

    def __init__(self, db: Database) -> None:
        self.db = db
        self.simulator = CPUSimulator()

    def simulate(self, query: SSBQuery, profile: QueryProfile) -> TimeBreakdown:
        """Simulated runtime for an already-collected profile."""
        time = TimeBreakdown()
        n = float(profile.fact_rows)

        # Every fact filter is its own operator: read the column, write a
        # full selection vector; a combining AND re-reads the vectors.
        for index, access in enumerate(a for a in profile.column_accesses if a.role == "filter"):
            traffic = TrafficCounter(
                sequential_read_bytes=access.column_bytes + (n * 4 if index > 0 else 0.0),
                sequential_write_bytes=n * 4,
                compute_ops=n * 2.0,
            )
            time.merge(self.simulator.run(traffic, cores=self.effective_cores, label=f"select-{access.column}").time,
                       prefix=f"select{index}.")

        # Operator-at-a-time disjunctions: every OR leaf beyond the one
        # select per column above is its own extra scan, and every OR
        # alternative needs a selection-vector union pass -- all fully
        # materialized.  Fused band predicates (pure conjunctions) add
        # nothing here; this is the materialization tax the paper warns
        # about when such systems are used as baselines.
        for index, stage in enumerate(profile.filter_stages):
            extra_scans = max(stage.leaf_count - len(stage.columns), 0)
            for scan in range(extra_scans):
                traffic = TrafficCounter(
                    sequential_read_bytes=n * 4,
                    sequential_write_bytes=n * 4,
                    compute_ops=n * 2.0,
                )
                time.merge(
                    self.simulator.run(traffic, cores=self.effective_cores, label=f"select-leaf{index}.{scan}").time,
                    prefix=f"select-leaf{index}.{scan}.",
                )
            for union in range(stage.or_branches):
                traffic = TrafficCounter(
                    sequential_read_bytes=n * 8,
                    sequential_write_bytes=n * 4,
                    compute_ops=n * 1.0,
                )
                time.merge(
                    self.simulator.run(traffic, cores=self.effective_cores, label=f"union{index}.{union}").time,
                    prefix=f"union{index}.{union}.",
                )

        # Build phase.
        for stage in profile.joins:
            traffic = TrafficCounter(
                sequential_read_bytes=stage.build_scan_bytes,
                sequential_write_bytes=stage.hash_table_bytes,
                compute_ops=float(stage.dimension_rows) * 4.0,
            )
            time.merge(self.simulator.run(traffic, cores=self.effective_cores, label=f"build-{stage.dimension}").time,
                       prefix=f"build.{stage.dimension}.")

        # Each join is its own operator: read the key column and the current
        # row-id list, probe, and materialize the surviving row ids plus the
        # fetched payload column.
        for stage in profile.joins:
            surviving = stage.probe_rows * stage.selectivity
            traffic = TrafficCounter(
                sequential_read_bytes=stage.probe_rows * 4 + stage.probe_rows * 8,
                sequential_write_bytes=surviving * 8 + (surviving * 4 if stage.has_payload else 0.0),
                random_accesses=stage.probe_rows,
                random_working_set_bytes=stage.hash_table_bytes,
                random_access_bytes=8.0,
                compute_ops=stage.probe_rows * 4.0,
            )
            time.merge(
                self.simulator.run(traffic, cores=self.effective_cores, dependent_random=True, label=f"join-{stage.dimension}").time,
                prefix=f"join.{stage.dimension}.",
            )

        # Final aggregation: re-read the materialized measure and group columns.
        measures = [a for a in profile.column_accesses if a.role == "measure"]
        aggregate = TrafficCounter(
            sequential_read_bytes=sum(a.column_bytes for a in measures)
            + profile.result_input_rows * 4 * max(len(query.group_by), 1),
            sequential_write_bytes=float(profile.num_groups) * profile.output_row_bytes,
            random_accesses=profile.result_input_rows,
            random_working_set_bytes=float(profile.num_groups) * profile.output_row_bytes,
            compute_ops=profile.result_input_rows * 4.0,
        )
        time.merge(self.simulator.run(aggregate, cores=self.effective_cores, label="aggregate").time, prefix="aggregate.")
        return time

    def traffic(self, profile: QueryProfile) -> TrafficCounter:
        """A baseline is priced by its runtime alone: it reports no traffic."""
        return TrafficCounter()


class OmnisciLikeEngine:
    """A thread-per-row GPU engine without tile staging or coalesced output."""

    name = "omnisci"

    def __init__(self, db: Database) -> None:
        self.db = db
        self.simulator = GPUSimulator()

    def simulate(self, query: SSBQuery, profile: QueryProfile) -> TimeBreakdown:
        """Simulated runtime for an already-collected profile."""
        time = TimeBreakdown()
        n = float(profile.fact_rows)
        launch = KernelLaunch(items_per_thread=1, label="omnisci-kernel")

        # Build kernels (same as the tile-based engine; the builds are tiny).
        for stage in profile.joins:
            traffic = TrafficCounter(
                sequential_read_bytes=stage.build_scan_bytes,
                sequential_write_bytes=stage.hash_table_bytes,
                compute_ops=float(stage.dimension_rows) * 3.0,
            )
            time.merge(self.simulator.run_kernel(traffic, KernelLaunch(label=f"build-{stage.dimension}")).time,
                       prefix=f"build.{stage.dimension}.")

        # One kernel per operator; per-row accesses are uncoalesced, so every
        # 4-byte column value read moves a 32-byte sector, and each operator
        # materializes a full-width intermediate to global memory.
        for index, access in enumerate(profile.column_accesses):
            rows = min(access.rows_needed, n)
            read_bytes = min(rows * _UNCOALESCED_SECTOR_BYTES, access.column_bytes * 8)
            traffic = TrafficCounter(
                sequential_read_bytes=read_bytes + (n * 4 if index > 0 else 0.0),
                sequential_write_bytes=n * 4,
                compute_ops=rows * 2.0,
            )
            time.merge(self.simulator.run_kernel(traffic, launch).time, prefix=f"op{index}.")

        # Disjunctions are operators too: one extra kernel per OR leaf
        # beyond the single scan each column got above, and one union kernel
        # per OR alternative, each materializing a full-width intermediate.
        # The fused tile kernel (Standalone GPU) evaluates the same tree
        # predicated in registers for free -- the Section 3.3 asymmetry.
        for index, stage in enumerate(profile.filter_stages):
            extra_kernels = max(stage.leaf_count - len(stage.columns), 0) + stage.or_branches
            for extra in range(extra_kernels):
                traffic = TrafficCounter(
                    sequential_read_bytes=n * 8,
                    sequential_write_bytes=n * 4,
                    compute_ops=n * 1.0,
                )
                time.merge(
                    self.simulator.run_kernel(traffic, launch).time, prefix=f"or{index}.{extra}."
                )

        # Join probe kernels with scattered output writes.
        for stage in profile.joins:
            surviving = stage.probe_rows * stage.selectivity
            traffic = TrafficCounter(
                sequential_read_bytes=stage.probe_rows * _UNCOALESCED_SECTOR_BYTES,
                random_accesses=stage.probe_rows + surviving,
                random_working_set_bytes=max(stage.hash_table_bytes, surviving * 8),
                random_access_bytes=8.0,
                compute_ops=stage.probe_rows * 4.0,
            )
            time.merge(self.simulator.run_kernel(traffic, launch).time, prefix=f"join.{stage.dimension}.")

        # Aggregation kernel with a global atomic per surviving row.
        aggregate = TrafficCounter(
            sequential_read_bytes=profile.result_input_rows * _UNCOALESCED_SECTOR_BYTES,
            atomic_updates=profile.result_input_rows,
            atomic_targets=float(profile.num_groups),
            compute_ops=profile.result_input_rows * 3.0,
        )
        time.merge(self.simulator.run_kernel(aggregate, launch).time, prefix="aggregate.")
        return time

    def traffic(self, profile: QueryProfile) -> TrafficCounter:
        """A baseline is priced by its runtime alone: it reports no traffic."""
        return TrafficCounter()
