"""Rescaling query profiles to the paper's data sizes.

Executing the SSB at scale factor 20 (a 120 M-row fact table) is out of
reach for a pure-Python reproduction, so the engines execute the queries at
a reduced scale factor (which validates correctness and measures the
data-dependent selectivities) and the experiment harness rescales the
collected :class:`~repro.engine.plan.QueryProfile` to SF 20 before asking
the engines' ``simulate`` methods for the runtime.

Scaling rules (all selectivities are scale-invariant because the SSB
attributes are uniform):

* Fact-side quantities (row counts, column bytes, probe counts, surviving
  rows) scale with the ratio of fact-table cardinalities.
* Dimension-side quantities (dimension rows, hash-table bytes, build scan
  bytes) scale with each dimension's own cardinality ratio (``supplier`` and
  ``customer`` scale linearly, ``part`` logarithmically, ``date`` not at
  all).
* The number of output groups is recomputed as the minimum of the group-key
  domain size and the measured group count scaled by the fact ratio, capped
  by the number of surviving rows.
"""

from __future__ import annotations

from repro.engine.plan import QueryProfile
from repro.ssb.schema import ssb_table_rows


def scale_profile(
    profile: QueryProfile,
    base_scale_factor: float,
    target_scale_factor: float = 20.0,
) -> QueryProfile:
    """Return a copy of ``profile`` rescaled to ``target_scale_factor``."""
    if base_scale_factor <= 0 or target_scale_factor <= 0:
        raise ValueError("scale factors must be positive")

    base_fact = ssb_table_rows("lineorder", base_scale_factor)
    target_fact = ssb_table_rows("lineorder", target_scale_factor)
    fact_ratio = target_fact / base_fact

    scaled = profile.copy()
    scaled.fact_rows = int(profile.fact_rows * fact_ratio)
    scaled.result_input_rows = profile.result_input_rows * fact_ratio

    for access in scaled.column_accesses:
        access.column_bytes *= fact_ratio
        access.rows_needed *= fact_ratio

    # Predicate shape (leaf/branch counts) is scale-invariant; only the
    # per-term row counts grow with the fact table.
    for stage in scaled.filter_stages:
        stage.rows_in *= fact_ratio
        stage.rows_out *= fact_ratio

    for stage in scaled.joins:
        dim_base = ssb_table_rows(stage.dimension, base_scale_factor)
        dim_target = ssb_table_rows(stage.dimension, target_scale_factor)
        dim_ratio = dim_target / dim_base
        stage.dimension_rows = int(stage.dimension_rows * dim_ratio)
        stage.build_rows = int(stage.build_rows * dim_ratio)
        stage.hash_table_bytes *= dim_ratio
        stage.build_scan_bytes *= dim_ratio
        stage.probe_rows *= fact_ratio

    # Group counts saturate at the group-key domain size; scaling the
    # measured count by the fact ratio and capping at the surviving rows is a
    # reasonable estimate for the small group-bys of the SSB.
    scaled.num_groups = int(
        min(max(profile.num_groups, profile.num_groups * fact_ratio ** 0.5), max(scaled.result_input_rows, 1))
    )
    return scaled
