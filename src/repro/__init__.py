"""repro: a reproduction of the SIGMOD 2020 GPU-vs-CPU database analytics study.

The package reimplements, in pure Python on simulated hardware, the systems
built and evaluated by Shanbhag, Madden, and Yu in *A Study of the
Fundamental Performance Characteristics of GPUs and CPUs for Database
Analytics*:

* :mod:`repro.api` -- the unified query API: the fluent :func:`Q` builder
  for arbitrary star-schema queries, the engine registry, and the
  :class:`Session` facade that dispatches to any engine by name.
* :mod:`repro.crystal` -- the Crystal library of block-wide functions and
  the tile-based execution model (the paper's primary contribution).
* :mod:`repro.ops` -- CPU and GPU implementations of project, select, hash
  join, and radix sort/partitioning in the algorithm variants of Section 4.
* :mod:`repro.models` -- the analytic cost models of Sections 4 and 5.3.
* :mod:`repro.ssb` -- a Star Schema Benchmark data generator and the 13
  benchmark queries.
* :mod:`repro.engine` -- full-query engines: Standalone CPU, Standalone GPU
  (Crystal), GPU-as-coprocessor, and calibrated Hyper/MonetDB/OmniSci-like
  baselines.
* :mod:`repro.hardware` / :mod:`repro.sim` -- the simulated Intel i7-6900 and
  Nvidia V100 platforms all timings are reported on.
* :mod:`repro.analysis` -- the experiment registry that regenerates every
  figure and table of the paper's evaluation, plus the Table 3 cost model.
* :mod:`repro.faults` -- deterministic fault injection (:class:`FaultPlan`)
  and the :class:`ResiliencePolicy` knobs of the degradation ladder the
  shard, storage, and service layers climb down under failure.
* :mod:`repro.storage.wal` -- crash-consistent durability: a checksummed
  write-ahead log and checkpoints behind
  ``Session(durability=DurabilityConfig(dir=...))``, with byte-identical
  recovery via ``Session.open``.

Quickstart::

    from repro import Q, Session, QUERIES, generate_ssb

    db = generate_ssb(scale_factor=0.01, seed=42)
    session = Session(db)

    # A canonical SSB query on the GPU engine.
    result = session.run(QUERIES["q2.1"], engine="gpu")
    print(result.simulated_ms, result.rows)

    # An ad-hoc query, compared across execution strategies.
    orders = (
        Q("lineorder")
        .filter("lo_quantity", "lt", 25)
        .join("date", on=("lo_orderdate", "d_datekey"), payload="d_year")
        .group_by("d_year")
        .agg("count")
    )
    print(session.compare(orders, engines=["cpu", "gpu", "coprocessor"]))
"""

__version__ = "1.4.0"

from repro.api import (
    FaultPlan,
    FaultPoint,
    Q,
    QueryBuilder,
    QueryValidationError,
    ResiliencePolicy,
    ResultSet,
    Session,
    available_engines,
    col,
    register_engine,
)
from repro.engine import (
    BuildArtifactCache,
    CoprocessorEngine,
    CPUStandaloneEngine,
    GPUStandaloneEngine,
    HyperLikeEngine,
    JoinOrderPlanner,
    LogicalPlan,
    MonetDBLikeEngine,
    OmnisciLikeEngine,
    PhysicalPlan,
    QueryResult,
    lower_query,
)
from repro.ingest import IngestBuffer, StandingQuery
from repro.service import (
    IngestResult,
    OverloadError,
    QueryService,
    QueryTimeoutError,
    RequestTrace,
    ServiceResult,
)
from repro.ssb import QUERIES, And, FilterSpec, Not, Or, Pred, SSBQuery, generate_ssb
from repro.storage import DurabilityConfig, DurabilityManager, RecoveryReport

__all__ = [
    "And",
    "BuildArtifactCache",
    "CPUStandaloneEngine",
    "CoprocessorEngine",
    "DurabilityConfig",
    "DurabilityManager",
    "FaultPlan",
    "FaultPoint",
    "FilterSpec",
    "GPUStandaloneEngine",
    "HyperLikeEngine",
    "IngestBuffer",
    "IngestResult",
    "JoinOrderPlanner",
    "LogicalPlan",
    "MonetDBLikeEngine",
    "Not",
    "OmnisciLikeEngine",
    "Or",
    "OverloadError",
    "PhysicalPlan",
    "Pred",
    "Q",
    "QUERIES",
    "QueryBuilder",
    "QueryResult",
    "QueryService",
    "QueryTimeoutError",
    "QueryValidationError",
    "RecoveryReport",
    "RequestTrace",
    "ResiliencePolicy",
    "ResultSet",
    "SSBQuery",
    "ServiceResult",
    "Session",
    "StandingQuery",
    "available_engines",
    "col",
    "generate_ssb",
    "lower_query",
    "register_engine",
    "__version__",
]
