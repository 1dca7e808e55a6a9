"""Full-query execution engines.

All engines execute the declarative SSB queries of :mod:`repro.ssb.queries`
against a :class:`repro.storage.Database` and return a
:class:`~repro.engine.result.QueryResult` containing both the (exact) query
answer and the simulated runtime on the paper's hardware.

Engines:

* :class:`CPUStandaloneEngine` -- the paper's hand-optimized CPU
  implementation: vectorized single-pass pipeline with SIMD predicates and
  cache-resident dimension hash tables.
* :class:`GPUStandaloneEngine` -- the Crystal/tile-based GPU implementation:
  one fused probe kernel per query, with the working set resident in GPU
  memory.
* :class:`CoprocessorEngine` -- the GPU-as-coprocessor configuration of
  Section 3.1: data lives in CPU memory and the needed columns cross PCIe
  for every query.
* :mod:`repro.engine.baselines` -- calibrated models of the comparison
  systems (Hyper, MonetDB, OmniSci) that execute the same queries with those
  systems' documented execution strategies.

Every engine conforms to the :class:`repro.api.Engine` protocol (a ``name``
attribute plus ``run(query) -> QueryResult``) and registers itself with the
default engine registry under a short key (``"cpu"``, ``"gpu"``,
``"coprocessor"``, ``"hyper"``, ``"monetdb"``, ``"omnisci"``), so
:class:`repro.api.Session` can dispatch to any of them by name.

All engines share one functional execution pass: queries are lowered to the
staged physical pipeline of :mod:`repro.engine.physical` (ScanFilter /
BuildLookup / ProbeJoin / Aggregate operators whose dimension builds are
shared across queries), which emits the :class:`QueryProfile` each engine
then costs under its own hardware model.
"""

from repro.engine.baselines import HyperLikeEngine, MonetDBLikeEngine, OmnisciLikeEngine
from repro.engine.cache import (
    BuildArtifactCache,
    CacheInfo,
    ExecutionCache,
    ZoneInfo,
    ZoneMapCache,
    activate_zones,
)
from repro.engine.coprocessor import CoprocessorEngine
from repro.engine.cpu_engine import CPUStandaloneEngine
from repro.engine.gpu_engine import GPUStandaloneEngine
from repro.engine.physical import (
    BuildArtifact,
    LogicalJoin,
    LogicalPlan,
    PhysicalPlan,
    execute_physical,
    lower,
    lower_query,
)
from repro.engine.plan import QueryProfile, execute_query, execute_query_monolithic
from repro.engine.planner import JoinOrderPlanner, PlanChoice
from repro.engine.result import QueryResult

__all__ = [
    "BuildArtifact",
    "BuildArtifactCache",
    "CPUStandaloneEngine",
    "CacheInfo",
    "CoprocessorEngine",
    "ExecutionCache",
    "ZoneInfo",
    "ZoneMapCache",
    "activate_zones",
    "GPUStandaloneEngine",
    "HyperLikeEngine",
    "JoinOrderPlanner",
    "LogicalJoin",
    "LogicalPlan",
    "MonetDBLikeEngine",
    "OmnisciLikeEngine",
    "PhysicalPlan",
    "PlanChoice",
    "QueryProfile",
    "QueryResult",
    "execute_physical",
    "execute_query",
    "execute_query_monolithic",
    "lower",
    "lower_query",
]
