"""Full-query engines: one functional pass, six hardware models that price it.

Every query runs through one functional execution pass: it is lowered to
the staged physical pipeline of :mod:`repro.engine.physical` (ScanFilter /
BuildLookup / ProbeJoin / Aggregate operators whose dimension builds are
shared across queries), which returns the exact answer and the
:class:`QueryProfile` of the work done.  An engine does not execute
anything: it is a hardware model that prices that profile, with
``simulate(query, profile)`` for the time and ``traffic(profile)`` for the
bytes moved.  :func:`~repro.engine.result.bill` turns one pass into an
engine's :class:`~repro.engine.result.QueryResult`.

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
  systems (Hyper, MonetDB, OmniSci) that price the same pass with those
  systems' documented execution strategies.

:data:`ENGINES` maps each short key (``"cpu"``, ``"gpu"``,
``"coprocessor"``, ``"hyper"``, ``"monetdb"``, ``"omnisci"``) to its class;
:func:`resolve_engine` also accepts a class's ``name`` (``"standalone-cpu"``).
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
from repro.engine.result import QueryResult, bill

#: The engines by key; each class's ``name`` is an alias for its key.
ENGINES = {
    "cpu": CPUStandaloneEngine,
    "gpu": GPUStandaloneEngine,
    "coprocessor": CoprocessorEngine,
    "hyper": HyperLikeEngine,
    "monetdb": MonetDBLikeEngine,
    "omnisci": OmnisciLikeEngine,
}
_KEYS = {**{cls.name: key for key, cls in ENGINES.items()}, **{key: key for key in ENGINES}}


def available_engines() -> list[str]:
    """The sorted engine keys."""
    return sorted(ENGINES)


def resolve_engine(name: str) -> str:
    """The :data:`ENGINES` key of ``name``, a key or an engine's ``name``."""
    try:
        return _KEYS[name]
    except KeyError:
        raise KeyError(f"unknown engine {name!r}; engines: {available_engines()}") from None

__all__ = [
    "BuildArtifact",
    "BuildArtifactCache",
    "CPUStandaloneEngine",
    "CacheInfo",
    "CoprocessorEngine",
    "ENGINES",
    "ExecutionCache",
    "ZoneInfo",
    "ZoneMapCache",
    "activate_zones",
    "available_engines",
    "bill",
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
    "resolve_engine",
]
