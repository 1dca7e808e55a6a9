"""Figure 9 and Section 3.3: tile-size sweep and Crystal vs independent threads.

Paper reference points: best performance at thread-block size 128/256 with
4 items per thread; the tile-based kernel runs Q0 in 2.1 ms vs 19 ms for the
independent-threads approach (N = 2^29, selectivity 0.5).

:func:`test_probe_tile_sweep_measured` is the same sweep on *this*
executor: it is where :data:`repro.engine.physical.PROBE_TILE_ROWS` comes
from, and where the ROADMAP's whole-operator tiling lost.
"""

import statistics
import time

import numpy as np

from repro.analysis.experiments import run_figure9, run_sec33_tile_comparison
from repro.analysis.report import format_series, format_table
from repro.api import Q
from repro.engine import physical
from repro.engine.cache import BuildArtifactCache, ZoneMapCache, activate_builds, activate_zones
from repro.engine.plan import combine_partials, finalize_partial
from repro.storage import Database, Table

EXEC_N = 1 << 22


def test_figure9_tile_size_sweep(run_once):
    result = run_once(run_figure9, exec_n=EXEC_N)
    series = result["series"]
    print("\nFigure 9 -- Q0 runtime (simulated ms at N=2^29) by tile configuration")
    print(format_series(series, x_name="thread_block_size"))

    best = series["items_per_thread=4"]
    # 4 items per thread dominates 1 item per thread everywhere.
    assert all(best[block] <= series["items_per_thread=1"][block] for block in best)
    # The sweet spot is at 128/256-thread blocks.
    assert min(best, key=best.get) in (128, 256)


def test_sec33_crystal_vs_independent_threads(run_once):
    result = run_once(run_sec33_tile_comparison, exec_n=EXEC_N)
    print("\nSection 3.3 -- Crystal vs independent-threads selection (N=2^29)")
    print(format_table(result["rows"], floatfmt=".2f"))
    independent, crystal = result["rows"]
    assert independent["simulated_ms"] > crystal["simulated_ms"] * 3


PROBE_TILES = [1 << k for k in range(11, 20)] + [EXEC_N]  # 2 K ... 512 K rows, then one tile
OPERATOR_TILES = [1 << k for k in range(14, 21)]  # 16 K ... 1 M rows
SWEEP_ROUNDS = 7


def _star(n: int) -> tuple[Database, object]:
    """``n`` fact rows probing a 200 K-key dimension, one key in five selected
    (the shape of an SSB first probe), grouped by a 25-value payload."""
    rng = np.random.default_rng(9)
    keys = np.arange(1, 200_001, dtype=np.int32)
    db = Database(name="fig09")
    db.add_table(Table.from_arrays("dim", {
        "d_key": keys, "d_region": (keys % 5).astype(np.int32), "d_nation": (keys % 25).astype(np.int32)}))
    db.add_table(Table.from_arrays("fact", {
        "f_key": rng.integers(1, 200_001, size=n).astype(np.int32),
        "f_value": rng.integers(0, 10_000, size=n).astype(np.int32)}))
    query = (
        Q("fact").join("dim", on=("f_key", "d_key"), filters=[("d_region", "eq", 2)], payload="d_nation")
        .group_by("d_nation").agg("sum", "f_value").build(db)
    )
    return db, query


def test_probe_tile_sweep_measured(monkeypatch):
    """Wall-clock sweep of the probe tile, interleaved so host drift hits
    every size alike.  Asserts identical answers only -- no timing floor."""
    db, query = _star(EXEC_N)
    with activate_zones(ZoneMapCache(db)), activate_builds(BuildArtifactCache(db)):
        plan = physical.lower_query(query, db)
        expected = physical.execute_physical(db, plan)

        def whole_operator(tile):
            """The ROADMAP's recipe: every operator per tile, partials combined."""
            partials = [
                physical.execute_physical_partial(db, plan, lo, min(lo + tile, EXEC_N))[0]
                for lo in range(0, EXEC_N, tile)
            ]
            return finalize_partial(combine_partials(partials))

        probe_ms = {tile: [] for tile in PROBE_TILES}
        operator_ms = {tile: [] for tile in [*OPERATOR_TILES, EXEC_N]}  # last: untiled
        for _ in range(SWEEP_ROUNDS):
            for tile in PROBE_TILES:
                monkeypatch.setattr(physical, "PROBE_TILE_ROWS", tile)
                start = time.perf_counter()
                state = physical._run_pipeline(db, plan, 0, None, None, None)  # build (cached) + span-state probe
                probe_ms[tile].append((time.perf_counter() - start) * 1e3)
                plan.aggregate.run(state)
                assert (state.value, state.profile) == expected, tile
            monkeypatch.undo()
            for tile in OPERATOR_TILES:
                start = time.perf_counter()
                value = whole_operator(tile)
                operator_ms[tile].append((time.perf_counter() - start) * 1e3)
                assert value == expected[0], tile
            start = time.perf_counter()
            physical.execute_physical(db, plan)
            operator_ms[EXEC_N].append((time.perf_counter() - start) * 1e3)

    def rows(samples):
        return [
            {"tile_rows": tile, "median_ms": statistics.median(ms[1:]), "min_ms": min(ms[1:])}
            for tile, ms in samples.items()  # round 0 warms allocator and caches
        ]

    print(f"\nProbe tile sweep -- span-state probe of {EXEC_N} keys, ms over {SWEEP_ROUNDS - 1} interleaved rounds")
    print(format_table(rows(probe_ms), floatfmt=".2f"))
    print("\nWhole-operator tiling -- the same query as partials over tiles (last row: untiled), ms")
    print(format_table(rows(operator_ms), floatfmt=".2f"))
