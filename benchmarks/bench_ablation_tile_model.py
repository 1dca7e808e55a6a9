"""Ablation benches: their assertions record what each design choice buys.

These go beyond the paper's figures: they isolate the individual mechanisms
of the tile-based execution model (atomic batching, coalesced output,
selective loading) and of the CPU implementation (non-temporal stores, SIMD)
to show how much each contributes on the simulated hardware.
"""

import numpy as np

from repro.analysis.report import format_table
from repro.crystal import BlockContext, block_load, block_load_sel
from repro.ops.cpu import cpu_project, cpu_select
from repro.ops.gpu import gpu_select, gpu_select_independent_threads


def test_ablation_tile_mechanisms(run_once):
    """Quantify each mechanism the tile-based model adds over thread-per-row."""
    rng = np.random.default_rng(3)
    y = rng.random(1 << 22).astype(np.float32)

    def build_rows():
        independent = gpu_select_independent_threads(y, 0.5)
        tiny_tiles = gpu_select(y, 0.5, threads_per_block=32, items_per_thread=1)
        default_tiles = gpu_select(y, 0.5, threads_per_block=128, items_per_thread=4)
        return [
            {"configuration": "independent threads (3 kernels)", "ms": independent.milliseconds,
             "atomics": independent.traffic.atomic_updates},
            {"configuration": "tiles of 32 (single kernel)", "ms": tiny_tiles.milliseconds,
             "atomics": tiny_tiles.traffic.atomic_updates},
            {"configuration": "tiles of 512 (paper default)", "ms": default_tiles.milliseconds,
             "atomics": default_tiles.traffic.atomic_updates},
        ]

    rows = run_once(build_rows)
    print("\nAblation -- mechanisms of the tile-based execution model")
    print(format_table(rows, floatfmt=".3f"))
    assert rows[0]["ms"] > rows[2]["ms"]
    assert rows[1]["atomics"] > rows[2]["atomics"]


def test_ablation_cpu_optimizations(run_once):
    """Quantify SIMD and non-temporal stores on the CPU side."""
    rng = np.random.default_rng(5)
    x1 = rng.random(1 << 22).astype(np.float32)
    x2 = rng.random(1 << 22).astype(np.float32)

    def build_rows():
        from repro.ops.cpu.project import sigmoid
        naive = cpu_project(x1, x2, udf=sigmoid, variant="naive")
        opt = cpu_project(x1, x2, udf=sigmoid, variant="opt")
        branching = cpu_select(x1, 0.5, "if")
        simd_select = cpu_select(x1, 0.5, "simd_pred")
        return [
            {"configuration": "Q2 projection, scalar + regular stores", "ms": naive.milliseconds},
            {"configuration": "Q2 projection, SIMD + streaming stores", "ms": opt.milliseconds},
            {"configuration": "selection, branching", "ms": branching.milliseconds},
            {"configuration": "selection, SIMD predication", "ms": simd_select.milliseconds},
        ]

    rows = run_once(build_rows)
    print("\nAblation -- CPU implementation choices")
    print(format_table(rows, floatfmt=".3f"))
    assert rows[0]["ms"] > rows[1]["ms"]
    assert rows[2]["ms"] > rows[3]["ms"]


def test_ablation_selective_loading(run_once):
    """BlockLoadSel reads only the sectors of entries that passed earlier filters."""
    column = np.arange(1 << 20, dtype=np.int32)

    def build_rows():
        rows = []
        for selectivity in (0.01, 0.25, 1.0):
            bitmap = np.zeros(column.shape[0], dtype=bool)
            bitmap[: int(selectivity * column.shape[0])] = True
            ctx = BlockContext()
            block_load_sel(ctx, column, bitmap)
            full_ctx = BlockContext()
            block_load(full_ctx, column)
            rows.append(
                {
                    "selectivity": selectivity,
                    "selective_read_mb": ctx.traffic.sequential_read_bytes / 1e6,
                    "full_read_mb": full_ctx.traffic.sequential_read_bytes / 1e6,
                }
            )
        return rows

    rows = run_once(build_rows)
    print("\nAblation -- selective loading (BlockLoadSel) vs full column loads")
    print(format_table(rows, floatfmt=".2f"))
    assert rows[0]["selective_read_mb"] < rows[0]["full_read_mb"]
    assert rows[-1]["selective_read_mb"] <= rows[-1]["full_read_mb"]
