"""One ``run_*`` function per table / figure of the paper's evaluation.

Every function executes the relevant workload functionally at a reduced data
scale (keeping the reproduction laptop friendly), collects the data-dependent
statistics, and reports simulated runtimes on the paper's hardware at the
paper's data scale.  Each experiment's paper numbers, and the claims that
must hold against them, sit in the assertions of its ``benchmarks/bench_*.py``.

All functions return plain dictionaries (rows / series of floats) so the
benchmark scripts can print them and the tests can assert on their shape.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.cost import cost_comparison
from repro.analysis.scaling import scale_profile
from repro.engine.baselines import HyperLikeEngine, MonetDBLikeEngine, OmnisciLikeEngine
from repro.engine.coprocessor import CoprocessorEngine
from repro.engine.cpu_engine import CPUStandaloneEngine
from repro.engine.gpu_engine import GPUStandaloneEngine
from repro.engine.plan import execute_query
from repro.hardware.counters import TrafficCounter
from repro.hardware.presets import INTEL_I7_6900, NVIDIA_V100, PAPER_PLATFORM
from repro.models.join import cpu_join_probe_model, gpu_join_probe_model
from repro.models.project import cpu_project_model, gpu_project_model
from repro.models.query import QueryCostInputs, cpu_ssb_q21_model, gpu_ssb_q21_model
from repro.models.select import cpu_select_model, gpu_select_model
from repro.models.sort import (
    radix_histogram_model,
    radix_shuffle_model,
    cpu_radix_sort_model,
    gpu_radix_sort_model,
)
from repro.ops.cpu import (
    cpu_hash_join_build,
    cpu_hash_join_probe,
    cpu_project,
    cpu_radix_partition,
    cpu_radix_sort,
    cpu_select,
)
from repro.ops.cpu.project import sigmoid
from repro.ops.gpu import (
    gpu_hash_join_build,
    gpu_hash_join_probe,
    gpu_project,
    gpu_radix_partition,
    gpu_radix_sort,
    gpu_select,
    gpu_select_independent_threads,
)
from repro.sim.cpu import CPUSimulator
from repro.sim.gpu import GPUSimulator, KernelLaunch
from repro.ssb.generator import generate_ssb
from repro.ssb.queries import QUERIES, QUERY_ORDER

#: Default execution sizes (what actually runs in NumPy) vs the paper's
#: array sizes (what the simulated times are reported for).
DEFAULT_EXEC_N = 1 << 22
PAPER_MICRO_N = 1 << 29
PAPER_JOIN_PROBE_ROWS = 256_000_000
PAPER_SORT_N = 1 << 28
PAPER_SSB_SF = 20.0


def _scale(result_or_ms, exec_n: int, paper_n: int) -> float:
    """Project a simulated time from the executed size to the paper size.

    Data-dependent components scale linearly with the input size; fixed
    per-kernel overheads (kernel launches) do not and are carried over
    unchanged.  Accepts either an operator result (preferred -- its time
    breakdown distinguishes the components) or a bare milliseconds value.
    """
    factor = paper_n / exec_n
    time = getattr(result_or_ms, "time", None)
    if time is None:
        return float(result_or_ms) * factor
    total_ms = 0.0
    for name, seconds in time.components.items():
        scaled = seconds if "launch" in name else seconds * factor
        total_ms += scaled * 1e3
    return total_ms


# ----------------------------------------------------------------------
# Section 3.3 / Figure 9: tile-size sweep and Crystal vs independent threads
# ----------------------------------------------------------------------
def run_figure9(exec_n: int = DEFAULT_EXEC_N, paper_n: int = PAPER_MICRO_N, seed: int = 13) -> dict:
    """Q0 selection with varying thread-block size and items per thread."""
    rng = np.random.default_rng(seed)
    y = rng.random(exec_n).astype(np.float32)
    threshold = 0.5

    series: dict[str, dict] = {}
    for items_per_thread in (1, 2, 4):
        label = f"items_per_thread={items_per_thread}"
        series[label] = {}
        for threads_per_block in (32, 64, 128, 256, 512, 1024):
            result = gpu_select(
                y, threshold, threads_per_block=threads_per_block, items_per_thread=items_per_thread
            )
            series[label][threads_per_block] = _scale(result, exec_n, paper_n)
    return {"series": series, "x": "thread_block_size", "unit": "ms", "paper_n": paper_n}


def run_sec33_tile_comparison(exec_n: int = DEFAULT_EXEC_N, paper_n: int = PAPER_MICRO_N, seed: int = 13) -> dict:
    """Crystal (tile-based, single kernel) vs the independent-threads baseline."""
    rng = np.random.default_rng(seed)
    y = rng.random(exec_n).astype(np.float32)
    crystal = gpu_select(y, 0.5, threads_per_block=128, items_per_thread=4)
    independent = gpu_select_independent_threads(y, 0.5)
    return {
        "rows": [
            {"approach": "independent threads (3 kernels)",
             "simulated_ms": _scale(independent, exec_n, paper_n),
             "paper_ms": 19.0},
            {"approach": "Crystal tile-based (1 kernel)",
             "simulated_ms": _scale(crystal, exec_n, paper_n),
             "paper_ms": 2.1},
        ]
    }


# ----------------------------------------------------------------------
# Figure 10: projection microbenchmark
# ----------------------------------------------------------------------
def run_figure10(exec_n: int = DEFAULT_EXEC_N, paper_n: int = PAPER_MICRO_N, seed: int = 17) -> dict:
    """Q1 (linear combination) and Q2 (sigmoid) on CPU, CPU-Opt, and GPU."""
    rng = np.random.default_rng(seed)
    x1 = rng.random(exec_n).astype(np.float32)
    x2 = rng.random(exec_n).astype(np.float32)

    rows = []
    for query, udf in (("Q1", None), ("Q2", sigmoid)):
        naive = cpu_project(x1, x2, udf=udf, variant="naive")
        opt = cpu_project(x1, x2, udf=udf, variant="opt")
        gpu = gpu_project(x1, x2, udf=udf)
        rows.append(
            {
                "query": query,
                "cpu_ms": _scale(naive, exec_n, paper_n),
                "cpu_opt_ms": _scale(opt, exec_n, paper_n),
                "gpu_ms": _scale(gpu, exec_n, paper_n),
                "cpu_model_ms": cpu_project_model(paper_n).milliseconds,
                "gpu_model_ms": gpu_project_model(paper_n).milliseconds,
            }
        )
        rows[-1]["cpu_opt_over_gpu"] = rows[-1]["cpu_opt_ms"] / rows[-1]["gpu_ms"]
    return {"rows": rows, "bandwidth_ratio": PAPER_PLATFORM.bandwidth_ratio}


# ----------------------------------------------------------------------
# Figure 12: selection microbenchmark
# ----------------------------------------------------------------------
def run_figure12(exec_n: int = DEFAULT_EXEC_N, paper_n: int = PAPER_MICRO_N, seed: int = 19) -> dict:
    """Q3 selection scan across selectivities 0.0 .. 1.0."""
    rng = np.random.default_rng(seed)
    y = rng.random(exec_n).astype(np.float32)

    series: dict[str, dict] = {
        "cpu_if": {}, "cpu_pred": {}, "cpu_simd_pred": {},
        "gpu_if": {}, "gpu_pred": {},
        "cpu_model": {}, "gpu_model": {},
    }
    for selectivity in [round(0.1 * i, 1) for i in range(11)]:
        threshold = float(selectivity)  # y is uniform in [0, 1)
        series["cpu_if"][selectivity] = _scale(cpu_select(y, threshold, "if"), exec_n, paper_n)
        series["cpu_pred"][selectivity] = _scale(cpu_select(y, threshold, "pred"), exec_n, paper_n)
        series["cpu_simd_pred"][selectivity] = _scale(
            cpu_select(y, threshold, "simd_pred"), exec_n, paper_n
        )
        series["gpu_if"][selectivity] = _scale(gpu_select(y, threshold, "if"), exec_n, paper_n)
        series["gpu_pred"][selectivity] = _scale(gpu_select(y, threshold, "pred"), exec_n, paper_n)
        series["cpu_model"][selectivity] = cpu_select_model(paper_n, selectivity).milliseconds
        series["gpu_model"][selectivity] = gpu_select_model(paper_n, selectivity).milliseconds
    return {"series": series, "x": "selectivity", "unit": "ms", "paper_n": paper_n}


# ----------------------------------------------------------------------
# Figure 13: hash-join microbenchmark
# ----------------------------------------------------------------------
#: Hash-table sizes swept in Figure 13 (8 KB .. 1 GB).
JOIN_HASH_TABLE_SIZES = [8 << 10 << i for i in range(0, 18, 2)]  # 8KB,32KB,...,512MB
JOIN_HASH_TABLE_SIZES.append(1 << 30)

#: Variant-specific parameters mirrored from repro.ops.cpu.hash_join.
_CPU_PROBE_OPS = {"scalar": 6.0, "simd": 11.0, "prefetch": 8.5}
_CPU_RANDOM_EFFICIENCY = {"scalar": 0.62, "simd": 0.62, "prefetch": 0.72}


def _cpu_join_probe_ms(probe_rows: float, ht_bytes: float, variant: str, sim: CPUSimulator) -> float:
    """Simulated CPU probe time at paper scale (mirrors the operator's traffic)."""
    traffic = TrafficCounter(
        sequential_read_bytes=probe_rows * 8,
        random_accesses=probe_rows,
        random_working_set_bytes=ht_bytes,
        random_access_bytes=8.0,
        compute_ops=probe_rows * _CPU_PROBE_OPS[variant],
    )
    return sim.run(traffic, random_efficiency=_CPU_RANDOM_EFFICIENCY[variant]).milliseconds


def _gpu_join_probe_ms(probe_rows: float, ht_bytes: float, sim: GPUSimulator) -> float:
    """Simulated GPU probe time at paper scale (mirrors the operator's traffic)."""
    traffic = TrafficCounter(
        sequential_read_bytes=probe_rows * 8,
        random_accesses=probe_rows,
        random_working_set_bytes=ht_bytes,
        random_access_bytes=8.0,
        compute_ops=probe_rows * 4.0,
        shared_bytes=probe_rows * 4,
        atomic_updates=probe_rows / (128 * 4),
    )
    return sim.run_kernel(traffic, KernelLaunch(label="join-probe")).milliseconds


def run_figure13(
    probe_rows: int = PAPER_JOIN_PROBE_ROWS,
    exec_probe_rows: int = 1 << 20,
    validate: bool = True,
    seed: int = 23,
) -> dict:
    """Q4 hash-join probe across hash-table sizes from 8 KB to 1 GB."""
    cpu_sim = CPUSimulator()
    gpu_sim = GPUSimulator()

    series: dict[str, dict] = {
        "cpu_scalar": {}, "cpu_simd": {}, "cpu_prefetch": {}, "gpu": {},
        "cpu_model": {}, "gpu_model": {},
    }
    for ht_bytes in JOIN_HASH_TABLE_SIZES:
        for variant in ("scalar", "simd", "prefetch"):
            series[f"cpu_{variant}"][ht_bytes] = _cpu_join_probe_ms(probe_rows, ht_bytes, variant, cpu_sim)
        series["gpu"][ht_bytes] = _gpu_join_probe_ms(probe_rows, ht_bytes, gpu_sim)
        series["cpu_model"][ht_bytes] = cpu_join_probe_model(probe_rows, ht_bytes).milliseconds
        series["gpu_model"][ht_bytes] = gpu_join_probe_model(probe_rows, ht_bytes).milliseconds

    validation = []
    if validate:
        # Execute real (small) joins to confirm the operator implementations
        # agree with each other and feed the traffic model.
        rng = np.random.default_rng(seed)
        build_rows = 1 << 14
        build_keys = np.arange(build_rows)
        build_values = rng.integers(0, 1000, build_rows)
        probe_keys = rng.integers(0, build_rows, exec_probe_rows)
        probe_values = rng.integers(0, 1000, exec_probe_rows)
        cpu_table, _ = cpu_hash_join_build(build_keys, build_values)
        gpu_table, _ = gpu_hash_join_build(build_keys, build_values)
        expected = float(np.sum(probe_values + build_values[probe_keys]))
        for variant in ("scalar", "simd", "prefetch"):
            result = cpu_hash_join_probe(probe_keys, probe_values, cpu_table, variant)
            validation.append({"impl": f"cpu_{variant}", "checksum_ok": abs(result.value - expected) < 1e-3})
        gpu_result = gpu_hash_join_probe(probe_keys, probe_values, gpu_table)
        validation.append({"impl": "gpu", "checksum_ok": abs(gpu_result.value - expected) < 1e-3})

    return {"series": series, "x": "hash_table_bytes", "unit": "ms", "validation": validation}


# ----------------------------------------------------------------------
# Figure 14: radix partitioning / sort microbenchmark
# ----------------------------------------------------------------------
def run_figure14(
    exec_n: int = 1 << 20,
    paper_n: int = PAPER_SORT_N,
    seed: int = 29,
) -> dict:
    """Radix histogram and shuffle phases across radix widths, plus full sorts."""
    rng = np.random.default_rng(seed)
    keys = rng.integers(0, 2**31, exec_n, dtype=np.int32)
    payloads = rng.integers(0, 2**31, exec_n, dtype=np.int32)

    histogram: dict[str, dict] = {"cpu_stable": {}, "gpu_stable": {}, "gpu_unstable": {},
                                  "cpu_model": {}, "gpu_model": {}}
    shuffle: dict[str, dict] = {"cpu_stable": {}, "gpu_stable": {}, "gpu_unstable": {},
                                "cpu_model": {}, "gpu_model": {}}
    cpu, gpu = INTEL_I7_6900, NVIDIA_V100
    for radix_bits in range(3, 12):
        _, cpu_hist, cpu_shuf = cpu_radix_partition(keys, payloads, radix_bits=radix_bits)
        histogram["cpu_stable"][radix_bits] = _scale(cpu_hist, exec_n, paper_n)
        shuffle["cpu_stable"][radix_bits] = _scale(cpu_shuf, exec_n, paper_n)
        if radix_bits <= 7:
            _, hist, shuf = gpu_radix_partition(keys, payloads, radix_bits=radix_bits, stable=True)
            histogram["gpu_stable"][radix_bits] = _scale(hist, exec_n, paper_n)
            shuffle["gpu_stable"][radix_bits] = _scale(shuf, exec_n, paper_n)
        if radix_bits <= 8:
            _, hist, shuf = gpu_radix_partition(keys, payloads, radix_bits=radix_bits, stable=False)
            histogram["gpu_unstable"][radix_bits] = _scale(hist, exec_n, paper_n)
            shuffle["gpu_unstable"][radix_bits] = _scale(shuf, exec_n, paper_n)
        histogram["cpu_model"][radix_bits] = radix_histogram_model(paper_n, cpu.dram_read_bandwidth).milliseconds
        histogram["gpu_model"][radix_bits] = radix_histogram_model(paper_n, gpu.global_read_bandwidth).milliseconds
        shuffle["cpu_model"][radix_bits] = radix_shuffle_model(
            paper_n, cpu.dram_read_bandwidth, cpu.dram_write_bandwidth
        ).milliseconds
        shuffle["gpu_model"][radix_bits] = radix_shuffle_model(
            paper_n, gpu.global_read_bandwidth, gpu.global_write_bandwidth
        ).milliseconds

    sort_exec_n = min(exec_n, 1 << 20)
    sort_keys = keys[:sort_exec_n]
    sort_payloads = payloads[:sort_exec_n]
    cpu_sort = cpu_radix_sort(sort_keys, sort_payloads)
    gpu_sort = gpu_radix_sort(sort_keys, sort_payloads, variant="msb")
    full_sort_rows = [
        {"impl": "CPU LSB radix sort", "simulated_ms": _scale(cpu_sort, sort_exec_n, paper_n),
         "model_ms": cpu_radix_sort_model(paper_n).milliseconds, "paper_ms": 464.0},
        {"impl": "GPU MSB radix sort", "simulated_ms": _scale(gpu_sort, sort_exec_n, paper_n),
         "model_ms": gpu_radix_sort_model(paper_n).milliseconds, "paper_ms": 27.08},
    ]
    return {
        "histogram_series": histogram,
        "shuffle_series": shuffle,
        "full_sort_rows": full_sort_rows,
        "x": "radix_bits",
        "unit": "ms",
    }


# ----------------------------------------------------------------------
# Figures 3 and 16: full SSB workload
# ----------------------------------------------------------------------
def _ssb_profiles(scale_factor: float, seed: int):
    """Execute all 13 queries once, returning values and profiles."""
    db = generate_ssb(scale_factor=scale_factor, seed=seed)
    profiles = {}
    values = {}
    for name in QUERY_ORDER:
        value, profile = execute_query(db, QUERIES[name])
        values[name] = value
        profiles[name] = profile
    return db, values, profiles


def run_figure3(scale_factor: float = 0.2, target_sf: float = PAPER_SSB_SF, seed: int = 31) -> dict:
    """MonetDB-like vs GPU coprocessor vs Hyper-like on the full SSB."""
    db, values, profiles = _ssb_profiles(scale_factor, seed)
    monetdb = MonetDBLikeEngine(db)
    coprocessor = CoprocessorEngine(db)
    hyper = HyperLikeEngine(db)

    rows = []
    for name in QUERY_ORDER:
        query = QUERIES[name]
        scaled = scale_profile(profiles[name], scale_factor, target_sf)
        rows.append(
            {
                "query": name,
                "monetdb_ms": monetdb.simulate(query, scaled).total_ms,
                "gpu_coprocessor_ms": coprocessor.simulate(query, scaled).total_ms,
                "hyper_ms": hyper.simulate(query, scaled).total_ms,
            }
        )
    mean = {
        "query": "mean",
        "monetdb_ms": float(np.mean([r["monetdb_ms"] for r in rows])),
        "gpu_coprocessor_ms": float(np.mean([r["gpu_coprocessor_ms"] for r in rows])),
        "hyper_ms": float(np.mean([r["hyper_ms"] for r in rows])),
    }
    rows.append(mean)
    return {"rows": rows, "scale_factor_executed": scale_factor, "scale_factor_reported": target_sf}


def run_figure16(scale_factor: float = 0.2, target_sf: float = PAPER_SSB_SF, seed: int = 31) -> dict:
    """Hyper vs Standalone CPU vs OmniSci vs Standalone GPU on the full SSB."""
    db, values, profiles = _ssb_profiles(scale_factor, seed)
    hyper = HyperLikeEngine(db)
    cpu = CPUStandaloneEngine(db)
    omnisci = OmnisciLikeEngine(db)
    gpu = GPUStandaloneEngine(db)

    rows = []
    for name in QUERY_ORDER:
        query = QUERIES[name]
        scaled = scale_profile(profiles[name], scale_factor, target_sf)
        cpu_ms = cpu.simulate(query, scaled).total_ms
        gpu_ms = gpu.simulate(query, scaled).total_ms
        rows.append(
            {
                "query": name,
                "hyper_ms": hyper.simulate(query, scaled).total_ms,
                "standalone_cpu_ms": cpu_ms,
                "omnisci_ms": omnisci.simulate(query, scaled).total_ms,
                "standalone_gpu_ms": gpu_ms,
                "cpu_over_gpu": cpu_ms / gpu_ms if gpu_ms else float("nan"),
            }
        )
    mean = {
        "query": "mean",
        "hyper_ms": float(np.mean([r["hyper_ms"] for r in rows])),
        "standalone_cpu_ms": float(np.mean([r["standalone_cpu_ms"] for r in rows])),
        "omnisci_ms": float(np.mean([r["omnisci_ms"] for r in rows])),
        "standalone_gpu_ms": float(np.mean([r["standalone_gpu_ms"] for r in rows])),
        "cpu_over_gpu": float(np.mean([r["cpu_over_gpu"] for r in rows])),
    }
    rows.append(mean)
    return {"rows": rows, "scale_factor_executed": scale_factor, "scale_factor_reported": target_sf}


# ----------------------------------------------------------------------
# Table 2, Table 3, and the Section 5.3 case study
# ----------------------------------------------------------------------
def run_table2() -> dict:
    """The hardware specification table the whole evaluation is based on."""
    cpu, gpu = INTEL_I7_6900, NVIDIA_V100
    rows = [
        {"attribute": "model", "cpu": cpu.model, "gpu": gpu.model},
        {"attribute": "cores", "cpu": cpu.cores, "gpu": gpu.total_cores},
        {"attribute": "memory_capacity_gb", "cpu": cpu.dram_capacity_bytes / 2**30,
         "gpu": gpu.global_capacity_bytes / 2**30},
        {"attribute": "read_bandwidth_gbps", "cpu": cpu.dram_read_bandwidth / 1e9,
         "gpu": gpu.global_read_bandwidth / 1e9},
        {"attribute": "write_bandwidth_gbps", "cpu": cpu.dram_write_bandwidth / 1e9,
         "gpu": gpu.global_write_bandwidth / 1e9},
        {"attribute": "l2_size_mb", "cpu": cpu.cache_named("L2").capacity_bytes / 2**20,
         "gpu": gpu.l2_capacity_bytes / 2**20},
        {"attribute": "llc_size_mb", "cpu": cpu.cache_named("L3").capacity_bytes / 2**20,
         "gpu": gpu.l2_capacity_bytes / 2**20},
        {"attribute": "l2_bandwidth_gbps", "cpu": float("nan"), "gpu": gpu.l2_bandwidth / 1e9},
        {"attribute": "l3_bandwidth_gbps", "cpu": cpu.cache_named("L3").bandwidth_bytes_per_s / 1e9,
         "gpu": float("nan")},
        {"attribute": "bandwidth_ratio", "cpu": 1.0, "gpu": PAPER_PLATFORM.bandwidth_ratio},
    ]
    return {"rows": rows}


def run_table3(performance_ratio: float | None = None, scale_factor: float = 0.1, seed: int = 31) -> dict:
    """Cost comparison; derives the speedup from Figure 16 when not supplied."""
    if performance_ratio is None:
        figure16 = run_figure16(scale_factor=scale_factor, seed=seed)
        performance_ratio = figure16["rows"][-1]["cpu_over_gpu"]
    comparison = cost_comparison(performance_ratio)
    rows = comparison.as_rows()
    rows.append(
        {
            "platform": "cost effectiveness (GPU vs CPU)",
            "instance": "",
            "rent_usd_per_hour": comparison.rent_cost_effectiveness,
            "purchase_usd": comparison.purchase_cost_effectiveness,
        }
    )
    return {"rows": rows, "performance_ratio": performance_ratio}


def run_sec53_case_study(scale_factor: float = 0.2, target_sf: float = PAPER_SSB_SF, seed: int = 31) -> dict:
    """q2.1: model-predicted vs engine-simulated runtime on both devices."""
    db = generate_ssb(scale_factor=scale_factor, seed=seed)
    query = QUERIES["q2.1"]
    value, profile = execute_query(db, query)
    scaled = scale_profile(profile, scale_factor, target_sf)

    cpu_engine = CPUStandaloneEngine(db)
    gpu_engine = GPUStandaloneEngine(db)
    inputs = QueryCostInputs.ssb_q21_sf(target_sf)

    rows = [
        {
            "device": "GPU",
            "model_ms": gpu_ssb_q21_model(inputs).milliseconds,
            "simulated_ms": gpu_engine.simulate(query, scaled).total_ms,
            "paper_model_ms": 3.7,
            "paper_actual_ms": 3.86,
        },
        {
            "device": "CPU",
            "model_ms": cpu_ssb_q21_model(inputs).milliseconds,
            "simulated_ms": cpu_engine.simulate(query, scaled).total_ms,
            "paper_model_ms": 47.0,
            "paper_actual_ms": 125.0,
        },
    ]
    return {"rows": rows}
