"""Figure 13: hash-join probe microbenchmark across hash-table sizes.

Paper reference points (256 M probe rows, hash tables 8 KB - 1 GB): step
increases at the cache-size boundaries (CPU 256 KB and 20 MB, GPU 6 MB);
CPU SIMD is slower than CPU Scalar; prefetching helps only out of cache; the
CPU/GPU gain is ~5.5x when both are cache resident, ~14.5x in the GPU-L2 /
CPU-L3 regime, and ~10.5x when neither caches the table -- always below the
16.2x bandwidth ratio.
"""

from repro.analysis.experiments import run_figure13
from repro.analysis.report import format_series
from repro.hardware.presets import bandwidth_ratio


def _pretty(size: int) -> str:
    if size >= 1 << 20:
        return f"{size >> 20}MB"
    return f"{size >> 10}KB"


def test_figure13_hash_join_probe(run_once):
    result = run_once(run_figure13, exec_probe_rows=1 << 18)
    series = result["series"]
    print("\nFigure 13 -- hash-join probe (simulated ms, 256M probe rows at SF of the paper)")
    pretty_series = {name: {_pretty(k): v for k, v in values.items()} for name, values in series.items()}
    print(format_series(pretty_series, x_name="hash_table"))

    sizes = sorted(series["cpu_scalar"])
    # Monotone step behaviour on both devices.
    for name in ("cpu_scalar", "gpu"):
        values = [series[name][s] for s in sizes]
        assert all(b >= a * 0.99 for a, b in zip(values, values[1:]))
    # Vertical SIMD vectorization does not pay off.
    assert all(series["cpu_simd"][s] >= series["cpu_scalar"][s] * 0.99 for s in sizes)
    # The join speedup stays below the bandwidth ratio for out-of-cache tables.
    largest = sizes[-1]
    assert series["cpu_scalar"][largest] / series["gpu"][largest] < bandwidth_ratio()
    # All executed validation joins produced the correct checksum.
    assert all(entry["checksum_ok"] for entry in result["validation"])
