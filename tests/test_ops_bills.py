"""Every operator kernel's bill, pinned.

Each public kernel of ``repro.ops.cpu`` and ``repro.ops.gpu`` runs once per
variant on fixed seeded inputs.  Its simulated time components, every
``TrafficCounter`` field, its stats and a sha256 of its value must equal
``data/ops_bills.json`` exactly, so a refactor of the operator plane cannot
move a modelled number unnoticed.  A change that moves one on purpose
re-records the file:

    PYTHONPATH=src python tests/test_ops_bills.py

The CPU and GPU kernel of one operator share one answer path, so each pair
must also return equal values.
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.ops import cpu, gpu
from repro.ops.cpu.project import sigmoid
from repro.ops.cpu.radix_partition import RadixPartitionOutput
from repro.ops.hash_table import LinearProbingHashTable

BILLS = Path(__file__).parent / "data" / "ops_bills.json"
ROWS = 4096
#: The radix join partitions only once a build table outgrows the 96 KB
#: budget, past 6 144 build rows at the 0.5 fill factor.
RADIX_JOIN_BUILD_ROWS = 8192


def _inputs():
    rng = np.random.default_rng(63)
    return {
        "x1": rng.random(ROWS).astype(np.float32),
        "x2": rng.random(ROWS).astype(np.float32),
        "y": rng.random(ROWS).astype(np.float32),
        "build_keys": np.arange(1024),
        "build_values": rng.integers(0, 1000, 1024),
        "probe_keys": rng.integers(0, 2048, ROWS),
        "probe_values": rng.integers(0, 1000, ROWS),
        "big_build_keys": np.arange(RADIX_JOIN_BUILD_ROWS),
        "big_build_values": rng.integers(0, 1000, RADIX_JOIN_BUILD_ROWS),
        "sort_keys": rng.integers(0, 2**31, ROWS, dtype=np.int64),
        "sort_payloads": np.arange(ROWS, dtype=np.int64),
    }


def run_kernels():
    """``case -> (value, [OperatorResult, ...])`` for every kernel and variant."""
    d = _inputs()
    cases = {}
    for variant in ("naive", "opt"):
        for udf in (None, sigmoid):
            name = f"cpu_project[{variant},{'sigmoid' if udf else 'linear'}]"
            result = cpu.cpu_project(d["x1"], d["x2"], udf=udf, variant=variant)
            cases[name] = (result.value, [result])
    for udf in (None, sigmoid):
        result = gpu.gpu_project(d["x1"], d["x2"], udf=udf)
        cases[f"gpu_project[{'sigmoid' if udf else 'linear'}]"] = (result.value, [result])
    for variant in ("if", "pred", "simd_pred"):
        result = cpu.cpu_select(d["y"], 0.3, variant)
        cases[f"cpu_select[{variant}]"] = (result.value, [result])
    for variant in ("if", "pred"):
        result = gpu.gpu_select(d["y"], 0.3, variant)
        cases[f"gpu_select[{variant}]"] = (result.value, [result])
    result = gpu.gpu_select(d["y"], 0.3, threads_per_block=32, items_per_thread=1)
    cases["gpu_select[pred,32x1]"] = (result.value, [result])
    result = gpu.gpu_select_independent_threads(d["y"], 0.3)
    cases["gpu_select_independent_threads"] = (result.value, [result])

    for device, build, probe, variants in (
        ("cpu", cpu.cpu_hash_join_build, cpu.cpu_hash_join_probe, ("scalar", "simd", "prefetch")),
        ("gpu", gpu.gpu_hash_join_build, gpu.gpu_hash_join_probe, (None,)),
    ):
        table, result = build(d["build_keys"], d["build_values"])
        cases[f"{device}_hash_join_build"] = (table, [result])
        for variant in variants:
            args = (d["probe_keys"], d["probe_values"], table) + ((variant,) if variant else ())
            result = probe(*args)
            cases[f"{device}_hash_join_probe[{variant or 'crystal'}]"] = (result.value, [result])
    for label, build_keys, build_values in (
        ("unpartitioned", d["build_keys"], d["build_values"]),
        ("partitioned", d["big_build_keys"], d["big_build_values"]),
    ):
        result = cpu.cpu_radix_join(build_keys, build_values, d["probe_keys"], d["probe_values"])
        cases[f"cpu_radix_join[{label}]"] = (result.value, [result])

    for bits in (6, 11):
        output, hist, shuffle = cpu.cpu_radix_partition(
            d["sort_keys"], d["sort_payloads"], radix_bits=bits, start_bit=3
        )
        cases[f"cpu_radix_partition[{bits}]"] = ((output, hist.value), [hist, shuffle])
    for stable, bits in ((True, 6), (True, 7), (False, 6), (False, 8)):
        output, hist, shuffle = gpu.gpu_radix_partition(
            d["sort_keys"], d["sort_payloads"], radix_bits=bits, start_bit=3, stable=stable
        )
        name = f"gpu_radix_partition[{'stable' if stable else 'unstable'},{bits}]"
        cases[name] = ((output, hist.value), [hist, shuffle])
    result = cpu.cpu_radix_sort(d["sort_keys"], d["sort_payloads"])
    cases["cpu_radix_sort"] = (result.value, [result])
    for variant in ("msb", "lsb"):
        result = gpu.gpu_radix_sort(d["sort_keys"], d["sort_payloads"], variant=variant)
        cases[f"gpu_radix_sort[{variant}]"] = (result.value, [result])
    return cases


def _feed(digest, value):
    if isinstance(value, np.ndarray):
        digest.update(f"{value.dtype.str}{value.shape}".encode())
        digest.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, (tuple, list)):
        for item in value:
            _feed(digest, item)
    elif isinstance(value, RadixPartitionOutput):
        _feed(digest, (value.keys, value.payloads, value.partition_offsets,
                       value.radix_bits, value.start_bit))
    elif isinstance(value, LinearProbingHashTable):
        _feed(digest, (value._keys, value._values))
    else:
        digest.update(repr(value).encode())


def bill(value, results):
    """The JSON-ready bill of one case: its value's digest and each result's cost."""
    digest = hashlib.sha256()
    _feed(digest, value)
    record = {
        "value_sha256": digest.hexdigest(),
        "results": [
            {
                "device": result.device,
                "variant": result.variant,
                "time": result.time.components,
                "traffic": dataclasses.asdict(result.traffic),
                "stats": result.stats,
            }
            for result in results
        ],
    }
    return json.loads(json.dumps(record, default=float))


@pytest.fixture(scope="module")
def cases():
    return run_kernels()


def test_every_public_kernel_is_billed(cases):
    billed = {name.partition("[")[0] for name in cases}
    assert billed == set(cpu.__all__) | set(gpu.__all__)


def test_bills_match_the_record(cases):
    recorded = json.loads(BILLS.read_text())
    assert sorted(cases) == sorted(recorded)
    for name, (value, results) in cases.items():
        assert bill(value, results) == recorded[name], name


def test_each_pair_returns_one_answer(cases):
    for stable, bits in ((True, 6), (False, 6)):
        (cpu_out, cpu_hist), _ = cases[f"cpu_radix_partition[{bits}]"]
        (gpu_out, gpu_hist), _ = cases[f"gpu_radix_partition[{'stable' if stable else 'unstable'},{bits}]"]
        for field in ("keys", "payloads", "partition_offsets"):
            assert np.array_equal(getattr(cpu_out, field), getattr(gpu_out, field))
        assert np.array_equal(cpu_hist, gpu_hist)
    cpu_keys, cpu_payloads = cases["cpu_radix_sort"][0]
    for variant in ("msb", "lsb"):
        gpu_keys, gpu_payloads = cases[f"gpu_radix_sort[{variant}]"][0]
        assert np.array_equal(cpu_keys, gpu_keys)
        assert np.array_equal(cpu_payloads, gpu_payloads)
    cpu_table, gpu_table = cases["cpu_hash_join_build"][0], cases["gpu_hash_join_build"][0]
    assert np.array_equal(cpu_table._keys, gpu_table._keys)
    assert np.array_equal(cpu_table._values, gpu_table._values)
    checksum = cases["gpu_hash_join_probe[crystal]"][0]
    for variant in ("scalar", "simd", "prefetch"):
        assert cases[f"cpu_hash_join_probe[{variant}]"][0] == checksum
    for variant in ("if", "pred"):
        assert np.array_equal(cases[f"cpu_select[{variant}]"][0], cases[f"gpu_select[{variant}]"][0])


if __name__ == "__main__":
    BILLS.parent.mkdir(exist_ok=True)
    records = {name: bill(value, results) for name, (value, results) in sorted(run_kernels().items())}
    BILLS.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
