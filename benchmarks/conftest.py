"""Shared configuration for the benchmark harness.

Every benchmark regenerates one table or figure of the paper: it executes
the workload at a reduced data scale, reports simulated runtimes on the
paper's hardware at the paper's data scale, and prints the regenerated
rows/series so the output can be compared against the paper; each bench's
assertions are the record of which of the paper's claims hold here.

Run with::

    python -m pytest benchmarks/bench_*.py -q -s
"""

from __future__ import annotations

import pytest


def pytest_configure(config):
    # Benchmarks print their regenerated tables; keep the output readable.
    config.option.benchmark_disable_gc = True


@pytest.fixture
def run_once(benchmark):
    """Run a callable exactly once under pytest-benchmark timing.

    The experiment functions already repeat enough simulated work internally;
    re-running them many times would only slow the suite down.
    """

    def runner(func, *args, **kwargs):
        return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1)

    return runner
