"""The dashboard's memory peak is its set-up, not a cold query.

A dashboard session's traced peak is the larger of two things: building a
fact column's zone statistics (min/max plus a value bitset per zone) at
set-up, and the temporaries of the cold queries that two clients may run at
once.  The peak stays put from run to run only while the build dominates:
two overlapping cold queries must stay under it, so one must stay under half
of it.  Measured on SF 0.1 data clustered by order date.
"""

import tracemalloc

import pytest

from repro import Q, Session, generate_ssb
from repro.storage import cluster_by
from repro.storage.zonemap import DEFAULT_ZONE_SIZE, ColumnZoneStats


def traced_peak_mb(body):
    tracemalloc.start()
    try:
        body()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def cold_query(quantity, discount, price):
    """A dashboard drill-down: three fact filters, the date join, a count per year."""
    return (
        Q("lineorder")
        .filter("lo_quantity", "lt", quantity)
        .filter("lo_discount", "between", discount)
        .filter("lo_extendedprice", "ge", price)
        .join("date", on=("lo_orderdate", "d_datekey"), payload="d_year")
        .group_by("d_year")
        .agg("count")
    )


@pytest.fixture(scope="module")
def clustered_sf01():
    return cluster_by(generate_ssb(scale_factor=0.1, seed=1), "lineorder", "lo_orderdate")


def test_a_cold_query_peaks_below_half_the_zone_statistics_build(clustered_sf01):
    quantity = clustered_sf01.table("lineorder")["lo_quantity"]
    build_mb = traced_peak_mb(lambda: ColumnZoneStats.build("lo_quantity", quantity, DEFAULT_ZONE_SIZE))
    with Session(clustered_sf01) as session:
        # Set-up: zone statistics and the date build are cached from here on.
        session.run(cold_query(30, (2, 4), 90_001))
        query_mb = traced_peak_mb(lambda: session.run(cold_query(25, (1, 3), 9_000_000)))
    assert query_mb < build_mb / 2, f"cold query {query_mb:.2f} MB against a {build_mb:.2f} MB zone build"
