"""Self-test of the ledger (not part of the tier-1 ``testpaths``).

    PYTHONPATH=src python -m pytest benchmarks/ledger -q

Every workload runs end to end on SF 0.01 data with one round (16 ticks for
the ingest workload), traced pass included, and must emit exactly the metric
names the catalog declares for it, count no failure, put back every callable
it wrapped, and leave nothing behind in ``/dev/shm`` or its work directory.
"""

from __future__ import annotations

import json
import os

import pytest

import catalog
import spans
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
COUNTS = {"ssb_uniform": 1, "ssb_sharded": 1, "serve_dash": 30, "ingest_htap": 16}


def wrapped_callables() -> list:
    targets = spans.default_targets() + spans.zonemap_build_targets()
    return [vars(owner)[attr] for owner, attr, _ in targets]


@pytest.mark.parametrize("name", catalog.ALL)
def test_workload_emits_declared_metrics_and_cleans_up(name, tmp_path):
    before = wrapped_callables()
    record = workloads.measure(
        name,
        trace=True,
        work_dir=str(tmp_path),
        spans_path=str(tmp_path / "spans.jsonl"),
        scale_factor=0.01,
        count=COUNTS[name],
        traced_count=COUNTS[name],
    )
    assert record["failed"] == 0, record["failures"]
    assert record["attempted"] > 0
    assert list(record["end_to_end"]) == catalog.end_to_end_for(name)
    assert set(record["per_layer"]) == set(catalog.PER_LAYER)
    assert all(value > 0 for value in record["end_to_end"].values())

    after = wrapped_callables()
    assert all(a is b for a, b in zip(before, after)), "a wrapped callable was not restored"
    assert workloads.own_shm_bytes() == 0, "a shared-memory segment was left behind"
    assert os.listdir(tmp_path) == ["spans.jsonl"], "a durability dir or temp file was left behind"

    with open(tmp_path / "spans.jsonl", encoding="utf-8") as handle:
        recorded = [json.loads(line) for line in handle]
    assert len(recorded) == record["samples"]["spans"]
    by_id = {span["id"]: span for span in recorded}
    for span in recorded:
        assert span["end_ns"] >= span["start_ns"]
        if span["parent"] is not None:
            parent = by_id[span["parent"]]
            assert parent["start_ns"] <= span["start_ns"] and span["end_ns"] <= parent["end_ns"]
            assert parent["request_id"] == span["request_id"]
    # Every query of the traced pass is a root span carrying its own request.
    roots = [span for span in recorded if span["name"] == "api.run" and span["request_id"] is not None]
    assert len({span["request_id"] for span in roots}) == record["samples"]["traced_queries"]


def test_self_time_subtracts_children():
    recorder = spans.SpanRecorder()
    with recorder.span("outer"):
        with recorder.span("inner"):
            pass
        with recorder.span("inner"):
            pass
    totals = recorder.totals()
    assert totals["inner"]["calls"] == 2
    assert totals["outer"]["self_ns"] == totals["outer"]["total_ns"] - totals["inner"]["total_ns"]
    assert recorder.totals(keep=spans.under("inner")).keys() == {"inner"}


def test_benchmark_json_matches_the_catalog():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        assert json.load(handle) == catalog.benchmark_json()


def test_every_workload_has_a_pinned_answer_hash():
    with open(os.path.join(os.path.dirname(__file__), "answers.json"), encoding="utf-8") as handle:
        assert set(json.load(handle)["answers_sha256"]) == set(catalog.ALL)
