"""The ledger's one command.

    python benchmarks/ledger/run.py [--workload NAME] [--seed N] [--trace]

Each workload runs in a fresh child process under the pinned environment
(:data:`catalog.PINNED_ENV`), checks every answer, and reports back; this
parent prints every metric as ``workload/metric value unit``, writes
``ledger.json`` (and, with ``--trace``, ``<workload>.spans.jsonl``) to
``--out``, and -- for a single workload -- ends with the one-line JSON
object the driver's contract reads.  A wrong answer or a failed operation
makes the exit code non-zero rather than reporting a fast number.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, os.path.join(ROOT, "src"))

import catalog  # noqa: E402  (sibling module; the script's directory is on sys.path)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=catalog.ALL, help="run one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=catalog.DEFAULT_SEED,
                        help="drives data, query order, cold-query parameters and batch contents")
    parser.add_argument("--seconds", type=float, default=catalog.DEFAULT_SECONDS,
                        help="sizes the fixed request counts (never below the 480-sample floor)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                        help="also run the traced pass and report per-layer metrics")
    parser.add_argument("--out", default=os.path.join(HERE, "out"),
                        help="directory for ledger.json, span files and the scratch durability dir")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def child_main(args: argparse.Namespace) -> int:
    """Measure one workload in this (already pinned) process."""
    import harness
    import workloads

    work_dir = os.path.join(args.out, f"work-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    try:
        record = workloads.measure(
            args.workload,
            seed=args.seed,
            seconds=args.seconds,
            trace=bool(args.trace),
            work_dir=work_dir,
            spans_path=os.path.join(args.out, f"{args.workload}.spans.jsonl"),
        )
        record["fingerprint"] = harness.fingerprint(ROOT, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    with open(os.path.join(args.out, f"{args.workload}.result.json"), "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    return 0


def run_child(args: argparse.Namespace, workload: str) -> dict:
    """Re-exec this script for ``workload`` under the pinned environment."""
    env = {**os.environ, **catalog.PINNED_ENV}
    command = [
        sys.executable, os.path.abspath(__file__), "--child", "--workload", workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--out", args.out,
    ]
    result_path = os.path.join(args.out, f"{workload}.result.json")
    if os.path.exists(result_path):
        os.remove(result_path)
    completed = subprocess.run(command, env=env, check=False)
    if completed.returncode != 0:
        raise SystemExit(f"{workload}: child exited with code {completed.returncode}")
    with open(result_path, encoding="utf-8") as handle:
        record = json.load(handle)
    os.remove(result_path)
    return record


def pinned_sha(workload: str) -> str | None:
    with open(os.path.join(HERE, "answers.json"), encoding="utf-8") as handle:
        return json.load(handle)["answers_sha256"].get(workload)


def report(record: dict, args: argparse.Namespace) -> bool:
    """Print one workload's metrics; returns whether the run is correct."""
    name = record["workload"]
    for metric in catalog.end_to_end_for(name):
        print(f"{name}/{metric} {record['end_to_end'][metric]:.6g} {catalog.END_TO_END[metric][0]}")
    for metric, value in record["per_layer"].items():
        print(f"{name}/{metric} {value:.6g} {catalog.PER_LAYER[metric][0]}")
    for title, rows in record["tables"].items():
        print(f"{name}/table {title}")
        print("| " + " | ".join(rows[0]) + " |")
        print("|" + "---|" * len(rows[0]))
        for row in rows:
            print("| " + " | ".join(f"{v:.2f}" if isinstance(v, float) else str(v) for v in row.values()) + " |")
    print(f"{name}/attempted {record['attempted']} count")
    print(f"{name}/failed {record['failed']} count")
    print(f"{name}/samples {json.dumps(record['samples'])}")
    print(f"{name}/answers_sha256 {record['answers_sha256']}")
    correct = record["failed"] == 0
    for note in record["failures"]:
        print(f"{name}/FAILED {note}")
    if args.seed == catalog.DEFAULT_SEED and args.seconds == catalog.DEFAULT_SECONDS:
        pinned = pinned_sha(name)
        if pinned is not None and pinned != record["answers_sha256"]:
            print(f"{name}/FAILED answers_sha256 differs from the pinned {pinned}")
            correct = False
    return correct


def contract_line(record: dict, correct: bool, trace: int) -> str:
    """The driver's last-line JSON: BENCHMARK.json's metrics for this mode."""
    spec = catalog.benchmark_json()
    values = {**dict.fromkeys(catalog.END_TO_END, 0.0), **record["end_to_end"], **record["per_layer"]}
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    return json.dumps({
        "correct": correct,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    })


def main(argv=None) -> int:
    args = parse_args(argv)
    os.makedirs(args.out, exist_ok=True)
    if args.child:
        return child_main(args)
    names = [args.workload] if args.workload else list(catalog.ALL)
    records, all_correct = [], True
    for name in names:
        record = run_child(args, name)
        correct = report(record, args)
        all_correct = all_correct and correct
        records.append(record)
    fingerprint = records[0]["fingerprint"]
    print("fingerprint " + json.dumps(fingerprint))
    with open(os.path.join(args.out, "ledger.json"), "w", encoding="utf-8") as handle:
        json.dump({"fingerprint": fingerprint, "workloads": records}, handle, indent=1)
    if args.workload:
        print(contract_line(records[0], all_correct, args.trace))
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
