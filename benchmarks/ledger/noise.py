"""Regenerate the tables of NOISE.md: does the ledger repeat?

    python benchmarks/ledger/noise.py same-seed   # two sets of five traced runs, one seed
    python benchmarks/ledger/noise.py seeds       # two sets of ten untraced runs, ten seeds

``same-seed`` is the ledger's own acceptance check: per (workload, metric)
the two set medians, their relative difference, each set's quartile spread
and the bound, plus whether every exact counter read the same in all ten
runs.  ``seeds`` repeats the driver's check: ten seeds per set, the spread
between the first and third quartile (``statistics.quantiles(n=4)``) as a
share of the median, and the second median against the first.
Prints markdown; raw runs go to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

import catalog  # noqa: E402

#: Counters that must not differ between runs of one seed on the
#: single-client workloads (serve_dash interleaves two clients).
EXACT = (
    "engine.model_bytes", "engine.model_cpu_ms", "zonemap.zones_skipped", "zonemap.zones_evaluated",
    "zonemap.rows_pruned", "shard.tasks", "wal.fsyncs", "wal.bytes_per_user_byte", "checkpoint.count",
    "wal.recover_replayed",
)


def one_run(workload: str, seed: int, trace: int, out: str) -> dict:
    command = [
        sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
        "--seed", str(seed), "--trace", str(trace), "--out", out,
    ]
    completed = subprocess.run(command, capture_output=True, text=True, check=False)
    if completed.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {completed.returncode}\n{completed.stdout}\n{completed.stderr}")
    with open(os.path.join(out, "ledger.json"), encoding="utf-8") as handle:
        return json.load(handle)["workloads"][0]


def spread(values: list[float]) -> float:
    """Distance between the first and third quartile as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse the second median is than the first, as a share of it."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("mode", choices=("same-seed", "seeds"))
    parser.add_argument("--workload", action="append", choices=catalog.ALL)
    parser.add_argument("--out", default=os.path.join(HERE, "out", "noise"))
    args = parser.parse_args(argv)
    os.makedirs(args.out, exist_ok=True)
    runs_per_set = 5 if args.mode == "same-seed" else 10
    trace = 1 if args.mode == "same-seed" else 0
    names = args.workload or list(catalog.ALL)

    # Sets interleave across workloads, as the driver's do: set 1 of every
    # workload is measured before set 2 of any.
    records: dict = {name: [[], []] for name in names}
    for which in (0, 1):
        for name in names:
            for index in range(runs_per_set):
                seed = catalog.DEFAULT_SEED if args.mode == "same-seed" else 1 + index
                records[name][which].append(one_run(name, seed, trace, args.out))
    with open(os.path.join(args.out, f"{args.mode}.json"), "w", encoding="utf-8") as handle:
        json.dump(records, handle)

    print("| workload | metric | median 1 | median 2 | 2 worse by | spread 1 | spread 2 | bound | ok |")
    print("|---|---|---|---|---|---|---|---|---|")
    all_ok = True
    for name in names:
        for metric in catalog.end_to_end_for(name):
            unit, better, bound, _ = catalog.END_TO_END[metric]
            sets = [[run["end_to_end"][metric] for run in records[name][which]] for which in (0, 1)]
            medians = [statistics.median(values) for values in sets]
            worse = worse_by(medians[0], medians[1], better)
            spreads = [spread(values) for values in sets]
            # The driver's rule: the second median no worse than the first by
            # more than the bound and, except for setup_s, both spreads in it.
            ok = worse < bound and (metric == "setup_s" or max(spreads) < bound)
            all_ok = all_ok and ok
            print(
                f"| {name} | {metric} ({unit}) | {medians[0]:.5g} | {medians[1]:.5g} | {worse:+.1%} "
                f"| {spreads[0]:.1%} | {spreads[1]:.1%} | {bound:.0%} | {'yes' if ok else 'NO'} |"
            )
    if args.mode == "same-seed":
        print()
        print("| workload | exact counter | value | identical in all 10 runs |")
        print("|---|---|---|---|")
        for name in names:
            if name == "serve_dash":
                continue
            for metric in EXACT:
                values = {run["per_layer"][metric] for which in (0, 1) for run in records[name][which]}
                same = len(values) == 1
                all_ok = all_ok and same
                print(f"| {name} | {metric} | {sorted(values)[0]:.10g} | {'yes' if same else 'NO: ' + str(sorted(values))} |")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
