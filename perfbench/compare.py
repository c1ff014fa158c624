#!/usr/bin/env python3
"""Compare two sets of benchmark records, a parent's and a change's.

    python3 perfbench/compare.py PARENT_RESULTS CHANGE_RESULTS

Each argument is a directory of ``<workload>-seed<N>-trace0.json`` records as
``run.py`` writes them to ``.perfbench/results``.  For every workload in both
sets it prints each end-to-end metric's median and quartile spread on either
side and whether the change is worse than the parent by more than the
metric's bound.  If a seed's generated inputs differ between the two sets (the
corpus digest in the records), the comparison measured different work and is
reported invalid, with exit code 3.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(directory: str) -> dict[str, dict[int, dict]]:
    out: dict[str, dict[int, dict]] = {}
    for path in sorted(glob.glob(os.path.join(directory, "*-trace0.json"))):
        with open(path, encoding="utf-8") as fh:
            record = json.load(fh)
        out.setdefault(record["workload"], {})[record["seed"]] = record
    return out


def spread(values) -> float:
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        metrics = json.load(fh)["end_to_end"]
    parent, change = load(argv[0]), load(argv[1])
    invalid = []
    for workload in sorted(set(parent) & set(change)):
        a, b = parent[workload], change[workload]
        for seed in sorted(set(a) & set(b)):
            if a[seed]["inputs"] != b[seed]["inputs"]:
                invalid.append(f"{workload} seed {seed}: {a[seed]['inputs']} != {b[seed]['inputs']}")
        print(f"{workload}: {len(a)} parent runs, {len(b)} change runs")
        for m in metrics:
            va = [r["metrics"][m["name"]]["value"] for r in a.values()]
            vb = [r["metrics"][m["name"]]["value"] for r in b.values()]
            ma, mb = statistics.median(va), statistics.median(vb)
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            if worse > m["bound"]:
                verdict = "WORSE than the bound"
            elif spread(va) > m["bound"]:
                verdict = "unresolved: parent spread wider than the bound"
            else:
                verdict = "within the bound"
            print(
                f"  {m['name']:14} parent {ma:10.4f} (spread {spread(va):.3f})  change {mb:10.4f} "
                f"(spread {spread(vb):.3f})  {worse:+.3f} of parent, bound {m['bound']}: {verdict}"
            )
        failed = sum(r["failed"] for r in b.values()) - sum(r["failed"] for r in a.values())
        if failed > 0:
            print(f"  the change fails {failed} more operations than the parent")
    for line in invalid:
        print(f"INVALID, inputs differ: {line}")
    return 3 if invalid else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
