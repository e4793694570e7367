"""Compare a parent and a change result set, per workload and metric.

Usage, from the root of a checkout::

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds the records ``perfbench/run.py --out FILE`` appends.
Parent and change runs pair up by seed (the i-th parent run of a seed
with the i-th change run of that seed), so run them as interleaved
pairs, alternating which side goes first.  Only untraced records are
compared, on the end-to-end metrics of ``BENCHMARK.json`` with their
bounds; the rule is :func:`perfbench.stats.verdict`.  Prints one line
per (workload, metric) pair: improved, no worse, unresolved or
regressed.  Exits 1 when any pair regressed, 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import defaultdict
from typing import Dict, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench import stats  # noqa: E402


def load(path: str) -> Dict[str, Dict[int, List[dict]]]:
    """workload -> seed -> untraced records in file order."""
    runs: Dict[str, Dict[int, List[dict]]] = defaultdict(lambda: defaultdict(list))
    with open(path) as handle:
        for line in handle:
            if not line.strip():
                continue
            record = json.loads(line)
            if not record.get("trace"):
                runs[record["workload"]][record["seed"]].append(record)
    return runs


def pairs(parent: Dict[int, List[dict]], change: Dict[int, List[dict]]) -> List[Tuple[dict, dict]]:
    out = []
    for seed in sorted(set(parent) & set(change), key=str):
        out.extend(zip(parent[seed], change[seed]))
    return out


def compare(parent_path: str, change_path: str, benchmark: dict) -> List[dict]:
    parent, change = load(parent_path), load(change_path)
    rows = []
    for workload in sorted(set(parent) | set(change)):
        matched = pairs(parent.get(workload, {}), change.get(workload, {}))
        if not matched:
            rows.append({"workload": workload, "metric": "-", "verdict": "unpaired"})
            continue
        more_failures = (sum(c["result"]["failed"] for _, c in matched)
                         > sum(p["result"]["failed"] for p, _ in matched))
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            try:
                p_values = [p["result"]["metrics"][name]["value"] for p, _ in matched]
                c_values = [c["result"]["metrics"][name]["value"] for _, c in matched]
            except KeyError:
                rows.append({"workload": workload, "metric": name, "verdict": "missing"})
                continue
            row = stats.verdict(p_values, c_values, metric["better"], metric["bound"])
            if row["verdict"] == "improved" and more_failures:
                # a gain does not count when more operations fail
                row["verdict"] = "no worse"
            row.update(workload=workload, metric=name, unit=metric["unit"],
                       bound=metric["bound"])
            rows.append(row)
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Compare parent and change benchmark runs.")
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--benchmark", default=os.path.join(ROOT, "BENCHMARK.json"))
    args = parser.parse_args(argv)
    with open(args.benchmark) as handle:
        benchmark = json.load(handle)
    rows = compare(args.parent, args.change, benchmark)
    print(f"{'workload':<16} {'metric':<16} {'parent':>12} {'change':>12} "
          f"{'spread':>7} {'bound':>6} {'wins':>6}  verdict")
    for row in rows:
        if "pairs" not in row:
            print(f"{row['workload']:<16} {row['metric']:<16} {'':>12} {'':>12} "
                  f"{'':>7} {'':>6} {'':>6}  {row['verdict']}")
            continue
        print(f"{row['workload']:<16} {row['metric']:<16} "
              f"{row['parent_median']:>12.6g} {row['change_median']:>12.6g} "
              f"{row['parent_spread']:>7.3f} {row['bound']:>6.2f} "
              f"{row['wins']:>3}/{row['pairs']:<2}  {row['verdict']}")
    return 1 if any(row["verdict"] == "regressed" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
