"""Compare benchmark runs of a parent commit and a change.

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds run records as ``run.py`` appends them to
``.perfbench/runs.jsonl`` (untraced runs are compared; traced ones are
skipped).  Prints one row per workload and end-to-end metric: each side's
median and quartiles, the change's win fraction over pairs (the i-th
parent run against the i-th change run of the workload) and a verdict:

* ``improved``: at least ten pairs, the change wins at least nine tenths
  of them (ties count for neither), and the medians differ by more than
  the parent's own quartile spread;
* ``unresolved``: either side's quartile spread is wider than the bound,
  and not every change run beats every parent run;
* ``worse``: the change's median is worse than the parent's by more than
  the bound;
* ``no worse``: otherwise.

Bounds and directions come from ``BENCHMARK.json``.  Metrics the report
prints but ``BENCHMARK.json`` does not gate (per-scheme medians, p90,
rerender time) are judged lower-is-better against ``UNGATED_BOUND``.  An
``improved`` verdict is withheld when the change fails more operations
than the parent.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

UNGATED_BOUND = 0.25
MIN_PAIRS = 10


def load_runs(path: str) -> Dict[str, List[dict]]:
    by_workload: Dict[str, List[dict]] = {}
    with open(path) as handle:
        for line in handle:
            if not line.strip():
                continue
            run = json.loads(line)
            if not run["trace"]:
                by_workload.setdefault(run["workload"], []).append(run)
    return by_workload


def cpu_probe(runs: List[dict]) -> float:
    """Median machine-speed probe of a side's runs (see run.py)."""
    return statistics.median(
        t for r in runs for t in r["record"].get("cpu_probe_s", [0.0]))


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(parent: List[float], change: List[float], better: str,
            bound: float) -> Tuple[str, float]:
    """(verdict, win fraction) for one workload and metric."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    win_fraction = wins / len(pairs) if pairs else 0.0
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    gain = sign * (c_med - p_med)
    if (len(pairs) >= MIN_PAIRS and win_fraction >= 0.9
            and gain > p_q3 - p_q1):
        return "improved", win_fraction
    spread = max((p_q3 - p_q1) / abs(p_med) if p_med else 0.0,
                 (c_q3 - c_q1) / abs(c_med) if c_med else 0.0)
    if spread > bound:
        every_run_better = (min(change) > max(parent) if sign > 0
                            else max(change) < min(parent))
        return ("no worse" if every_run_better else "unresolved"), win_fraction
    if p_med and -gain / abs(p_med) > bound:
        return "worse", win_fraction
    return "no worse", win_fraction


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    with open(Path(__file__).resolve().parent.parent / "BENCHMARK.json") as f:
        gated = {m["name"]: m for m in json.load(f)["end_to_end"]}
    parent_runs = load_runs(args.parent)
    change_runs = load_runs(args.change)
    header = (f"{'workload':13s} {'metric':24s} {'parent median [q1, q3]':34s} "
              f"{'change median [q1, q3]':34s} {'wins':>5s}  verdict")
    print(header)
    for workload in sorted(parent_runs.keys() & change_runs.keys()):
        parents, changes = parent_runs[workload], change_runs[workload]
        more_failures = (sum(r["failed"] for r in changes)
                         > sum(r["failed"] for r in parents))
        names = sorted(set.intersection(
            *[set(r["metrics"]) for r in parents + changes]))
        for name in names:
            spec = gated.get(name, {"better": "lower",
                                    "bound": UNGATED_BOUND})
            p = [r["metrics"][name]["value"] for r in parents]
            c = [r["metrics"][name]["value"] for r in changes]
            result, wins = verdict(p, c, spec["better"], spec["bound"])
            if result == "improved" and more_failures:
                result = "unresolved (more failures)"
            pq, cq = quartiles(p), quartiles(c)
            unit = parents[0]["metrics"][name]["unit"]
            print(f"{workload:13s} {name:24s} "
                  f"{pq[1]:10.4g} [{pq[0]:.4g}, {pq[2]:.4g}] {unit:<6s} "
                  f"{cq[1]:10.4g} [{cq[0]:.4g}, {cq[2]:.4g}] {unit:<6s} "
                  f"{wins:5.2f}  {result}"
                  + ("" if name in gated else "  (not gated)"))
        print(f"{workload:13s} runs: parent {len(parents)}, change "
              f"{len(changes)}; failed operations: parent "
              f"{sum(r['failed'] for r in parents)}, change "
              f"{sum(r['failed'] for r in changes)}; cpu probe median: "
              f"parent {cpu_probe(parents):.4g} s, change "
              f"{cpu_probe(changes):.4g} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
