#!/usr/bin/env python3
"""Compare two benchmark result files, per workload and metric.

Usage: python3 bench/compare.py BASE.jsonl CHANGE.jsonl

Each file holds run records as ``bench/run.py`` appends them to
``.bench_out/results.jsonl``. For every workload and metric the report
prints each side's median and quartiles over its runs and a verdict for the
end-to-end metrics that BENCHMARK.json bounds:

* ``worse``       the change's median is worse than the base's by more than
                  the bound;
* ``better``      the change's median is better by more than the base's own
                  spread (distance between its quartiles);
* ``same``        neither;
* ``unresolved``  either side's spread is wider than the bound, and the runs
                  do not separate (every change run better, or every one
                  worse, than every base run).

Metrics without a bound (per-layer and named metrics) are listed without a
verdict. Exits 1 when any metric is worse, else 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path) -> dict:
    """{(workload, metric): (unit, [values])} over every run in the file."""
    table = defaultdict(lambda: ("", []))
    with open(path) as fh:
        for line in fh:
            record = json.loads(line)
            for group in ("metrics", "named"):
                for name, m in record[group].items():
                    key = (record["workload"], name)
                    table[key] = (m["unit"], table[key][1])
                    table[key][1].append(m["value"])
    return dict(table)


def summary(values) -> tuple[float, float, float]:
    """(median, first quartile, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3


def spread(values) -> float:
    med, q1, q3 = summary(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def verdict(base, change, better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    b_med, c_med = summary(base)[0], summary(change)[0]
    if b_med == 0 or spread(base) > bound or spread(change) > bound:
        if all(sign * c < sign * b for c in change for b in base):
            return "better"
        if all(sign * c > sign * b for c in change for b in base):
            return "worse"
        return "unresolved"
    worsening = sign * (c_med - b_med) / abs(b_med)
    if worsening > bound:
        return "worse"
    if -worsening > spread(base):
        return "better"
    return "same"


def compare(base: dict, change: dict, specs: dict) -> tuple[list[str], bool]:
    lines = []
    any_worse = False
    for key in sorted(set(base) & set(change)):
        workload, name = key
        unit, b_vals = base[key]
        _, c_vals = change[key]
        b_med, b_q1, b_q3 = summary(b_vals)
        c_med, c_q1, c_q3 = summary(c_vals)
        delta = (c_med - b_med) / abs(b_med) * 100 if b_med else float("nan")
        spec = specs.get(name)
        mark = verdict(b_vals, c_vals, spec["better"], spec["bound"]) if spec else "-"
        any_worse |= mark == "worse"
        lines.append(
            f"{workload:13s} {name:30s} {unit:6s} "
            f"base {b_med:11.5g} [{b_q1:.5g}, {b_q3:.5g}] n={len(b_vals):<3d} "
            f"change {c_med:11.5g} [{c_q1:.5g}, {c_q3:.5g}] n={len(c_vals):<3d} "
            f"{delta:+7.2f}%  {mark}"
        )
    return lines, any_worse


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    specs = {m["name"]: m for m in json.loads(BENCHMARK.read_text())["end_to_end"]}
    lines, any_worse = compare(load(argv[0]), load(argv[1]), specs)
    print("\n".join(lines))
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
