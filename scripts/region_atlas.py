#!/usr/bin/env python3
"""Sweep antenna configurations and tabulate region classifications.

Walks every interference configuration (M1, M2, N1, N2) in [1, limit]^4,
classifies each into its case, and writes one JSON document per config to a
JSONL file. Prints a census at the end: how many configs land in each case,
how many have a known region, and how many match the CSIT region exactly.

Bad input (an unparsable flag, a ``--limit`` below 1, or an ``--out`` that
cannot be opened for writing) exits 3 with a one-line message before the
sweep starts.

Example:
    python3 scripts/region_atlas.py --limit 4 --out atlas.jsonl
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from pathlib import Path

from mimodof.catalog import _check_partition, _integer, _sweep
from mimodof.cli import _Parser


def census_key(label: dict) -> str:
    return f"{label['table']}/case-{label['case_id']}"


def main(argv=None) -> int:
    parser = _Parser(description=__doc__.splitlines()[0])
    parser.add_argument("--limit", type=int, default=4,
                        help="sweep antenna counts 1..limit on all four nodes")
    parser.add_argument("--out", type=Path, default=None,
                        help="JSONL output path (omit to skip writing)")
    parser.add_argument("--check", action="store_true",
                        help="also run the exhaustive partition/sandwich check")
    args = parser.parse_args(argv)
    try:  # checked and opened before the sweep, so bad input costs no sweep
        _integer("limit", args.limit, 1)
        out = None if args.out is None else args.out.open("w")
    except (ValueError, OSError) as exc:
        parser.error(str(exc))

    cases = Counter()
    known = 0
    csit_equal = 0
    rows = []
    relations: dict = {}
    # One sweep serves the check and the table, so each distinct region is
    # reduced once and each relation the check reads is decided once.
    for config, result in _sweep(args.limit):
        if args.check:
            _check_partition(config, result, relations)
        doc = result.to_dict()
        doc["antennas"] = [config.M1, config.M2, config.N1, config.N2]
        cases[census_key(doc["label"])] += 1
        known += doc["label"]["region_known"]
        csit_equal += doc["label"]["csit_equal"]
        rows.append(doc)
    if args.check:
        print(f"partition check passed on [1, {args.limit}]^4")

    if out is not None:
        with out:
            for doc in rows:
                out.write(json.dumps(doc, sort_keys=True) + "\n")
        print(f"wrote {len(rows)} configs to {args.out}")

    total = len(rows)
    print(f"swept {total} configs on [1, {args.limit}]^4")
    for key, count in sorted(cases.items()):
        print(f"  {key:<18} {count:5d}  ({100.0 * count / total:5.1f}%)")
    print(f"region known: {known}/{total}  csit-equal: {csit_equal}/{total}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
