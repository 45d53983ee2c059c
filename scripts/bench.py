#!/usr/bin/env python3
"""Time the brute-force oracle and the determinant-method pipeline on fixed
rows and write BENCH_8.json at the repository root.

Each row is one call in this process, timed with `time.perf_counter`:
`brute_force_count(curve, N)` for the oracle rows (the ROADMAP baseline)
and `determinant_method_count(curve, N, compare_oracle=False)` for the
pipeline rows.  The file holds each call, curve, box, count and seconds,
plus the interpreter and machine they were measured on.

    PYTHONPATH=src python3 scripts/bench.py
"""

import json
import os
import platform
import time
from pathlib import Path

from latcurve import brute_force_count, determinant_method_count, parse

ROWS = [
    ("oracle", "x - y^2", 10**4),
    ("oracle", "x - y^2", 10**5),
    ("oracle", "y^2 - x^3 - x - 1", 10**4),
    ("oracle", "y^2 - x^3 - x - 1", 10**5),
    ("pipeline", "x^2 + y^2 - 250000", 500),
    ("pipeline", "x - 2*y^2 - 53*y", 500),
    # the ROADMAP baseline pipeline row
    ("pipeline", "x - y^5", 1000),
    # the two partition-bound ROADMAP baseline rows
    ("pipeline", "y^2 - x^3 - x - 1", 50),
    ("pipeline", "4*y^3 - x^2 + 6*x*y + 2*y", 33),
    # the ROADMAP item 2 cubic, found by the item-4 fuzz
    ("pipeline", "-x^3 - 5*x^2*y + 4*y^3 + 3*x*y - 3*x", 27),
    # a long |f'| <= 1 branch for greedy covering (ROADMAP item 3)
    ("pipeline", "x - y^2", 4000),
]

OUT = Path(__file__).resolve().parent.parent / "BENCH_8.json"


def count(kind: str, text: str, n_box: int) -> int:
    curve = parse(text)
    if kind == "oracle":
        return brute_force_count(curve, n_box)[0]
    return determinant_method_count(curve, n_box, compare_oracle=False).total


def time_row(kind: str, text: str, n_box: int) -> dict:
    start = time.perf_counter()
    total = count(kind, text, n_box)
    seconds = time.perf_counter() - start
    return {"kind": kind, "curve": text, "N": n_box, "count": total, "seconds": seconds}


def main() -> int:
    rows = []
    for kind, text, n_box in ROWS:
        row = time_row(kind, text, n_box)
        print(f"{kind:8} {text:26} N = {n_box:>6}  count {row['count']:>4}  {row['seconds']:8.2f} s")
        rows.append(row)
    payload = {
        "benchmark": "brute_force_count oracle sweep and determinant_method_count pipeline",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "rows": rows,
    }
    OUT.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {OUT.name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
