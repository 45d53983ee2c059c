#!/usr/bin/env python3
"""Time the brute-force oracle on the ROADMAP baseline rows and write
BENCH_3.json at the repository root.

Each row is one `brute_force_count(curve, N)` call in this process, timed
with `time.perf_counter`; the file holds each curve, box, count and seconds,
plus the interpreter and machine they were measured on.

    PYTHONPATH=src python3 scripts/oracle_bench.py
"""

import json
import os
import platform
import time
from pathlib import Path

from latcurve import brute_force_count, parse

ROWS = [
    ("x - y^2", 10**4),
    ("x - y^2", 10**5),
    ("y^2 - x^3 - x - 1", 10**4),
    ("y^2 - x^3 - x - 1", 10**5),
]

OUT = Path(__file__).resolve().parent.parent / "BENCH_3.json"


def time_row(text: str, n_box: int) -> dict:
    curve = parse(text)
    start = time.perf_counter()
    count, _ = brute_force_count(curve, n_box)
    return {"curve": text, "N": n_box, "count": count, "seconds": time.perf_counter() - start}


def main() -> int:
    rows = []
    for text, n_box in ROWS:
        row = time_row(text, n_box)
        print(f"{text:20} N = {n_box:>6}  count {row['count']:>4}  {row['seconds']:8.2f} s")
        rows.append(row)
    payload = {
        "benchmark": "brute_force_count oracle sweep",
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
