#!/usr/bin/env python3
"""Time the brute-force oracle and the determinant-method pipeline on fixed
rows and write BENCH_16.json at the repository root.

Each row is timed RUNS = 3 times, each run one call in a fresh interpreter
(so the package's caches start empty, as in a CLI call), timed there with
`time.perf_counter`: `brute_force_count(curve, N)` for the oracle rows (the
ROADMAP baseline) and `determinant_method_count(curve, N,
compare_oracle=False)` for the pipeline rows.  A row's seconds are the
median of its runs.  The file holds each call, curve, box, count, median
and all runs, plus the interpreter and machine they were measured on.

    PYTHONPATH=src python3 scripts/bench.py
"""

import json
import multiprocessing
import os
import platform
import statistics
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
    # a fuzz curve whose level sets meet many simple eliminant roots with no
    # crossing along the branch
    ("pipeline", "-3*x^3 + 6*x*y^2 - 5", 34),
    # a long |f'| <= 1 branch for greedy covering (ROADMAP item 3)
    ("pipeline", "x - y^2", 4000),
    # fuzz cubics whose eliminants have many close roots (ROADMAP item 2)
    ("pipeline", "-3*x^3 - 6*x^2*y + 4*y^3 + x*y", 34),
    ("pipeline", "4*x^3 + 4*x^2*y + 3*x^2 + 4*x - 5*y", 37),
    ("pipeline", "-5*x^3 - 5*x^2*y + 2*y^3 - 2*x^2", 36),
]

OUT = Path(__file__).resolve().parent.parent / "BENCH_16.json"
RUNS = 3


def count(kind: str, text: str, n_box: int) -> int:
    curve = parse(text)
    if kind == "oracle":
        return brute_force_count(curve, n_box)[0]
    return determinant_method_count(curve, n_box, compare_oracle=False).total


def timed_count(kind: str, text: str, n_box: int) -> tuple[int, float]:
    start = time.perf_counter()
    total = count(kind, text, n_box)
    return total, time.perf_counter() - start


def time_row(kind: str, text: str, n_box: int) -> dict:
    runs = []
    for _ in range(RUNS):
        with multiprocessing.get_context("spawn").Pool(1) as pool:
            runs.append(pool.apply(timed_count, (kind, text, n_box)))
    totals = {total for total, _ in runs}
    if len(totals) != 1:
        raise RuntimeError(f"{kind} {text} N = {n_box}: runs disagree on the count: {sorted(totals)}")
    seconds = [s for _, s in runs]
    return {
        "kind": kind,
        "curve": text,
        "N": n_box,
        "count": totals.pop(),
        "seconds": statistics.median(seconds),
        "runs": seconds,
    }


def main() -> int:
    rows = []
    for kind, text, n_box in ROWS:
        row = time_row(kind, text, n_box)
        spread = " ".join(f"{s:.2f}" for s in row["runs"])
        print(f"{kind:8} {text:36} N = {n_box:>6}  count {row['count']:>4}  {row['seconds']:8.2f} s  ({spread})")
        rows.append(row)
    payload = {
        "benchmark": "brute_force_count oracle sweep and determinant_method_count pipeline",
        "runs_per_row": RUNS,
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
