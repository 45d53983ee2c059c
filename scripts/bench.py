#!/usr/bin/env python3
"""Time the brute-force oracle and the determinant-method pipeline on fixed
rows and write BENCH_49.json at the repository root.

Each run is one call in a fresh interpreter (so the package's caches start
empty, as in a CLI call), timed there from parsing the curve to the result,
both in wall seconds (`time.perf_counter`) and in CPU seconds of that
process (`time.process_time`), which a busy shared host inflates less:
`brute_force_count(curve, N)` for the oracle rows
(the ROADMAP baseline) and `determinant_method_count(curve, N,
compare_oracle=False)` for the pipeline rows.

With `--parent PATH`, the source tree of a second checkout (the one that
holds `src/latcurve`), every row is timed on both trees: RUNS = 5 pairs of
fresh runs, alternating between the trees and swapping which goes first in
each pair, so the drift of a shared host falls on both sides alike.
Without it only this checkout is timed.  A side's seconds are the median
of its runs, and its CPU seconds the median of their CPU times; the counts
of all runs of a row must agree.  The file holds each call, curve, box and
count, each side's wall and CPU medians and runs, plus the interpreter and
machine they were measured on.

    python3 scripts/bench.py
    python3 scripts/bench.py --parent ../parent-checkout
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

ROWS = [
    ("oracle", "x - y^2", 10**4),
    ("oracle", "x - y^2", 10**5),
    # the ROADMAP's "N up to about 10^6": the sweep reads only the live
    # columns y <= 1000 of the swept axis
    ("oracle", "x - y^2", 10**6),
    # a circle whose live columns are x <= 500 of 10^4
    ("oracle", "x^2 + y^2 - 250000", 10**4),
    ("oracle", "y^2 - x^3 - x - 1", 10**4),
    ("oracle", "y^2 - x^3 - x - 1", 10**5),
    # the latbench `sweep` hyperbola family at a large box: one live run of
    # about 10^5 linear columns
    ("oracle", "x*y - 720720", 10**5),
    # degree 3 and 5 in y but 1 in x: the oracle sweeps y with linear columns
    ("oracle", "x - 13*y^3", 10**4),
    ("oracle", "x - 13*y^3", 10**5),
    ("oracle", "x - 12*y^5", 10**4),
    ("oracle", "x - 12*y^5", 10**5),
    # tied degrees in x and y, so the oracle sweeps x with cubic columns
    ("oracle", "-3*x^3 - 6*x^2*y + 4*y^3 + x*y", 10**4),
    ("oracle", "-3*x^3 - 6*x^2*y + 4*y^3 + x*y", 10**5),
    # a cubic with three real roots in every column: each column the sweep
    # reads takes the Descartes bisection of the integer root walk
    ("oracle", "372506*(y - 1)*(y - 2)*(y - 27) - 14*(x - 1)*(x - 2)*(x - 27)", 3000),
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
    # a partition-workload quartic with 15 derivative orders: its main branch
    # has 13 pieces on its decomposed domain and one on its integer hull
    ("pipeline", "x - 24*y^4", 100),
    # hulls that start one unit from a branch point, where the disc
    # certificate needs narrow stretches: a Pell conic whose hull starts at
    # x = 2, next to its branch point x = 1, and a swapped Weierstrass frame
    # with the hulls [1, 2] and [3, 3]
    ("pipeline", "x^2 - 101*y^2 - 1", 60),
    ("pipeline", "y^2 - x^3 + 8*x - 8", 25),
    # curves whose far sheets set the discs' Fujiwara bound: the first still
    # leaves orders of its hulls to the level sets, the second no longer does
    ("pipeline", "3*x^2*y + 4*y^3 - 5*y^2 - 2*x", 22),
    ("pipeline", "4*x*y + y^2 - 2*x", 28),
    # intersection-bound rows: long hyperbola runs, whose cover eliminants
    # the run abscissas deflate before the integer-root search
    ("pipeline", "x*y - 720720", 10**4),
    ("pipeline", "x*y - 55440", 1000),
    # rows where the integer branch points dominate and few covers are built
    ("pipeline", "y^2 - x^3 - x - 1", 10**4),
    ("pipeline", "-3*x^3 - 6*x^2*y + 4*y^3 + x*y", 10**4),
    # the heaviest level-set count known: a cubic whose discs leave many
    # orders to the level sets, so the partition's cut and flag layer shows
    ("pipeline", "372506*(y - 1)*(y - 2)*(y - 27) - 14*(x - 1)*(x - 2)*(x - 27)", 91),
    # a seeded cubic of the Horner-scan test whose 16 candidate cuts on one
    # hull all lie in the unit gap (45, 46): separating them took nearly the
    # whole count before cuts were read at unit resolution
    ("pipeline", "193667*(y - 0)*(y - 1)*(y - 27) - 32*(x - 0)*(x - 1)*(x - 27)", 75),
    # hulls whose ends lie within one unit of a critical abscissa: a
    # Weierstrass cubic whose swapped hull [2, 25] starts next to its branch
    # point near x = 1.45, and a latbench `columns` hyperbola whose hulls
    # start at 101, next to its slope -1 abscissa sqrt(10200) = 100.99...
    ("pipeline", "y^2 - x^3 - 3*x - 2", 25),
    ("pipeline", "x*y - 10200", 500),
    # large boxes, where the branch points of a piece are searched along the
    # rows of its integer values, far fewer than its abscissas: a parabola,
    # a cubic in y, a Weierstrass cubic and the tied cubic with slope 0.70 on
    # its swapped hull, and a second tied cubic at N = 10^4
    ("pipeline", "x - y^2", 10**5),
    ("pipeline", "x - 13*y^3", 10**5),
    ("pipeline", "y^2 - x^3 - x - 1", 10**5),
    ("pipeline", "-3*x^3 - 6*x^2*y + 4*y^3 + x*y", 10**5),
    ("pipeline", "-5*x^3 - 5*x^2*y + 2*y^3 - 2*x^2", 10**4),
    # curves equal to their transpose, decomposed and counted in one frame:
    # a circle, an Eisenstein norm form and a sum of two cubes (the
    # hyperbola x*y - 720720 is an intersection-bound row above)
    ("pipeline", "x^2 + y^2 - 4884100", 10**4),
    ("pipeline", "x^2 + x*y + y^2 - 2989441", 10**4),
    ("pipeline", "x^3 + y^3 - 87539319", 1000),
    # latbench `partition` members, a quintic and a Pell conic, whose counts
    # spent about 40% of their time in the disc certificate while its
    # positions were `Fraction`s
    ("pipeline", "x - 17*y^5", 100),
    ("pipeline", "x^2 - 32*y^2 - 1", 60),
    # a dense quartic with no point in the box, whose count is mostly
    # level-set resultants
    (
        "pipeline",
        "12*x^4 - 38*x^3*y + 50*x^2*y^2 + 10*x*y^3 - 35*y^4 - 24*x^3 - 2*x^2*y + 7*x*y^2"
        " - 18*y^3 + 33*x^2 + 47*x*y - 42*y^2 + 13*x + 47*y + 22",
        30,
    ),
]

OUT = ROOT / "BENCH_49.json"
RUNS = 5

# one timed call, run in a fresh interpreter with the tree's src on its path
CHILD = """
import sys, time
from latcurve import brute_force_count, determinant_method_count, parse
kind, text, n_box = sys.argv[1], sys.argv[2], int(sys.argv[3])
start, cpu = time.perf_counter(), time.process_time()
curve = parse(text)
if kind == "oracle":
    total = brute_force_count(curve, n_box)[0]
else:
    total = determinant_method_count(curve, n_box, compare_oracle=False).total
print(total, time.perf_counter() - start, time.process_time() - cpu)
"""


def timed_count(tree: Path, kind: str, text: str, n_box: int) -> tuple[int, float, float]:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    out = subprocess.run(
        [sys.executable, "-c", CHILD, kind, text, str(n_box)],
        cwd=tree, env=env, capture_output=True, text=True, check=True,
    ).stdout.split()
    return int(out[0]), float(out[1]), float(out[2])


def time_row(trees: dict[str, Path], kind: str, text: str, n_box: int) -> dict:
    runs: dict[str, list[tuple[int, float, float]]] = {side: [] for side in trees}
    order = list(trees)
    for k in range(RUNS):
        for side in order if k % 2 == 0 else order[::-1]:
            runs[side].append(timed_count(trees[side], kind, text, n_box))
    totals = {run[0] for side_runs in runs.values() for run in side_runs}
    if len(totals) != 1:
        raise RuntimeError(f"{kind} {text} N = {n_box}: runs disagree on the count: {sorted(totals)}")
    row = {"kind": kind, "curve": text, "N": n_box, "count": totals.pop()}
    for side, side_runs in runs.items():
        seconds, cpu = [run[1] for run in side_runs], [run[2] for run in side_runs]
        row[side] = {
            "seconds": statistics.median(seconds),
            "runs": seconds,
            "cpu_seconds": statistics.median(cpu),
            "cpu_runs": cpu,
        }
    return row


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, help="source tree of a second checkout, timed alternately")
    args = parser.parse_args()
    trees = {"change": ROOT}
    if args.parent is not None:
        if not (args.parent / "src" / "latcurve").is_dir():
            parser.error(f"{args.parent} holds no src/latcurve")
        trees["parent"] = args.parent.resolve()
    rows = []
    for kind, text, n_box in ROWS:
        row = time_row(trees, kind, text, n_box)
        sides = "  ".join(
            f"{side} {row[side]['seconds']:7.3f} s (cpu {row[side]['cpu_seconds']:7.3f} s)" for side in trees
        )
        print(f"{kind:8} {text:36} N = {n_box:>6}  count {row['count']:>4}  {sides}")
        rows.append(row)
    payload = {
        "benchmark": "brute_force_count oracle sweep and determinant_method_count pipeline",
        "runs_per_side": RUNS,
        "sides": list(trees),
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
