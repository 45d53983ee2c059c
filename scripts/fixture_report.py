#!/usr/bin/env python3
"""Run the counting pipeline across the fixture curves and print a table:
totals, oracle agreement, cover-curve counts versus budgets, timings.  The
last line is the SHA-256 of the reports' JSON (sorted keys), so two versions
of the library can be checked for identical reports."""

import argparse
import hashlib
import json
import time

from latcurve import determinant_method_count, parse

FIXTURES = [
    ("x - y^2", 100),
    ("x - y^3", 100),
    ("x - y^5", 100),
    ("x*y - 12", 100),
    ("x^2 + y^2 - 25", 100),
    ("x^2 + y^2 - 65", 100),
    ("y^2 - x^3 - x - 1", 50),
    ("x^2 - 2*y^2 - 1", 50),
]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--box", type=int, default=None, help="override every fixture box")
    ap.add_argument("--delta", default=None, help="decay rate like 1/4")
    args = ap.parse_args()
    delta = None
    if args.delta:
        from fractions import Fraction

        num, _, den = args.delta.partition("/")
        delta = Fraction(int(num), int(den or 1))

    header = f"{'curve':24} {'N':>5} {'total':>6} {'oracle':>6} {'curves':>7} {'budgets':>8} {'time':>7}"
    print(header)
    print("-" * len(header))
    reports = []
    for text, box in FIXTURES:
        n = args.box or box
        start = time.monotonic()
        rep = determinant_method_count(parse(text), n, delta=delta)
        elapsed = time.monotonic() - start
        reports.append(rep.to_json_dict())
        emitted = sum(len(pr.curves) for br in rep.per_branch for pr in br.pieces)
        budgets = sum(
            pr.budget for br in rep.per_branch for pr in br.pieces if pr.budget is not None
        )
        agree = "=" if rep.total == rep.oracle_total else "MISMATCH"
        print(
            f"{text:24} {n:>5} {rep.total:>6} {rep.oracle_total:>5}{agree} "
            f"{emitted:>7} {budgets:>8} {elapsed:>6.1f}s"
        )
        for w in rep.warnings:
            print(f"    warning: {w}")
    digest = hashlib.sha256(json.dumps(reports, sort_keys=True).encode()).hexdigest()
    print(f"reports sha256: {digest}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
