"""Command-line interface.

Subcommands: count (brute force, cover pipeline, or both), cover (greedy
cover of a point file), jarnik (extremal convex configuration), hk (implicit
derivative polynomials).

Exit status: 0 success; 1 when `count` prints a report that is not ok (an
oracle mismatch, an exceeded curve budget or a large-derivative piece
longer than 2/delta); 2 input error.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .branch import BranchError, hk_sequence
from .counting import CountingError, CountReport, brute_force_count, determinant_method_count
from .detmethod import LatticePoint, greedy_cover
from .jarnik import jarnik_construct, smoothed_taylor, verify_smoothing
from .monomials import full_set
from .poly2 import IngestionError, PolyParseError, parse

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_INPUT = 2


def _parse_fraction(text: str) -> Fraction:
    if "/" in text:
        num, den = text.split("/", 1)
        return Fraction(int(num), int(den))
    return Fraction(int(text))


def _cmd_count(args) -> int:
    try:
        curve = parse(args.poly)
    except PolyParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        delta = _parse_fraction(args.delta) if args.delta else None
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: bad --delta {args.delta!r}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        if args.method == "brute":
            total, points = brute_force_count(curve, args.box)
            report = CountReport(
                parameters={"poly": curve.pretty(), "N": args.box, "box": "{1..N}^2"},
                total=total,
                oracle_total=None,
                per_branch=[],
                exceptions=points,
                warnings=[],
                ok=True,
            )
        else:
            report = determinant_method_count(
                curve,
                args.box,
                ell=args.ell,
                delta=delta,
                compare_oracle=(args.method == "both"),
            )
    except (CountingError, IngestionError, BranchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    if args.out == "json":
        print(json.dumps(report.to_json_dict(), indent=2))
    else:
        print("x,y,curve_index")
        for x0, y0, idx in report.csv_rows():
            print(f"{x0},{y0},{idx}")
    return EXIT_OK if report.ok else EXIT_VERIFICATION


def _read_points_file(path: str) -> list[LatticePoint]:
    points = []
    with open(path) as handle:
        for line_no, line in enumerate(handle, start=1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            parts = body.split()
            if len(parts) != 2:
                raise ValueError(f"line {line_no}: expected 'x y'")
            points.append(LatticePoint(int(parts[0]), int(parts[1])))
    return points


def _cmd_cover(args) -> int:
    try:
        points = _read_points_file(args.points)
        points.sort()
        cert = greedy_cover(points, full_set(args.degree))
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    payload = {
        "degree": args.degree,
        "points": [list(p) for p in points],
        "curves": [c.pretty() for c in cert.curves],
        "assignment": [
            {"point": list(p), "curve": idx} for p, idx in sorted(cert.assignment.items())
        ],
    }
    print(json.dumps(payload, indent=2))
    return EXIT_OK


def _cmd_jarnik(args) -> int:
    if args.H < 1:
        print("error: H must be >= 1", file=sys.stderr)
        return EXIT_INPUT
    cfg = jarnik_construct(args.H)
    if args.emit == "points":
        payload = {
            "H": cfg.H,
            "t": cfg.t,
            "Q_t": cfg.q_total,
            "A_t": cfg.a_total,
            "epsilon": str(cfg.epsilon),
            "vectors": [list(v) for v in cfg.vectors],
            "points": [list(p) for p in cfg.points],
        }
    else:
        segments = []
        for i in range(len(cfg.points) - 1):
            x0 = Fraction(cfg.points[i][0])
            c = smoothed_taylor(cfg, x0, 2)
            segments.append(
                {
                    "from": list(cfg.points[i]),
                    "to": list(cfg.points[i + 1]),
                    "value": str(c[0]),
                    "slope": str(c[1]),
                    "curvature": str(c[2]),
                }
            )
        payload = {
            "H": cfg.H,
            "t": cfg.t,
            "Q_t": cfg.q_total,
            "epsilon": str(cfg.epsilon),
            "strictly_convex": verify_smoothing(cfg),
            "segments": segments,
        }
    print(json.dumps(payload, indent=2))
    return EXIT_OK


def _cmd_hk(args) -> int:
    try:
        curve = parse(args.poly)
        seq = hk_sequence(curve, args.k)
    except (PolyParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    for k, poly in enumerate(seq, start=1):
        print(f"H_{k} = {poly.pretty()}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latcurve",
        description="Exact lattice-point counting on plane algebraic curves",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    count = sub.add_parser("count", help="count integer points in {1..N}^2")
    count.add_argument("--poly", required=True, help="curve polynomial, e.g. 'x*y - 12'")
    count.add_argument("--box", required=True, type=int, metavar="N")
    count.add_argument("--method", choices=("brute", "detm", "both"), default="both")
    count.add_argument("--ell", type=int, default=None, help="monomial degree ceiling")
    count.add_argument("--delta", default=None, help="derivative decay rate, e.g. 1/4")
    count.add_argument("--out", choices=("json", "csv"), default="json")
    count.set_defaults(func=_cmd_count)

    cover = sub.add_parser("cover", help="greedily cover points from a file")
    cover.add_argument("--points", required=True, help="file with one 'x y' pair per line")
    cover.add_argument("--degree", required=True, type=int)
    cover.set_defaults(func=_cmd_cover)

    jarnik = sub.add_parser("jarnik", help="extremal convex configuration")
    jarnik.add_argument("--H", required=True, type=int)
    jarnik.add_argument("--emit", choices=("points", "function"), default="points")
    jarnik.set_defaults(func=_cmd_jarnik)

    hk = sub.add_parser("hk", help="implicit derivative polynomials of a curve")
    hk.add_argument("--poly", required=True)
    hk.add_argument("--k", required=True, type=int)
    hk.set_defaults(func=_cmd_hk)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
