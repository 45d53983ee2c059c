#!/usr/bin/env python3
"""Print the four identity hashes that show two versions of latcurve give
identical outputs:

- `fixtures`: the eight fixture reports, as `scripts/fixture_report.py`
  hashes them (`determinant_method_count` with its defaults);
- `partition` and `columns`: the reports of the seed-1 latbench workloads,
  7 and 8 rounds, from `determinant_method_count(curve, N,
  compare_oracle=False)`;
- `sweep`: the seed-1 latbench `sweep` workload, 4 rounds, as
  `[text, N, total, points]` rows from `brute_force_count(curve, N)`.

Each hash is the SHA-256 of `json.dumps(items, sort_keys=True)` over the
cases in order (round by round, family slot by slot).  The workloads are
read from latbench/workloads.py, which this script only imports.  Each hash
is compared with its expected value in `EXPECTED`; the exit status is 1 when
any differs, else 0.

    PYTHONPATH=src python3 scripts/output_hashes.py
"""

import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "latbench"))
sys.path.insert(0, str(ROOT / "scripts"))

from fixture_report import FIXTURES  # noqa: E402
from latcurve import brute_force_count, determinant_method_count, parse  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 1
ROUNDS = {"partition": 7, "columns": 8, "sweep": 4}
EXPECTED = {
    "fixtures": "304f600582b61cdbbedcc11eb2f81d59820b9dd9dd8bbaa1b72284efe8078e78",
    "partition": "9262b5f28cff06c9f93df9b7948aa0b053555e95cd7906e5e062c32d8ea35b9e",
    "columns": "030f25d41e334dc52dea672636c5c0785bb7887a8c0e13905fa4924ae54c6f72",
    "sweep": "3833272fd356e6abf3e11d943f6c87005b80e163319100290e66a5c783d9d172",
}


def digest(items: list) -> str:
    return hashlib.sha256(json.dumps(items, sort_keys=True).encode()).hexdigest()


def workload_cases(name: str) -> list:
    return [case for row in WORKLOADS[name].rounds(SEED, ROUNDS[name]) for case in row]


def pipeline_reports(name: str) -> list:
    return [
        determinant_method_count(parse(case.text), case.n_box, compare_oracle=False).to_json_dict()
        for case in workload_cases(name)
    ]


def sweep_rows() -> list:
    rows = []
    for case in workload_cases("sweep"):
        total, points = brute_force_count(parse(case.text), case.n_box)
        rows.append([case.text, case.n_box, total, points])
    return rows


def main() -> int:
    fixtures = [determinant_method_count(parse(text), box).to_json_dict() for text, box in FIXTURES]
    hashes = {
        "fixtures": digest(fixtures),
        "partition": digest(pipeline_reports("partition")),
        "columns": digest(pipeline_reports("columns")),
        "sweep": digest(sweep_rows()),
    }
    for name, value in hashes.items():
        status = "ok" if value == EXPECTED[name] else f"MISMATCH, expected {EXPECTED[name]}"
        print(f"{name:9} {value} {status}")
    return 0 if hashes == EXPECTED else 1


if __name__ == "__main__":
    raise SystemExit(main())
