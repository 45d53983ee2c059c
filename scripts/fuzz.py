#!/usr/bin/env python3
"""Seeded differential fuzz of the counting pipeline against the oracle.

DRAWS = 300 draws from `random.Random(SEED)`, SEED = 7: a curve of degree 2
or 3 with two to five terms, integer coefficients |c| <= 6, and a box N in
5..40.  A draw whose curve has degree below 2 is skipped.  Each curve is
counted by `determinant_method_count(curve, N)` with the oracle on, one
after the other in this process (no worker is started), under a SIGALRM
budget of BUDGET_S = 8 s per count.

One line per curve gives its draw index, N, outcome, digest and curve.  The
outcome is `equal`, `mismatch`, `over-budget` or the class of the error the
count raised; the digest is the first 16 hex digits of the SHA-256 of the
report's JSON (sorted keys), or of the error message.  So the lines of two
checkouts can be diffed: a curve both finish has the same line exactly when
the reports are identical.  The last lines count the outcomes.  The exit
status is 1 when any total differs from the oracle's, else 0.

    PYTHONPATH=src python3 scripts/fuzz.py
"""

import hashlib
import json
import random
import signal
from collections import Counter

from latcurve import determinant_method_count
from latcurve.poly2 import BiPoly

SEED = 7
DRAWS = 300
BUDGET_S = 8
COEFFS = [c for c in range(-6, 7) if c]
RESULTS = ("equal", "mismatch", "over-budget")


class OverBudget(BaseException):
    """Raised by the alarm; a BaseException, so no `except Exception` in
    the library can take it for an input error."""


def _alarm(signum, frame):
    raise OverBudget


def draw(rng: random.Random) -> tuple[BiPoly, int]:
    """A curve whose first term has the drawn degree, and a box."""
    deg = rng.choice([2, 3])
    j1 = rng.randint(0, deg)
    terms = {(j1, deg - j1): rng.choice(COEFFS)}
    for _ in range(rng.randint(1, 4)):
        j1 = rng.randint(0, deg)
        terms[(j1, rng.randint(0, deg - j1))] = rng.choice(COEFFS)
    return BiPoly(terms), rng.randint(5, 40)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def run(curve: BiPoly, n_box: int) -> tuple[str, str]:
    """(outcome, digest) of one budgeted count."""
    signal.alarm(BUDGET_S)
    try:
        rep = determinant_method_count(curve, n_box)
    except OverBudget:
        return "over-budget", "-"
    except Exception as exc:  # every rejection is a result to compare
        return type(exc).__name__, digest(str(exc))
    finally:
        signal.alarm(0)
    outcome = "equal" if rep.total == rep.oracle_total else "mismatch"
    return outcome, digest(json.dumps(rep.to_json_dict(), sort_keys=True))


def main() -> int:
    signal.signal(signal.SIGALRM, _alarm)
    rng = random.Random(SEED)
    outcomes = Counter()
    for index in range(DRAWS):
        curve, n_box = draw(rng)
        if curve.degree < 2:
            continue
        outcome, key = run(curve, n_box)
        outcomes[outcome] += 1
        print(f"{index:3} N={n_box:2} {outcome:22} {key:16} {curve.pretty()}", flush=True)
    print(f"curves {sum(outcomes.values())}")
    for outcome in RESULTS:
        print(f"{outcome} {outcomes[outcome]}")
    for name, count in sorted(outcomes.items()):
        if name not in RESULTS:
            print(f"error {name} {count}")
    return 1 if outcomes["mismatch"] else 0


if __name__ == "__main__":
    raise SystemExit(main())
