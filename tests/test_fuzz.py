"""The seeded differential fuzz of `scripts/fuzz.py` (seed 7, 300 draws,
oracle on, 8 s alarm per count): no mismatch, no count over budget, the
same outcome counts as when it joined the suite, and the same per-draw
lines.  The lines are pinned by the SHA-256 of their text (one line each,
newline-terminated), so a change to any draw's report or error fails here
until the pin is renewed with a reason, as `output_hashes.EXPECTED` is."""

import hashlib
import importlib.util
import signal
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "fuzz.py"
DRAW_LINES_SHA256 = "3781c1a9e18c7d626f9c638a175b2940cc62cb37e3bb58922a265165f3d79274"


def test_seeded_fuzz_matches_oracle_within_budget(capsys):
    spec = importlib.util.spec_from_file_location("fuzz", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    previous = signal.getsignal(signal.SIGALRM)
    try:
        code = module.main()
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-8:] == [
        "curves 300",
        "equal 176",
        "mismatch 0",
        "over-budget 0",
        "error BranchError 90",
        "error CommonComponentError 1",
        "error IngestionError 29",
        "error LineFactorError 4",
    ]
    draw_lines = "".join(line + "\n" for line in lines[:-8])
    assert hashlib.sha256(draw_lines.encode()).hexdigest() == DRAW_LINES_SHA256
