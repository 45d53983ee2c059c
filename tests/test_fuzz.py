"""The seeded differential fuzz of `scripts/fuzz.py` (seed 7, 300 draws,
oracle on, 8 s alarm per count): no mismatch, no count over budget, and the
same outcome counts as when it joined the suite."""

import importlib.util
import signal
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "fuzz.py"


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
    assert capsys.readouterr().out.splitlines()[-8:] == [
        "curves 300",
        "equal 176",
        "mismatch 0",
        "over-budget 0",
        "error BranchError 90",
        "error CommonComponentError 1",
        "error IngestionError 29",
        "error LineFactorError 4",
    ]
