"""The four identity hashes of `scripts/output_hashes.py`: the fixture
reports and the seed-1 latbench outputs must stay byte-identical."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "output_hashes.py"


def test_output_hashes_match_expected(capsys):
    spec = importlib.util.spec_from_file_location("output_hashes", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    code = module.main()
    out = capsys.readouterr().out
    assert code == 0, out
    assert out.count(" ok\n") == 4
