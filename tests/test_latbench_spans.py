"""The benchmark tracer binds latcurve functions by name: every traced name
must resolve on a fresh import, or `latbench/run.py --trace 1` breaks."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Runs in a fresh interpreter, so no other test has imported a submodule or
# patched an attribute; latbench/spans.py is loaded from its file, unchanged.
CHECK = """
import importlib.util
import sys

spec = importlib.util.spec_from_file_location("spans", sys.argv[1])
spans = importlib.util.module_from_spec(spec)
spec.loader.exec_module(spans)
import latcurve

for tag, (layer, name) in spans.TAGS.items():
    fn = getattr(getattr(latcurve, layer, None), name, None)
    assert callable(fn), f"{tag}: latcurve.{layer}.{name} does not resolve"
for tag in spans.CACHED_TAGS:
    layer, name = spans.TAGS[tag]
    fn = getattr(getattr(latcurve, layer), name)
    assert hasattr(fn, "cache_info"), f"{tag}: latcurve.{layer}.{name} has no cache_info()"
"""


def test_traced_functions_resolve_on_a_fresh_import():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-c", CHECK, str(ROOT / "latbench" / "spans.py")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert out.returncode == 0, out.stderr
