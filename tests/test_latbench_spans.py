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


# Traces one count with latbench/spans.py's Tracer, loaded from its file, and
# prints the calls of each branch-layer span.
TRACE = """
import importlib.util
import sys

spec = importlib.util.spec_from_file_location("spans", sys.argv[1])
spans = importlib.util.module_from_spec(spec)
spec.loader.exec_module(spans)
import latcurve

with spans.Tracer(latcurve) as tracer:
    with tracer.operation(0):
        report = latcurve.determinant_method_count(latcurve.parse(sys.argv[2]), int(sys.argv[3]))
assert report.ok and tracer.restored()
metrics = tracer.metrics(1.0, 1.0)
for tag in spans.TAGS:
    if tag.startswith("branch."):
        print(tag, metrics[tag + ".calls"][0])
"""


def test_level_set_span_is_live_on_a_count_that_builds_level_sets():
    """`partition_by_bounds` reads its candidate cuts from
    `level_set_abscissas` through its module binding, so the tracer's
    `branch.level_set` span records calls on a count whose disc certificate
    leaves orders to the level sets: 3*x^2*y + 4*y^3 - 5*y^2 - 2*x at N =
    22."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-c", TRACE, str(ROOT / "latbench" / "spans.py"), "3*x^2*y + 4*y^3 - 5*y^2 - 2*x", "22"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    calls = dict(line.split() for line in out.stdout.splitlines())
    assert int(calls["branch.level_set"]) > 0, calls
