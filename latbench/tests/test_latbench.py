"""Tests for the benchmark's own code: references, tracing, restoration, guards.

Run from the repository root:  python -m pytest -q latbench/tests
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import workloads  # noqa: E402
from hostspeed import REFERENCE_PROBE_S, HostSpeed  # noqa: E402
from spans import LAYERS, SELF_SUM_TOLERANCE, TAGS, Tracer, library_modules  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    Case,
    Family,
    Workload,
    circle_family,
    count_circle,
    count_hyperbola,
    count_pell,
    count_power,
    count_weierstrass,
    hyperbola_family,
    power_family,
)

# a pipeline workload small enough for a unit test, touching every layer
TINY = Workload(
    "tiny",
    "pipeline",
    ((power_family(2, 1, 4, e_hi=3), 40), (hyperbola_family(12, 60), 30), (circle_family(0.5, 1.0), 20)),
    oracle_reference=True,
    round_s=1.0,
)


@pytest.fixture()
def lib():
    return run.fresh_library()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_references_agree_with_brute_force(lib, name):
    rng = random.Random(7)
    for family, workload_n in WORKLOADS[name].slots:
        for n_box in (9, 17, 31):
            # a family restricted by a count at its own N may be empty at a small one
            members = family.members(n_box) or family.members(workload_n)
            for i in workloads.stratified(rng, len(members), 4):
                case = family.make(members[i], n_box)
                expected = lib.brute_force_count(lib.parse(case.text), n_box)[0]
                assert case.reference() == expected, (case.text, n_box)


def test_references_count_known_points():
    assert count_hyperbola(12, 6) == 4  # (2,6), (3,4), (4,3), (6,2)
    assert count_circle(25, 10) == 2  # (3,4), (4,3)
    assert count_pell(2, 20) == 2  # (3,2), (17,12)
    assert count_power(1, 2, 0, 100) == 10
    assert count_weierstrass(0, 1, 10) == 1  # (2,3)


def test_traced_self_times_sum_to_wall_time_and_attributes_restored():
    _, inputs = run.setup(TINY, 3, 2)
    lib = inputs.lib
    originals = {tag: getattr(getattr(lib, layer), fn) for tag, (layer, fn) in TAGS.items()}
    bindings = [
        (module, attr, value)
        for module in library_modules(lib)
        for attr, value in vars(module).items()
        if any(value is orig for orig in originals.values())
    ]
    with Tracer(lib) as tracer:
        assert all(getattr(module, attr) is not value for module, attr, value in bindings)
        results = run.measure(TINY, inputs, 60.0, tracer)
    assert all(r.ok for r in results)
    assert tracer.restored()
    assert all(getattr(module, attr) is value for module, attr, value in bindings)
    # every module namespace that bound a traced function was patched
    assert {(id(m), a) for m, a, _ in tracer.patched} == {(id(m), a) for m, a, _ in bindings}

    wall = sum(r.seconds for r in results)
    metrics = tracer.metrics(wall, wall)
    module_self = sum(metrics[f"{layer}.self_s"][0] for layer in LAYERS)
    assert abs(module_self - wall) <= SELF_SUM_TOLERANCE * wall
    assert metrics["counting.pipeline.calls"][0] == len(results)
    assert metrics["counting.oracle.calls"][0] == 0  # references run untraced
    for tag in ("branch.point", "poly2.resultant", "unipoly.refine", "detmethod.extract"):
        assert metrics[f"{tag}.calls"][0] > 0
    assert 0 < metrics["branch.point.hit_ratio"][0] <= 1
    assert 0 < metrics["detmethod.extract.kept_ratio"][0] <= 1


def test_untraced_run_leaves_attributes_untouched():
    _, inputs = run.setup(TINY, 4, 1)
    before = {(id(m), a): v for m in library_modules(inputs.lib) for a, v in vars(m).items()}
    run.measure(TINY, inputs, 60.0)
    after = {(id(m), a): v for m in library_modules(inputs.lib) for a, v in vars(m).items()}
    assert before.keys() == after.keys()
    assert all(after[k] is v for k, v in before.items())


def test_repeated_curve_is_an_error():
    same = Family(lambda n_box: [6, 6], lambda m, n_box: Case(f"x*y - {m}", n_box, lambda: 4))
    with pytest.raises(RuntimeError, match="repeated curve"):
        Workload("dup", "oracle", ((same, 6),), False, 1.0).rounds(1, 2)


def test_stratified_draws_are_distinct_and_cover_the_range():
    picks = workloads.stratified(random.Random(1), 100, 10)
    assert sorted(p // 10 for p in picks) == list(range(10))
    with pytest.raises(ValueError):
        workloads.stratified(random.Random(1), 3, 4)


def test_seed_fixes_the_inputs():
    for workload in WORKLOADS.values():
        a = [[c.text for c in row] for row in workload.rounds(5, 3)]
        b = [[c.text for c in row] for row in workload.rounds(5, 3)]
        c = [[c.text for c in row] for row in workload.rounds(6, 3)]
        assert a == b and a != c


def test_tail_percentile_has_ten_beyond():
    pct, value = run.tail([float(i) for i in range(1, 41)])
    assert value == 30.0 and pct == 75.0


def test_cols_per_s_uses_each_slots_median_and_times_scale_with_host_speed():
    results = [run.OpResult(Case(f"c{i}", 10 * (1 + i % 2), lambda: 0), i % 2, 1.0 + i, True) for i in range(12)]
    # slot 0 takes 1, 3, ..., 11 s at N = 10 (median 6), slot 1 takes 2, ..., 12 s at N = 20 (median 7)
    assert run.cols_per_s(results) == 30 / 13
    plain = run.end_to_end(results, 0.1, 1.0, 1.0)
    slow = run.end_to_end(results, 0.1, 2.0, 4.0)
    assert slow["cols_per_s"][0] == 2 * plain["cols_per_s"][0]
    for name in ("count_s.p50", "count_s.tail"):
        assert slow[name][0] == plain[name][0] / 2
    assert slow["setup_s"][0] == plain["setup_s"][0] / 4


def test_host_slowdown_is_median_probe_over_reference():
    speed = HostSpeed()
    for _ in range(3):
        speed.sample()
    assert len(speed.samples) == 3 and all(t > 0 for t in speed.samples)
    speed.samples = [0.5 * REFERENCE_PROBE_S, 2 * REFERENCE_PROBE_S, 3 * REFERENCE_PROBE_S]
    assert speed.slowdown() == 2.0


def test_fails_without_library_source(tmp_path):
    repo = BENCH_DIR.parent
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(repo / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, f"{BENCH_DIR.name}/run.py", "--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)


def test_benchmark_json_lists_every_metric_with_its_unit():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    _, inputs = run.setup(TINY, 5, run.n_rounds(TINY, 0, run.MIN_OPS))
    with Tracer(inputs.lib) as tracer:
        results = run.measure(TINY, inputs, 60.0, tracer)
    per_layer = tracer.metrics(1.0, 1.0)
    end_to_end = run.end_to_end(results, 0.1, 1.0, 1.0)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [(k, u) for k, (_, u) in per_layer.items()]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [(k, u) for k, (_, u) in end_to_end.items()]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
