#!/usr/bin/env python3
"""latcurve benchmark: exact counts timed on seeded curve workloads.

    python3 latbench/run.py --workload {sweep,partition,columns} \
        [--seed 1] [--seconds 30] [--trace 0|1]

The library is imported from the src/ directory next to this one.  The load
is a closed loop: one process, one thread, one caller, one operation at a
time.  Operations run in rounds of one curve per family slot.  A run has as
many rounds as the workload's nominal round time fits whole into --seconds,
and at least enough for MIN_OPS operations, so that the tail percentile
exists.  So every commit times the same curves for a seed, and a faster
program measures for less than --seconds.  A run stops early only when,
after MIN_OPS operations, its measured time passes STOP_FACTOR times
--seconds.  Every total is checked after its timed call; a wrong total or
an exception counts as failed and makes the exit code 1.

A fixed probe kernel (hostspeed.py) is timed before and after every set-up
and before every operation and after the last.  Set-up time and operation
times are divided by the median probe time, over its reference, around
them, so that the shared host's drift does not read as a change of the
program.  The unscaled values are printed on their own line.

--trace 0 prints the end-to-end metrics.  --trace 1 prints the per-layer
metrics of a traced pass, then times the same curves untraced on a freshly
imported library for trace_overhead.  The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.
latbench/README.md describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from types import ModuleType
from typing import Callable, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SPANS_DIR = ROOT / ".latbench"
sys.path.insert(0, str(BENCH_DIR))

from hostspeed import HostSpeed  # noqa: E402
from spans import SELF_SUM_TOLERANCE, Tracer  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, Case, Workload  # noqa: E402

MIN_OPS = 11  # the tail percentile needs ten operations beyond it
SETUP_REPEATS = 9
TRACED_SHARE = 0.5  # share of --seconds given to the traced pass of a trace run
STOP_FACTOR = 1.25  # keeps a much slower program within the run's time budget


class BenchSetupError(RuntimeError):
    """The library source is missing, or was imported from elsewhere."""


def fresh_library() -> ModuleType:
    """Import latcurve anew from src/, so that every lru_cache starts empty."""
    if not (SRC / "latcurve" / "__init__.py").is_file():
        raise BenchSetupError(f"no latcurve package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "latcurve" or n.startswith("latcurve.")]:
        del sys.modules[name]
    lib = importlib.import_module("latcurve")
    if Path(lib.__file__).resolve().parent != (SRC / "latcurve").resolve():
        raise BenchSetupError(f"latcurve was imported from {lib.__file__}, not from {SRC}")
    return lib


@dataclass
class Inputs:
    lib: ModuleType
    rounds: list[list[Case]]
    curves: list[list]  # the parsed curve of each case


def load(cases: list[list[Case]]) -> Inputs:
    """A fresh library and the cases parsed by it."""
    lib = fresh_library()
    return Inputs(lib, cases, [[lib.parse(case.text) for case in row] for row in cases])


def setup(workload: Workload, seed: int, rounds: int) -> tuple[float, Inputs]:
    """Import the library, generate the seeded cases and parse them; timed."""
    start = perf_counter()
    inputs = load(workload.rounds(seed, rounds))
    return perf_counter() - start, inputs


@dataclass
class OpResult:
    case: Case
    slot: int  # the case's family slot in its round
    seconds: float
    ok: bool


def timed_call(lib: ModuleType, workload: Workload, case: Case, curve) -> tuple[float, Optional[int]]:
    """Wall time of one operation and its total (None when it raised)."""
    start = perf_counter()
    try:
        if workload.operation == "oracle":
            total = lib.brute_force_count(curve, case.n_box)[0]
        else:
            total = lib.determinant_method_count(curve, case.n_box, compare_oracle=False).total
    except Exception:
        elapsed = perf_counter() - start
        print(f"operation raised on {case.text!r} at N={case.n_box}", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return elapsed, None
    return perf_counter() - start, total


def check_total(lib: ModuleType, workload: Workload, case: Case, curve, total: Optional[int]) -> bool:
    """Compare a total with the closed-form reference and, where the workload
    asks for it, with brute_force_count; runs after the timed call."""
    if total is None:
        return False
    expected = oracle = case.reference()
    if workload.oracle_reference:
        try:
            oracle = lib.brute_force_count(curve, case.n_box)[0]
        except Exception:
            print(f"brute_force_count raised on {case.text!r} at N={case.n_box}", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            return False
    if total == expected == oracle:
        return True
    print(
        f"WRONG TOTAL on {case.text!r} at N={case.n_box}: {total}, "
        f"reference {expected}, brute force {oracle}",
        file=sys.stderr,
    )
    return False


def n_rounds(workload: Workload, seconds: float, min_ops: int) -> int:
    """Rounds in a run of `seconds`, at least enough for min_ops operations."""
    return max(1, -(-min_ops // len(workload.slots)), int(seconds // workload.round_s))


def measure(
    workload: Workload,
    inputs: Inputs,
    stop_after_s: float,
    tracer: Optional[Tracer] = None,
    probe: Optional[Callable[[], None]] = None,
) -> list[OpResult]:
    """Run every round, unless the measured time passes stop_after_s after
    MIN_OPS operations; call probe, if given, before each operation and after
    the last.  The cases hold no repeated curve and the library was imported
    for them, so each curve reaches it first in its timed call."""
    results: list[OpResult] = []
    measured = 0.0
    for cases, curves in zip(inputs.rounds, inputs.curves):
        if measured > stop_after_s and len(results) >= MIN_OPS:
            break
        for slot, (case, curve) in enumerate(zip(cases, curves)):
            if probe is not None:
                probe()
            if tracer is None:
                seconds, total = timed_call(inputs.lib, workload, case, curve)
            else:
                with tracer.operation(len(results)):
                    seconds, total = timed_call(inputs.lib, workload, case, curve)
            measured += seconds
            results.append(OpResult(case, slot, seconds, check_total(inputs.lib, workload, case, curve, total)))
    if probe is not None:
        probe()
    return results


def tail(times: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with ten operations beyond it."""
    ordered = sorted(times)
    rank = len(ordered) - 10  # 1-based rank of the value
    return 100.0 * rank / len(ordered), ordered[rank - 1]


def cols_per_s(results: list[OpResult]) -> float:
    """Box columns per second of a median round: the sum of N over a round's
    family slots divided by the sum of each slot's median count time.  The
    medians keep a few operations slowed by the shared host from moving it."""
    by_slot: dict[int, list[OpResult]] = {}
    for r in results:
        by_slot.setdefault(r.slot, []).append(r)
    cols = sum(rs[0].case.n_box for rs in by_slot.values())
    return cols / sum(statistics.median(r.seconds for r in rs) for rs in by_slot.values())


def end_to_end(
    results: list[OpResult], setup_s: float, slowdown: float, setup_slowdown: float
) -> dict[str, tuple[float, str]]:
    """The end-to-end metrics, the operation times divided by the host's
    slowdown while they ran and setup_s by its slowdown around the set-ups."""
    times = [r.seconds for r in results]
    failed = sum(not r.ok for r in results)
    pct, tail_s = tail(times)
    print(f"operations sampled: {len(times)}; count_s.tail is the p{pct:.1f} of per-operation wall time")
    print(f"error_rate: {failed / len(results):.4f} (failed / attempted)")
    print(
        f"unscaled: cols_per_s {cols_per_s(results):.6g} cols/s, count_s.p50 {statistics.median(times):.6g} s, "
        f"count_s.tail {tail_s:.6g} s, setup_s {setup_s:.6g} s"
    )
    return {
        "cols_per_s": (cols_per_s(results) * slowdown, "cols/s"),
        "count_s.p50": (statistics.median(times) / slowdown, "s"),
        "count_s.tail": (tail_s / slowdown, "s"),
        "ok_rate": (1.0 - failed / len(results), "ratio"),
        "setup_s": (setup_s / setup_slowdown, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def traced_run(workload: Workload, seed: int, seconds: float) -> tuple[list[OpResult], dict]:
    """Traced pass, then the same curves untraced on a fresh library."""
    _, inputs = setup(workload, seed, n_rounds(workload, seconds * TRACED_SHARE, 1))
    traced_speed, untraced_speed = HostSpeed(), HostSpeed()
    with Tracer(inputs.lib) as tracer:
        traced = measure(workload, inputs, STOP_FACTOR * seconds, tracer, traced_speed.sample)
    if not tracer.restored():
        raise RuntimeError("a traced module attribute was not restored")
    done = len(traced) // len(workload.slots)
    untraced = measure(workload, load(inputs.rounds[:done]), STOP_FACTOR * seconds, probe=untraced_speed.sample)
    traced_s = sum(r.seconds for r in traced)
    # the untraced time at the traced pass's host speed, so that drift
    # between the two passes does not read as tracing overhead
    untraced_s = sum(r.seconds for r in untraced) * traced_speed.slowdown() / untraced_speed.slowdown()
    metrics = tracer.metrics(traced_s, untraced_s)
    module_self = sum(v for k, (v, _) in metrics.items() if k.count(".") == 1 and k.endswith(".self_s"))
    print(
        f"traced operations: {len(traced)}; per-module self time {module_self:.4f} s "
        f"vs traced wall {traced_s:.4f} s (tolerance {SELF_SUM_TOLERANCE:.0%})"
    )
    path = SPANS_DIR / f"spans-{workload.name}-{seed}.csv"
    tracer.write_spans(path)
    print(f"spans written to {path.relative_to(ROOT)}")
    return traced + untraced, metrics


def main(argv: Optional[list[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]
    try:
        if args.trace:
            results, metrics = traced_run(workload, args.seed, args.seconds)
        else:
            rounds = n_rounds(workload, args.seconds, MIN_OPS)
            setup_speed, speed = HostSpeed(), HostSpeed()
            setup_times = []
            for _ in range(SETUP_REPEATS):
                inputs = None  # drop the previous library before timing the next
                gc.collect()
                setup_speed.sample()
                seconds, inputs = setup(workload, args.seed, rounds)
                setup_times.append(seconds)
                setup_speed.sample()
            setup_s = statistics.median(setup_times)
            results = measure(workload, inputs, STOP_FACTOR * args.seconds, probe=speed.sample)
            print(f"set-up {setup_speed.describe()}")
            print(f"operations {speed.describe()}")
            metrics = end_to_end(results, setup_s, speed.slowdown(), setup_speed.slowdown())
    except BenchSetupError as exc:
        print(f"latbench: {exc}", file=sys.stderr)
        return 2
    failed = sum(not r.ok for r in results)
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": len(results),
                "failed": failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
