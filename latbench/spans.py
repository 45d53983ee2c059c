"""Spans around the public functions of each latcurve module, from outside.

`Tracer` replaces every binding of a traced function, in every latcurve
module namespace that holds it, by a wrapper that records a span (tag,
start, end, parent span, operation id) while an operation is active, and
restores the original objects on exit.  Nothing under src/ changes.

A span's self time is its duration minus the durations of its direct child
spans; calls run on one thread, so children never overlap.  A function that
calls itself through its module binding (hk_sequence) nests spans of one
tag; its inclusive time counts only the outermost of them.
"""

from __future__ import annotations

import csv
import sys
from collections import defaultdict
from contextlib import contextmanager
from functools import update_wrapper
from pathlib import Path
from time import perf_counter
from types import ModuleType
from typing import Any, Callable, Iterator, Optional

# layer -> {tag suffix: function name}; the tag is "<layer>.<suffix>"
LAYERS: dict[str, dict[str, str]] = {
    "counting": {
        "pipeline": "determinant_method_count",
        "oracle": "brute_force_count",
        "intersect": "bezout_intersect",
    },
    "branch": {
        "decompose": "graph_decompose",
        "partition": "partition_by_bounds",
        "level_set": "level_set_abscissas",
        "point": "branch_integer_point",
        "hk": "hk_sequence",
    },
    "detmethod": {"cover": "greedy_cover", "extract": "extract_cover_curve"},
    "exactlinalg": {"echelon": "row_echelon_pivots", "det": "integer_determinant"},
    "poly2": {"resultant": "resultant_eliminating_y", "divides": "divides"},
    "unipoly": {
        "integer_roots": "integer_roots",
        "isolate": "isolate_real_roots",
        "refine": "refine_root",
        "squarefree": "squarefree_part",
        "sturm": "sturm_chain",
        "gcd": "poly_gcd",
        "count_roots": "count_real_roots",
    },
}
TAGS: dict[str, tuple[str, str]] = {
    f"{layer}.{suffix}": (layer, fn) for layer, table in LAYERS.items() for suffix, fn in table.items()
}
CACHED_TAGS = ("unipoly.sturm", "unipoly.squarefree", "branch.hk")

# Per-module self times must sum to the traced wall time within this share:
# the only time outside every span is the root wrapper's own bookkeeping.
SELF_SUM_TOLERANCE = 0.02


def _coeff_bits(c) -> int:
    return max(abs(c.numerator).bit_length(), c.denominator.bit_length())


def library_modules(lib: ModuleType) -> list[ModuleType]:
    """The package and every loaded latcurve submodule."""
    prefix = lib.__name__ + "."
    return [lib] + [m for name, m in sorted(sys.modules.items()) if name.startswith(prefix)]


class Tracer:
    """Install with `with Tracer(lib) as t:`; record spans inside `t.operation(i)`."""

    def __init__(self, lib: ModuleType) -> None:
        self.lib = lib
        self.originals = {tag: getattr(getattr(lib, layer), fn) for tag, (layer, fn) in TAGS.items()}
        self.spans: list[Optional[tuple[str, float, float, int, int, bool]]] = []
        self.op: Optional[int] = None
        self.counts: dict[str, int] = defaultdict(int)
        self.maxima: dict[str, int] = defaultdict(int)
        self.patched: list[tuple[ModuleType, str, Any]] = []
        self._stack: list[int] = []
        self._depth: dict[str, int] = defaultdict(int)
        self.cache_calls: dict[str, list[int]] = {tag: [0, 0] for tag in CACHED_TAGS}  # hits, misses

    # -- installation -------------------------------------------------------

    def __enter__(self) -> "Tracer":
        wrappers = {id(orig): self._wrap(tag, orig) for tag, orig in self.originals.items()}
        for module in library_modules(self.lib):
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self.patched.append((module, attr, value))
                    setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self.patched):
            setattr(module, attr, original)

    def restored(self) -> bool:
        return all(getattr(module, attr) is original for module, attr, original in self.patched)

    def _cache_counts(self) -> dict[str, tuple[int, int]]:
        """(hits, misses) so far of each cached function's original object."""
        return {tag: tuple(self.originals[tag].cache_info()[:2]) for tag in CACHED_TAGS}

    # -- recording ------------------------------------------------------------

    @contextmanager
    def operation(self, op_id: int) -> Iterator[None]:
        """Marks one operation: spans and cache deltas count only inside it."""
        before = self._cache_counts()
        self.op = op_id
        try:
            yield
        finally:
            self.op = None
            for tag, (hits, misses) in self._cache_counts().items():
                self.cache_calls[tag][0] += hits - before[tag][0]
                self.cache_calls[tag][1] += misses - before[tag][1]

    def _observe(self, tag: str, out: Any) -> None:
        if tag == "branch.point":
            self.counts[tag] += out is not None
        elif tag == "detmethod.cover":
            self.counts[tag] += len(out.curves)
        elif tag == "counting.intersect":
            self.counts[tag] += len(out)
        elif tag == "poly2.resultant":
            self.maxima["poly2.resultant.deg_max"] = max(self.maxima["poly2.resultant.deg_max"], out.degree)
            bits = max((_coeff_bits(c) for c in out.coeffs), default=0)
            self.maxima["poly2.resultant.bits_max"] = max(self.maxima["poly2.resultant.bits_max"], bits)

    def _wrap(self, tag: str, fn: Callable) -> Callable:
        spans, stack, depth = self.spans, self._stack, self._depth
        observed = tag in ("branch.point", "detmethod.cover", "counting.intersect", "poly2.resultant")

        def wrapper(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            outermost = depth[tag] == 0
            stack.append(idx)
            depth[tag] += 1
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                depth[tag] -= 1
                stack.pop()
                spans[idx] = (tag, start, end, parent, self.op, outermost)
            if observed:
                self._observe(tag, out)
            return out

        return update_wrapper(wrapper, fn)

    # -- results --------------------------------------------------------------

    def metrics(self, traced_s: float, untraced_s: float) -> dict[str, tuple[float, str]]:
        """Every per-layer metric as name -> (value, unit)."""
        child = [0.0] * len(self.spans)
        for tag, start, end, parent, _op, _outer in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        inclusive: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        for i, (tag, start, end, _parent, _op, outer) in enumerate(self.spans):
            calls[tag] += 1
            self_s[tag] += (end - start) - child[i]
            if outer:
                inclusive[tag] += end - start
        out: dict[str, tuple[float, str]] = {}
        for tag in TAGS:
            out[f"{tag}.calls"] = (calls[tag], "count")
            out[f"{tag}.s"] = (inclusive[tag], "s")
            out[f"{tag}.self_s"] = (self_s[tag], "s")
        for layer, table in LAYERS.items():
            out[f"{layer}.self_s"] = (sum(self_s[f"{layer}.{s}"] for s in table), "s")

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        out["branch.point.hit_ratio"] = (ratio(self.counts["branch.point"], calls["branch.point"]), "ratio")
        out["detmethod.extract.kept_ratio"] = (
            ratio(self.counts["detmethod.cover"], calls["detmethod.extract"]),
            "ratio",
        )
        out["poly2.resultant.deg_max"] = (self.maxima["poly2.resultant.deg_max"], "degree")
        out["poly2.resultant.bits_max"] = (self.maxima["poly2.resultant.bits_max"], "bits")
        out["counting.intersect.points"] = (self.counts["counting.intersect"], "count")
        out["detmethod.cover.curves"] = (self.counts["detmethod.cover"], "count")
        for tag, (hits, misses) in self.cache_calls.items():
            out[f"{tag}.hit_ratio"] = (ratio(hits, hits + misses), "ratio")
        out["trace_overhead"] = (ratio(traced_s, untraced_s), "ratio")
        return out

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["span", "tag", "start", "end", "parent", "op"])
            for i, (tag, start, end, parent, op, _outer) in enumerate(self.spans):
                writer.writerow([i, tag, f"{start:.9f}", f"{end:.9f}", parent, op])
