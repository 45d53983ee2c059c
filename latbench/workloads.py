"""Seeded curve families for the three workloads, with closed-form references.

A family is a fixed list of members; a run draws one member from each of
equal strata of that list, so one seed never yields the same curve twice.  A
member is left out only by a family rule written here (a zero discriminant,
a square D, too few divisors), never after seeing how it runs.  Every member satisfies the library's input
contract: irreducible, with no line factors in the box.

The references count lattice points in {1..N}^2 with closed forms, divisor
loops and `math.isqrt` tests; none of them calls the library.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from math import isqrt
from typing import Callable, Optional, Sequence

DEFAULT_SEED = 1


@dataclass(frozen=True)
class Case:
    """One operation's input: curve text, box size and its exact count."""

    text: str
    n_box: int
    reference: Callable[[], int]


# -- references ----------------------------------------------------------------


def count_power(c: int, k: int, e: int, n_box: int) -> int:
    """Points of x = c*y^k + e*y (c >= 1, e >= 0): x grows with y."""
    total, y = 0, 1
    while y <= n_box and c * y**k + e * y <= n_box:
        total += 1
        y += 1
    return total


def count_hyperbola(m: int, n_box: int) -> int:
    """Points of x*y = m: divisor pairs of m inside the box."""
    total = 0
    for d in range(1, isqrt(m) + 1):
        if m % d == 0:
            e = m // d
            if d <= n_box and e <= n_box:
                total += 1 if d == e else 2
    return total


def _is_square_in_box(v: int, n_box: int) -> bool:
    if v < 1:
        return False
    r = isqrt(v)
    return r * r == v and r <= n_box


def count_circle(m: int, n_box: int) -> int:
    """Points of x^2 + y^2 = m."""
    return sum(1 for x in range(1, n_box + 1) if _is_square_in_box(m - x * x, n_box))


def count_pell(d: int, n_box: int) -> int:
    """Points of x^2 - d*y^2 = 1, solved for x over y in 1..N."""
    return sum(1 for y in range(1, n_box + 1) if _is_square_in_box(d * y * y + 1, n_box))


def count_weierstrass(a: int, b: int, n_box: int) -> int:
    """Points of y^2 = x^3 + a*x + b."""
    return sum(1 for x in range(1, n_box + 1) if _is_square_in_box(x**3 + a * x + b, n_box))


# -- families ------------------------------------------------------------------


def _signed(v: int, var: str) -> str:
    """' + v*var' / ' - v*var' for a nonzero v, '' for zero."""
    if v == 0:
        return ""
    coeff = "" if abs(v) == 1 and var else str(abs(v))
    star = "*" if coeff and var else ""
    return f" {'-' if v < 0 else '+'} {coeff}{star}{var}"


@dataclass(frozen=True)
class Family:
    """A curve family: its members at box size N, in an order along which the
    cost of an operation changes slowly, and the Case of one member."""

    members: Callable[[int], Sequence]
    make: Callable[[object, int], Case]


def power_family(k: int, c_lo: int, c_hi: int, e_hi: int = 0) -> Family:
    """x - c*y^k - e*y with c_lo <= c <= c_hi and 0 <= e <= e_hi."""

    def make(member, n_box: int) -> Case:
        c, e = member
        text = f"x{_signed(-c, f'y^{k}')}{_signed(-e, 'y')}"
        return Case(text, n_box, lambda: count_power(c, k, e, n_box))

    members = [(c, e) for c in range(c_lo, c_hi + 1) for e in range(e_hi + 1)]
    return Family(lambda n_box: members, make)


def hyperbola_family(m_lo: int, m_hi: int, points: Optional[int] = None) -> Family:
    """x*y - m; with `points`, only the m with exactly that many divisor pairs
    inside the box, which makes the pipeline's work nearly equal across m."""

    @lru_cache(maxsize=None)
    def members(n_box: int) -> Sequence[int]:
        if points is None:
            return range(m_lo, m_hi + 1)
        pairs = [0] * (m_hi + 1)  # divisor pairs (d, m/d) with both <= N
        for d in range(1, n_box + 1):
            for m in range(d * max(1, -(-m_lo // d)), min(m_hi, d * n_box) + 1, d):
                pairs[m] += 1
        return [m for m in range(m_lo, m_hi + 1) if pairs[m] == points]

    def make(m: int, n_box: int) -> Case:
        return Case(f"x*y - {m}", n_box, lambda: count_hyperbola(m, n_box))

    return Family(members, make)


def circle_family(r_lo: float, r_hi: float) -> Family:
    """x^2 + y^2 - m with radius sqrt(m) in [r_lo*N, r_hi*N]."""

    def make(m: int, n_box: int) -> Case:
        return Case(f"x^2 + y^2 - {m}", n_box, lambda: count_circle(m, n_box))

    return Family(lambda n_box: range(int((r_lo * n_box) ** 2), int((r_hi * n_box) ** 2) + 1), make)


def pell_family(d_hi: int) -> Family:
    """x^2 - D*y^2 - 1 with 2 <= D <= d_hi, D not a square."""
    members = [d for d in range(2, d_hi + 1) if isqrt(d) ** 2 != d]

    def make(d: int, n_box: int) -> Case:
        return Case(f"x^2 - {d}*y^2 - 1", n_box, lambda: count_pell(d, n_box))

    return Family(lambda n_box: members, make)


def weierstrass_family(ab_max: int) -> Family:
    """y^2 - x^3 - a*x - b with |a|, |b| <= ab_max and 4a^3 + 27b^2 != 0."""
    span = range(-ab_max, ab_max + 1)
    members = [(a, b) for a in span for b in span if 4 * a**3 + 27 * b**2 != 0]

    def make(member, n_box: int) -> Case:
        a, b = member
        text = f"y^2 - x^3{_signed(-a, 'x')}{_signed(-b, '')}"
        return Case(text, n_box, lambda: count_weierstrass(a, b, n_box))

    return Family(lambda n_box: members, make)


def stratified(rng: random.Random, size: int, count: int) -> list[int]:
    """`count` distinct indices below `size`, one from each of `count` equal
    strata, in random order.  Every run then covers a family's range evenly,
    which keeps the cost of a run nearly the same from seed to seed."""
    if count > size:
        raise ValueError(f"a family of {size} members cannot give {count} distinct curves")
    edges = [size * i // count for i in range(count + 1)]
    picks = [rng.randrange(edges[i], edges[i + 1]) for i in range(count)]
    rng.shuffle(picks)
    return picks


@dataclass(frozen=True)
class Workload:
    """A round is one draw from each (family, N) slot, in this order."""

    name: str
    operation: str  # "oracle" (brute_force_count) or "pipeline" (determinant_method_count)
    slots: tuple[tuple[Family, int], ...]
    oracle_reference: bool  # also call brute_force_count after the timed call
    # Nominal wall time of one round, measured while the benchmark was
    # defined (CPython 3.11, 2-core x86-64 container).  It fixes how many
    # rounds a run of --seconds takes, so every commit times the same curves.
    round_s: float

    def rounds(self, seed: int, count: int) -> list[list[Case]]:
        """`count` rounds of Cases from the seed; a repeated curve is an error."""
        rng = random.Random(f"{self.name}:{seed}")
        per_slot = []
        for family, n_box in self.slots:
            members = family.members(n_box)
            per_slot.append([family.make(members[i], n_box) for i in stratified(rng, len(members), count)])
        seen: set[str] = set()
        for case in (c for slot in per_slot for c in slot):
            if case.text in seen:
                raise RuntimeError(f"repeated curve {case.text!r} in workload {self.name}")
            seen.add(case.text)
        return [list(row) for row in zip(*per_slot)]


WORKLOADS = {
    "sweep": Workload(
        "sweep",
        "oracle",
        (
            (power_family(2, 1, 64), 1000),
            (power_family(3, 1, 64), 1000),
            (power_family(5, 1, 64), 1000),
            (hyperbola_family(1000, 100_000), 1000),
            (circle_family(0.6, 0.9), 1000),
            (weierstrass_family(40), 1000),
        ),
        oracle_reference=False,
        round_s=8.7,
    ),
    "partition": Workload(
        "partition",
        "pipeline",
        (
            (weierstrass_family(9), 25),
            (power_family(4, 1, 24), 100),
            (power_family(5, 1, 24), 100),
            (circle_family(0.5, 1.0), 80),
            (pell_family(400), 60),
        ),
        oracle_reference=True,
        round_s=4.6,
    ),
    "columns": Workload(
        "columns",
        "pipeline",
        (
            (power_family(2, 1, 3, e_hi=60), 500),
            (hyperbola_family(720, 20_000, points=24), 500),
            (circle_family(0.9, 1.1), 500),
        ),
        # brute_force_count at N = 500 adds about half of the measured time
        # to every run; the closed forms check each total
        oracle_reference=False,
        round_s=4.4,
    ),
}
