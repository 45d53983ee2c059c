"""Extremal convex configurations from coprime slope vectors and exact
convexity certificates.

The piecewise construction sorts all coprime vectors (q, a) with entries up
to H by slope and walks their prefix sums; the resulting polygon carries
roughly H^2 integer points inside a box of side at most H^3.  A quadratic
smoothing dips each chord midpoint by a small epsilon, which keeps every
knot fixed, makes each segment strictly convex, and preserves the knot slope
ordering; the offset must point below the chord, since a bump above it would
make the segments concave.  Cover counting on convex graphs, which checks
the curve budget against these configurations, is a test reference in
`tests/reference_helpers.py`.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Optional, Sequence

from .detmethod import LatticePoint

SAMPLES_PER_SEGMENT = 4


@dataclass(frozen=True)
class JarnikConfiguration:
    """Coprime slope vectors sorted by slope with their prefix-sum polygon."""

    H: int
    vectors: tuple[tuple[int, int], ...]  # (q, a), slopes a/q strictly increasing
    points: tuple[tuple[int, int], ...]  # (Q_i, A_i) prefix sums, starting at (0, 0)
    epsilon: Fraction  # magnitude of the downward midpoint offset

    @property
    def t(self) -> int:
        return len(self.vectors)

    @property
    def q_total(self) -> int:
        return self.points[-1][0]

    @property
    def a_total(self) -> int:
        return self.points[-1][1]


def jarnik_construct(h: int) -> JarnikConfiguration:
    """All coprime (q, a) with 1 <= a, q <= H, sorted by slope, summed up."""
    if h < 1:
        raise ValueError("H must be >= 1")
    vectors = sorted(
        ((q, a) for q in range(1, h + 1) for a in range(1, h + 1) if gcd(a, q) == 1),
        key=lambda v: Fraction(v[1], v[0]),
    )
    points = [(0, 0)]
    for q, a in vectors:
        points.append((points[-1][0] + q, points[-1][1] + a))
    q_total = points[-1][0]
    epsilon = Fraction(1, 4 * q_total * q_total)
    return JarnikConfiguration(h, tuple(vectors), tuple(points), epsilon)


def convex_slope_check(points: Sequence[tuple[Fraction | int, Fraction | int] | LatticePoint]) -> bool:
    """True iff consecutive chord slopes strictly increase (exact comparison
    on integer or rational points)."""
    for (x0, _), (x1, _) in zip(points, points[1:]):
        if x0 >= x1:
            raise ValueError("points must have strictly increasing x")
    prev: Optional[Fraction] = None
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        slope = Fraction(y1 - y0) / (x1 - x0)
        if prev is not None and slope <= prev:
            return False
        prev = slope
    return True


# -- the smoothed function ------------------------------------------------------


def _segment_quadratic(
    config: JarnikConfiguration, index: int
) -> tuple[Fraction, Fraction, Fraction]:
    """Coefficients (c0, c1, c2) of the smoothed parabola on segment `index`,
    written around the left knot: f(x) = c0 + c1*(x-Q_i) + c2*(x-Q_i)^2."""
    (x0, y0), (x1, y1) = config.points[index], config.points[index + 1]
    h = Fraction(x1 - x0)
    s = Fraction(y1 - y0, x1 - x0)
    c2 = 4 * config.epsilon / (h * h)  # upward parabola: strictly convex piece
    c1 = s - c2 * h  # forces f(x1) = y1 with the dip at the midpoint
    return Fraction(y0), c1, c2


def segment_index_for(config: JarnikConfiguration, x: Fraction) -> int:
    """The segment i with Q_i <= x < Q_(i+1), the last one at x = Q_t: a
    bisection on the knot abscissas."""
    if not config.points[0][0] <= x <= config.points[-1][0]:
        raise ValueError("abscissa outside the configuration range")
    return min(bisect_right(config.points, x, key=lambda p: p[0]), len(config.points) - 1) - 1


def smoothed_taylor(config: JarnikConfiguration, x: Fraction | int, kmax: int) -> list[Fraction]:
    """[f(x), f'(x), f''(x)/2, 0, ...] of the smoothed piecewise parabola."""
    x = Fraction(x)
    i = segment_index_for(config, x)
    c0, c1, c2 = _segment_quadratic(config, i)
    dx = x - config.points[i][0]
    out = [c0 + c1 * dx + c2 * dx * dx]
    if kmax >= 1:
        out.append(c1 + 2 * c2 * dx)
    if kmax >= 2:
        out.append(c2)
    out.extend([Fraction(0)] * max(0, kmax + 1 - len(out)))
    return out


def verify_smoothing(config: JarnikConfiguration) -> bool:
    """Exact strict-convexity certificate for the smoothed graph.

    Checks each segment's quadratic coefficient is positive, that one-sided
    slopes at every knot strictly increase, and that a rational sample passes
    the chord-slope test: SAMPLES_PER_SEGMENT = 4 equally spaced abscissas
    Q_i + j (Q_(i+1) - Q_i)/4, j = 0..3, on each segment, then the last knot.
    Each segment's quadratic is built once and read at its own samples, so
    the certificate is linear in t.
    """
    t = len(config.points) - 1
    quads = [_segment_quadratic(config, i) for i in range(t)]
    if any(c2 <= 0 for _, _, c2 in quads):
        return False
    for i in range(t - 1):
        _, c1_l, c2_l = quads[i]
        h_l = Fraction(config.points[i + 1][0] - config.points[i][0])
        if not c1_l + 2 * c2_l * h_l < quads[i + 1][1]:
            return False
    sample: list[tuple[Fraction, Fraction]] = []
    for i, (c0, c1, c2) in enumerate(quads):
        x0, x1 = Fraction(config.points[i][0]), Fraction(config.points[i + 1][0])
        for j in range(SAMPLES_PER_SEGMENT):
            dx = (x1 - x0) * Fraction(j, SAMPLES_PER_SEGMENT)
            sample.append((x0 + dx, c0 + c1 * dx + c2 * dx * dx))
    sample.append((Fraction(config.points[-1][0]), Fraction(config.points[-1][1])))
    return convex_slope_check(sample)
