"""Convex extremal configurations and cover counting on convex graphs."""

import dataclasses
from fractions import Fraction
from math import gcd

import pytest

from latcurve import jarnik
from latcurve.jarnik import convex_slope_check, jarnik_construct, smoothed_taylor, verify_smoothing
from latcurve.poly2 import parse

from fraction_unipoly import UniPoly
from reference_helpers import (
    ConvexityViolation,
    OracleBoundError,
    convex_cover_count,
    jarnik_taylor_oracle,
    polynomial_taylor_oracle,
)


def coprime_count(h):
    return sum(1 for q in range(1, h + 1) for a in range(1, h + 1) if gcd(a, q) == 1)


# -- construction ------------------------------------------------------------------


def test_jarnik_h1():
    cfg = jarnik_construct(1)
    assert cfg.t == 1
    assert cfg.points == ((0, 0), (1, 1))


def test_jarnik_h3():
    cfg = jarnik_construct(3)
    assert cfg.t == 7
    assert cfg.q_total == 13 and cfg.a_total == 13
    slopes = [Fraction(a, q) for q, a in cfg.vectors]
    assert slopes == sorted(slopes)
    assert slopes == [
        Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(1),
        Fraction(3, 2), Fraction(2), Fraction(3),
    ]


def test_jarnik_h10():
    assert jarnik_construct(10).t == 63


@pytest.mark.parametrize("h", [1, 2, 3, 5, 8, 13, 21, 34, 50])
def test_jarnik_invariants(h):
    cfg = jarnik_construct(h)
    assert cfg.t == coprime_count(h)
    assert cfg.q_total == cfg.a_total
    assert cfg.q_total <= h**3
    assert convex_slope_check(cfg.points)
    if h >= 5:
        assert 5 * cfg.t >= 3 * h * h  # t >= 0.6 H^2 in exact integers


def test_jarnik_growth_lower_bound_range():
    for h in range(5, 51):
        cfg = jarnik_construct(h)
        assert 5 * cfg.t >= 3 * h * h


# -- slope check ----------------------------------------------------------------------


def test_slope_check_examples():
    assert convex_slope_check([(0, 0), (1, 1), (2, 3)])
    assert not convex_slope_check([(0, 0), (1, 1), (2, 2)])
    assert convex_slope_check(jarnik_construct(3).points)


def test_slope_check_reads_rational_points_exactly():
    """A rational point is compared as it is, not truncated to an integer."""
    half = Fraction(1, 2)
    assert convex_slope_check([(0, 0), (half, Fraction(1, 8)), (1, 1)])
    assert not convex_slope_check([(0, 0), (half, Fraction(3, 4)), (1, 1)])
    assert not convex_slope_check([(0, 0), (1, Fraction(1, 2)), (2, Fraction(3, 4))])


def test_slope_check_requires_increasing_x():
    with pytest.raises(ValueError):
        convex_slope_check([(0, 0), (0, 1)])


# -- smoothing -------------------------------------------------------------------------


def smoothed_value(cfg, x):
    """f(x) of the smoothed graph: the value entry of `smoothed_taylor`."""
    return smoothed_taylor(cfg, x, 0)[0]


def per_sample_certificate(cfg):
    """`verify_smoothing` with one `smoothed_taylor` read, and so one segment
    search, per knot and per sample."""
    t = cfg.t
    knots = [smoothed_taylor(cfg, cfg.points[i][0], 2) for i in range(t)]
    if any(c[2] <= 0 for c in knots):
        return False
    for i in range(t - 1):
        h = cfg.points[i + 1][0] - cfg.points[i][0]
        if not knots[i][1] + 2 * knots[i][2] * h < knots[i + 1][1]:
            return False
    sample = []
    for (x0, _), (x1, _) in zip(cfg.points, cfg.points[1:]):
        for j in range(4):
            x = x0 + Fraction((x1 - x0) * j, 4)
            sample.append((x, smoothed_value(cfg, x)))
    return convex_slope_check(sample + [cfg.points[-1]])


def test_verify_smoothing_builds_each_segment_once(monkeypatch):
    """The certificate reads each segment's quadratic once, at its own
    samples, with no segment search: t quadratics for t segments, and for
    H = 1..15 the result of one `smoothed_taylor` read per sample.  A
    configuration dipped above its chords fails both."""
    built = []
    quadratic = jarnik._segment_quadratic

    def counted(cfg, i):
        built.append(i)
        return quadratic(cfg, i)

    with monkeypatch.context() as m:
        m.setattr(jarnik, "_segment_quadratic", counted)
        m.setattr(jarnik, "segment_index_for", None)
        cfg = jarnik_construct(10)
        assert verify_smoothing(cfg)
    assert built == list(range(cfg.t))
    for h in range(1, 16):
        cfg = jarnik_construct(h)
        assert verify_smoothing(cfg) is per_sample_certificate(cfg) is True, h
    bumped = dataclasses.replace(jarnik_construct(4), epsilon=-jarnik_construct(4).epsilon)
    assert verify_smoothing(bumped) is per_sample_certificate(bumped) is False


def test_segment_index_for_bisects_the_knots():
    """The segment i with Q_i <= x < Q_(i+1), the last one at Q_t, as a
    scan of the knots finds it, at every knot, half-integer and interior
    rational; outside [0, Q_t] a ValueError."""
    cfg = jarnik_construct(6)
    ends = [q for q, _ in cfg.points]
    xs = [Fraction(k, 2) for k in range(2 * cfg.q_total + 1)] + [Fraction(ends[3]) - Fraction(1, 10**9)]
    for x in xs:
        want = next((i for i in range(cfg.t) if x < ends[i + 1]), cfg.t - 1)
        assert jarnik.segment_index_for(cfg, x) == want, x
    for x in (Fraction(-1, 2), cfg.q_total + Fraction(1, 3)):
        with pytest.raises(ValueError):
            jarnik.segment_index_for(cfg, x)


@pytest.mark.parametrize("h", [2, 3, 5, 8])
def test_smoothing_preserves_knots_and_convexity(h):
    cfg = jarnik_construct(h)
    for (qx, ax) in cfg.points:
        assert smoothed_value(cfg, qx) == ax
    assert verify_smoothing(cfg)


def test_smoothing_dips_below_chords():
    cfg = jarnik_construct(3)
    (x0, y0), (x1, y1) = cfg.points[0], cfg.points[1]
    mid = Fraction(x0 + x1, 2)
    chord_mid = Fraction(y0 + y1, 2)
    assert smoothed_value(cfg, mid) == chord_mid - cfg.epsilon


def test_smoothing_adds_no_integer_points():
    cfg = jarnik_construct(5)
    knots = set(cfg.points)
    for x in range(0, cfg.q_total + 1):
        v = smoothed_value(cfg, x)
        if v.denominator == 1:
            assert (x, int(v)) in knots


def test_smoothed_taylor_consistency():
    cfg = jarnik_construct(3)
    x = Fraction(7, 2)
    c = smoothed_taylor(cfg, x, 4)
    assert c[0] == smoothed_value(cfg, x)
    assert c[3] == 0 and c[4] == 0
    h = Fraction(1, 1000)
    approx = (smoothed_value(cfg, x + h) - smoothed_value(cfg, x - h)) / (2 * h)
    assert abs(approx - c[1]) < Fraction(1, 100)


# -- convex cover counting ------------------------------------------------------------------


def test_convex_cover_scaled_parabola():
    oracle = polynomial_taylor_oracle(
        UniPoly([0, 0, Fraction(1, 16)]), 0, 16
    )
    rep = convex_cover_count(oracle, 2, 16, Fraction(1, 2))
    assert rep.total == 5
    assert {p.x for p in rep.points} == {0, 4, 8, 12, 16}
    assert len(rep.certificate.curves) == 1
    assert rep.certificate.curves[0] == parse("x^2 - 16*y")
    assert rep.budget >= 1


def test_convex_cover_parabola_family():
    n = 100
    oracle = polynomial_taylor_oracle(UniPoly([0, 0, 1]), 0, 10)  # x^2 on [0, sqrt(N)]
    rep = convex_cover_count(oracle, 2, n, 1)
    assert rep.total == 11  # 0..10 inclusive
    assert len(rep.certificate.curves) == 1


def test_convex_cover_jarnik():
    cfg = jarnik_construct(3)
    rep = convex_cover_count(jarnik_taylor_oracle(cfg), 2, cfg.q_total, 1)
    assert rep.total == len(cfg.points)  # all knots, no extras
    assert rep.budget >= len(rep.certificate.curves)
    assert sum(1 for _ in rep.points) == 8


def test_convex_cover_bound_violation():
    oracle = polynomial_taylor_oracle(UniPoly([0, 0, 50]), 0, 10)  # 50 x^2: c2 too big
    with pytest.raises(OracleBoundError):
        convex_cover_count(oracle, 2, 10, Fraction(1, 10))


def test_convex_line_cap_detects_collinear():
    oracle = polynomial_taylor_oracle(UniPoly([0, 1]), 0, 10)  # the line y = x
    with pytest.raises(ConvexityViolation):
        convex_cover_count(oracle, 1, 10, 1)
