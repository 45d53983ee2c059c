"""Monomial-set combinatorics: sizes and exponent-sum identities."""

import pytest

from latcurve.monomials import MonomialSet, PunctureError, full_set, non_divisibility_guard, punctured_set
from latcurve.poly2 import parse


def test_full_set_examples():
    m = full_set(2)
    assert (m.D, m.p, m.q) == (6, 4, 4)
    m1 = full_set(1)
    assert (m1.D, m1.p, m1.q) == (3, 1, 1)
    assert m1.members == ((0, 0), (1, 0), (0, 1))
    m3 = full_set(3)
    assert (m3.D, m3.p, m3.q) == (10, 10, 10)


@pytest.mark.parametrize("d", range(1, 11))
def test_full_set_identity(d):
    m = full_set(d)
    assert m.D == (d + 1) * (d + 2) // 2
    assert 3 * m.p == d * m.D and 3 * m.q == d * m.D


def test_punctured_examples():
    m = punctured_set(2, 3, 2)
    assert set(m.members) == {(2, 0), (1, 1), (3, 0), (2, 1)}
    assert (m.D, m.p, m.q) == (4, 8, 2)
    m2 = punctured_set(3, 3, 0)
    assert set(m2.members) == {(2, 1), (1, 2), (0, 3)}
    assert m2.D == 3
    m3 = punctured_set(2, 2, 1)
    assert m3.D == 2 and set(m3.members) == {(2, 0), (0, 2)}


def test_punctured_identities_exhaustive():
    for d in range(2, 7):
        for ell in range(d, d + 7):
            for i_f in range(0, d + 1):
                m = punctured_set(d, ell, i_f)
                assert m.D == d * (ell - d + 1)
                assert 2 * (m.p + m.q) == d * (ell * (ell + 1) - d * (d - 1))
                per_degree = {}
                for j1, j2 in m.members:
                    per_degree[j1 + j2] = per_degree.get(j1 + j2, 0) + 1
                assert all(per_degree[h] == d for h in range(d, ell + 1))
                a, b = d - i_f, i_f
                for j1, j2 in m.members:
                    assert not (j1 >= a and j2 >= b)
                for h in range(d, ell + 1):
                    for j1 in range(h + 1):
                        if (j1, h - j1) not in m.members:
                            assert j1 >= a and h - j1 >= b


def test_punctured_rejects_bad_arguments():
    with pytest.raises(ValueError):
        punctured_set(1, 3, 0)
    with pytest.raises(ValueError):
        punctured_set(3, 2, 0)
    with pytest.raises(ValueError):
        punctured_set(2, 3, 3)


def test_monomial_set_rejects_fewer_than_two_members():
    # a span curve needs D >= 2; greedy covering and the bounds rely on it
    for members in ((), ((1, 0),)):
        with pytest.raises(ValueError, match="at least two members"):
            MonomialSet(members)
    with pytest.raises(ValueError, match="distinct"):
        MonomialSet(((1, 0), (1, 0)))
    assert MonomialSet(((0, 1), (1, 0))).D == 2


def test_member_order_is_canonical():
    m = full_set(2)
    assert m.members == ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))


def test_guard():
    assert non_divisibility_guard(parse("x*y - 12"), parse("y - x"))
    assert non_divisibility_guard(parse("x^2 + y^2 - 25"), parse("x + y - 7"))
    with pytest.raises(PunctureError):
        non_divisibility_guard(parse("y - x^2"), parse("y - x^2"))
