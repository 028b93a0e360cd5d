import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbiflow.torusmap import (CAT, IDENTITY, X, Y, CyclicXYWord,
                               OutOfFamilyError, RationalPoint, TorusMatrix,
                               act, fixed_points, orbit_of,
                               periodic_point_count, positive_words,
                               trace3_uniqueness, xy_normal_form)


def brute_force_fixed(A, n=1):
    """Oracle: enumerate the full grid of denominator |det(A^n - I)|."""
    P = A.power(n)
    det = abs((P.a - 1) * (P.d - 1) - P.b * P.c)
    pts = []
    for ix in range(det):
        for iy in range(det):
            x, y = Fraction(ix, det), Fraction(iy, det)
            if ((P.a * x + P.b * y) % 1, (P.c * x + P.d * y) % 1) == (x, y):
                pts.append(RationalPoint.of(x, y))
    return sorted(set(pts), key=lambda p: (p.den, p.num_x, p.num_y))


def random_conjugator(rng, length=8):
    m = IDENTITY
    for _ in range(rng.randint(1, length)):
        m = m * rng.choice([X, Y, X.inverse(), Y.inverse()])
    return m


def test_act_fixed_origin():
    assert act(CAT, RationalPoint.of(0, 0)) == RationalPoint.of(0, 0)


def test_act_period_two_point():
    p = RationalPoint.of(Fraction(3, 5), Fraction(1, 5))
    assert act(CAT, p) == RationalPoint.of(Fraction(2, 5), Fraction(4, 5))


def test_act_identity():
    p = RationalPoint.of(Fraction(2, 7), Fraction(3, 7))
    assert act(IDENTITY, p) == p


@given(st.integers(0, 30), st.integers(0, 30), st.integers(1, 31))
@settings(max_examples=200, deadline=None)
def test_act_denominator_divides(nx, ny, den):
    p = RationalPoint.of(Fraction(nx, den), Fraction(ny, den))
    q = act(CAT, p)
    assert p.den % q.den == 0


def test_fixed_points_cat():
    assert fixed_points(CAT) == [RationalPoint.of(0, 0)]


def test_fixed_points_cat_squared():
    pts = fixed_points(CAT * CAT)
    assert len(pts) == 5
    assert sorted(pts, key=lambda p: (p.den, p.num_x, p.num_y)) == \
        brute_force_fixed(CAT, 2)


def test_fixed_points_xy2():
    A = X * Y * Y
    assert A.trace() == 4
    pts = fixed_points(A)
    assert len(pts) == abs((A.a - 1) * (A.d - 1) - A.b * A.c) == 2
    assert sorted(pts, key=lambda p: (p.den, p.num_x, p.num_y)) == \
        brute_force_fixed(A)


def test_fixed_points_rejects_eigenvalue_one():
    with pytest.raises(ValueError):
        fixed_points(IDENTITY)


@pytest.mark.parametrize("n,expect", [(1, 1), (2, 5), (3, 16), (4, 45)])
def test_periodic_point_count(n, expect):
    assert periodic_point_count(CAT, n) == expect
    assert len(brute_force_fixed(CAT, n)) == expect


def test_count_formula_trace_minus_two():
    for A in (CAT, X * Y * Y, X.power(3) * Y):
        assert periodic_point_count(A, 1) == A.trace() - 2


def test_count_rejects_nonhyperbolic():
    with pytest.raises(OutOfFamilyError):
        periodic_point_count(X, 1)


def test_orbit_structure():
    assert orbit_of(CAT, RationalPoint.of(0, 0)).period == 1
    o1 = orbit_of(CAT, RationalPoint.of(Fraction(3, 5), Fraction(1, 5)))
    o2 = orbit_of(CAT, RationalPoint.of(Fraction(1, 5), Fraction(2, 5)))
    assert o1.period == o2.period == 2
    assert not set(o1.points) & set(o2.points)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_orbit_periods_partition(n):
    pts = brute_force_fixed(CAT, n)
    seen = set()
    total = 0
    for p in pts:
        if p in seen:
            continue
        orb = orbit_of(CAT, p)
        seen.update(orb.points)
        assert n % orb.period == 0
        total += orb.period
    assert total == periodic_point_count(CAT, n)


def test_xy_normal_form_cat():
    assert xy_normal_form(CAT).exponents == (1, 1)
    assert str(xy_normal_form(CAT)) == "XY"


def test_xy_normal_form_cyclic():
    assert xy_normal_form(Y * X) == xy_normal_form(CAT)


def test_xy_normal_form_word_roundtrip():
    w = CyclicXYWord((2, 3))
    assert xy_normal_form(w.matrix()) == w


def test_xy_normal_form_exhaustive_roundtrip():
    for w in positive_words(9):
        assert xy_normal_form(w.matrix()) == w


def test_xy_normal_form_rejects_low_trace():
    with pytest.raises(OutOfFamilyError):
        xy_normal_form(X)
    with pytest.raises(OutOfFamilyError):
        xy_normal_form(TorusMatrix(0, -1, 1, 0))


def test_conjugate_in_sl2z():
    assert xy_normal_form(CAT) == xy_normal_form(Y * X)
    assert xy_normal_form(CAT) != xy_normal_form(X * X * Y)
    rng = random.Random(11)
    A = X.power(2) * Y * X * Y.power(3)
    for _ in range(25):
        P = random_conjugator(rng)
        assert xy_normal_form(A) == xy_normal_form(P * A * P.inverse())


def test_conjugacy_invariance_random_words():
    rng = random.Random(5)
    for w in list(positive_words(7)):
        M = w.matrix()
        for _ in range(2):
            P = random_conjugator(rng)
            assert xy_normal_form(P * M * P.inverse()) == w


def test_trace3_uniqueness_small():
    assert trace3_uniqueness()
    # Every trace-3 word beyond the bound's length 2, up to 8, is XY too.
    assert [w for w in positive_words(8) if w.matrix().trace() == 3] == \
        [CyclicXYWord((1, 1))]


@given(st.lists(st.sampled_from("XY"), min_size=1, max_size=40))
@settings(max_examples=300, deadline=None)
def test_trace_grows_by_corner_entries(letters):
    # The bound of trace3_uniqueness: appending X adds c, appending Y adds
    # b, and a word that uses both letters has trace >= its length + 1.
    W = IDENTITY
    for letter in letters:
        W = W * (X if letter == "X" else Y)
    _, b, c, _ = W.entries()
    assert (W * X).trace() == W.trace() + c
    assert (W * Y).trace() == W.trace() + b
    if set(letters) == {"X", "Y"}:
        assert min(b, c) >= 1
        assert W.trace() >= len(letters) + 1


def test_cyclic_word_canonical_rotation():
    assert CyclicXYWord.canonical((2, 1, 1, 3)) == \
        CyclicXYWord.canonical((1, 3, 2, 1))
    with pytest.raises(ValueError):
        CyclicXYWord((1,))
    with pytest.raises(ValueError):
        CyclicXYWord((1, 0))
