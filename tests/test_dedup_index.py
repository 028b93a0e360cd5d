import math

import pytest

from orbiflow import config, trigroup
from orbiflow.hyp2 import Isometry, compose_entries, mobius, projective_dist
from orbiflow.trigroup import (ALPHABET, CASE_TRIPLES, CASES,
                               _CELL, DedupAmbiguityError, GroupElement,
                               _GridIndex, _coset_repeat, build_group,
                               enumerate_elements)

BAND = config.EPS_BAND  # the coset's repeat radius
RADIUS = 1e-9  # the tile points' dedup radius, with a guard band to 10x


def _mid_cell():
    """A 4-vector in the middle of a grid cell, away from every wall."""
    return [(k + 0.5) * _CELL for k in (3, -7, 11, 0)]


def test_planted_near_duplicate_raises():
    identity = Isometry.identity().entries()
    for planted in ((1.0 + 3 * BAND, 0.0j), (-1.0 + 0.0j, -3j * BAND)):
        with pytest.raises(DedupAmbiguityError):
            _coset_repeat(planted, [identity])


def test_duplicate_and_distinct_vectors():
    earlier = [Isometry.identity().entries(), (1.5 + 0.0j, 0.5 - 1.0j)]
    assert not _coset_repeat(earlier[0], [])
    assert _coset_repeat((1.0 + 0.0j, BAND / 2 * 1j), earlier)
    assert _coset_repeat((-1.0 + 0.0j, 0.0j), earlier)
    assert _coset_repeat((-1.5 + 0.0j, -0.5 + (1.0 + BAND / 2) * 1j), earlier)
    assert not _coset_repeat((1.0 + 0.0j, 20j * BAND), earlier)
    assert not _coset_repeat((1j, 0.0j), earlier)


@pytest.mark.parametrize("side", (-1, 1))
@pytest.mark.parametrize("axis", range(4))
def test_neighbour_across_a_cell_wall_is_found(axis, side):
    index = _GridIndex(RADIUS, guard=10.0)
    query = _mid_cell()
    stored = list(query)
    # Put the query just inside its cell's wall on `side`, and the stored
    # vector just across that wall, within the dedup radius.
    k = math.floor(query[axis] / _CELL)
    wall = (k + (side > 0)) * _CELL
    query[axis] = wall - side * RADIUS / 4
    stored[axis] = wall + side * RADIUS / 4
    assert math.floor(stored[axis] / _CELL) == k + side
    assert math.floor(query[axis] / _CELL) == k
    assert index.insert(tuple(stored)) is None
    assert index.insert(tuple(query)) == 0
    # The guard band reaches across the wall too.
    beyond = list(query)
    beyond[axis] = wall + side * 2 * RADIUS
    index2 = _GridIndex(RADIUS, guard=10.0)
    index2.insert(tuple(beyond))
    with pytest.raises(DedupAmbiguityError):
        index2.insert(tuple(query))


def test_neighbour_across_every_wall_at_a_corner():
    index = _GridIndex(1e-9)
    corner = [k * _CELL for k in (2, -5, 9, 1)]
    query = tuple(c - 2e-10 for c in corner)
    stored = tuple(c + 2e-10 for c in corner)
    assert index.insert(stored) is None
    assert index.insert(query) == 0


def _reference_ball(group, max_len):
    """Breadth-first word ball deduped by all-pairs projective distance."""
    gens = {letter: group.generator(letter) for letter in ALPHABET}
    elements = [GroupElement((), Isometry.identity())]
    frontier = elements
    for _ in range(max_len):
        fresh = []
        for el in frontier:
            for letter in ALPHABET:
                m = el.matrix.compose(gens[letter])
                entries = m.entries()
                if all(projective_dist(entries, other.matrix.entries())
                       > BAND for other in elements + fresh):
                    fresh.append(GroupElement(el.word + (letter,), m))
        elements = elements + fresh
        frontier = fresh
    return elements


def _ball_bits(ball):
    return [(el.word, [part.hex() for x in el.matrix.entries()
                       for part in (x.real, x.imag)]) for el in ball]


@pytest.mark.parametrize("case", CASES)
def test_ball_matches_all_pairs_reference(case):
    group = build_group(*CASE_TRIPLES[case])
    assert _ball_bits(enumerate_elements(group, 6)) == \
        _ball_bits(_reference_ball(group, 6))


@pytest.mark.parametrize("case", CASES)
def test_every_skipped_ball_product_is_a_duplicate(case):
    # Replay the radius-6 tile search with every step taken: each step it
    # leaves out, back by the inverse of a word's last letter, lands within
    # the dedup radius of the tile point of the word's parent, and the ball
    # is the one the search builds.
    group = build_group(*CASE_TRIPLES[case])
    o = trigroup._tile_point(group)[0]
    gens = {letter: group.generator(letter).entries() for letter in ALPHABET}
    index = _GridIndex(1e-9, guard=10.0)
    stored = [GroupElement((), Isometry.identity())]
    index.insert((o.real, o.imag))
    frontier = stored[:]
    skipped = 0
    for _ in range(6):
        fresh = []
        for el in frontier:
            for letter in ALPHABET:
                m = compose_entries(el.matrix.entries(), gens[letter])
                w = mobius(m, o)
                found = index.insert((w.real, w.imag))
                if el.word and letter == el.word[-1].swapcase():
                    skipped += 1
                    assert found is not None
                    assert stored[found].word == el.word[:-1]
                elif found is None:
                    fresh.append(GroupElement(el.word + (letter,), Isometry(*m)))
                    stored.append(fresh[-1])
        frontier = fresh
    assert skipped > 0
    assert _ball_bits(stored) == _ball_bits(enumerate_elements(group, 6))


def _tile_point_margins(group, radius):
    """Replay the tile search of the radius with every step taken: (the
    number of tiles, the largest distance of a dedup hit from the tile point
    it hits, the least distance between two distinct tile points)."""
    o = trigroup._tile_point(group)[0]
    gens = [group.generator(letter).entries() for letter in ALPHABET]
    index = _GridIndex(1e-9, guard=10.0)
    index.insert((o.real, o.imag))
    frontier = [Isometry.identity().entries()]
    hit = 0.0
    for _ in range(radius):
        fresh = []
        for m in frontier:
            for gen in gens:
                step = compose_entries(m, gen)
                w = mobius(step, o)
                found = index.insert((w.real, w.imag))
                if found is None:
                    fresh.append(step)
                else:
                    u = index.vectors[found]
                    hit = max(hit, abs(w.real - u[0]), abs(w.imag - u[1]))
        frontier = fresh
    points = sorted(index.vectors)
    apart = math.inf
    for i, (x, y) in enumerate(points):
        for u, v in points[i + 1:]:
            if u - x >= apart:
                break
            apart = min(apart, max(u - x, abs(v - y)))
    return len(points), hit, apart


@pytest.mark.parametrize("case", CASES)
def test_tile_point_dedup_margins_on_the_radius_8_balls(case):
    # Equal tile points land within 1e-12 of each other and distinct ones
    # lie at least 1e-5 apart: far on either side of the 1e-9 dedup radius
    # and its 1e-8 guard band.
    group = build_group(*CASE_TRIPLES[case])
    tiles, hit, apart = _tile_point_margins(group, 8)
    assert tiles == len(enumerate_elements(group, 8))
    assert hit <= 1e-12
    assert apart >= 1e-5


def test_planted_near_duplicate_tile_point_raises(monkeypatch):
    # Every tile point after the identity's is moved 3e-9 off, so the first
    # product equal to the identity (PQR, at radius 3) lands between the 1e-9
    # dedup radius and the 1e-8 guard band of the identity's tile point.
    group = build_group(2, 3, 7)

    class Planted(_GridIndex):
        def insert(self, vec):
            if self.vectors:
                vec = (vec[0] + 3e-9, vec[1])
            return super().insert(vec)

    enumerate_elements.cache_clear()
    monkeypatch.setattr(trigroup, "_GridIndex", Planted)
    try:
        with pytest.raises(DedupAmbiguityError):
            enumerate_elements(group, 3)
    finally:
        enumerate_elements.cache_clear()
