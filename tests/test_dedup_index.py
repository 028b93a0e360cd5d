import itertools
import math

import pytest

from orbiflow import config, trigroup
from orbiflow.hyp2 import Isometry, compose_entries, projective_dist
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
    for planted in ((1.0 + 3 * BAND, 0.0, 0.0, 1.0),
                    (-1.0, 0.0, -3 * BAND, -1.0)):
        with pytest.raises(DedupAmbiguityError):
            _coset_repeat(planted, [identity])


def test_duplicate_and_distinct_vectors():
    earlier = [Isometry.identity().entries(), (2.0, 1.0, 1.0, 1.0)]
    assert not _coset_repeat(earlier[0], [])
    assert _coset_repeat((1.0, BAND / 2, 0.0, 1.0), earlier)
    assert _coset_repeat((-1.0, 0.0, 0.0, -1.0), earlier)
    assert _coset_repeat((-2.0, -1.0, -1.0 - BAND / 2, -1.0), earlier)
    assert not _coset_repeat((1.0, 20 * BAND, 0.0, 1.0), earlier)
    assert not _coset_repeat((0.0, 1.0, -1.0, 0.0), earlier)


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
    return [(el.word, [x.hex() for x in el.matrix.entries()]) for el in ball]


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
    o = trigroup._tile_point(group)[0].as_complex()
    gens = {letter: group.generator(letter).entries() for letter in ALPHABET}
    index = _GridIndex(1e-9, guard=10.0)
    stored = [GroupElement((), Isometry.identity())]
    index.insert(trigroup._disc_image(stored[0].matrix.entries(), o))
    frontier = stored[:]
    skipped = 0
    for _ in range(6):
        fresh = []
        for el in frontier:
            for letter in ALPHABET:
                m = compose_entries(el.matrix.entries(), gens[letter])
                found = index.insert(trigroup._disc_image(m, o))
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


def test_planted_near_duplicate_tile_point_raises(monkeypatch):
    # Every tile point after the identity's is moved 3e-9 off, so the first
    # product equal to the identity (PQR, at radius 3) lands between the 1e-9
    # dedup radius and the 1e-8 guard band of the identity's tile point.
    group = build_group(2, 3, 7)
    real = trigroup._disc_image
    calls = itertools.count()

    def planted(e, z):
        w = real(e, z)
        return w if next(calls) == 0 else (w[0] + 3e-9, w[1])

    enumerate_elements.cache_clear()
    monkeypatch.setattr(trigroup, "_disc_image", planted)
    try:
        with pytest.raises(DedupAmbiguityError):
            enumerate_elements(group, 3)
    finally:
        enumerate_elements.cache_clear()
