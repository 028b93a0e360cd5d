import itertools
import math

import pytest

from orbiflow import config, trigroup
from orbiflow.hyp2 import Isometry, compose_entries, projective_dist
from orbiflow.trigroup import (ALPHABET, CASE_TRIPLES, CASES,
                               DedupAmbiguityError, GroupElement, _GridIndex,
                               _matrix_index, build_group, enumerate_elements)

RADIUS = config.EPS_BAND


def _mid_cell(index):
    """A 4-vector in the middle of a grid cell, away from every wall."""
    return [(k + 0.5) * index.cell for k in (3, -7, 11, 0)]


def test_planted_near_duplicate_raises():
    index = _matrix_index()
    assert index.insert(Isometry.identity().entries()) is None
    planted = (1.0 + 3 * RADIUS, 0.0, 0.0, 1.0)
    with pytest.raises(DedupAmbiguityError):
        index.insert(planted)


def test_duplicate_and_distinct_vectors():
    index = _matrix_index()
    base = Isometry.identity().entries()
    assert index.insert(base) is None
    assert index.insert((1.0, RADIUS / 2, 0.0, 1.0)) == 0
    assert index.insert((1.0, 20 * RADIUS, 0.0, 1.0)) is None
    assert len(index.vectors) == 2


@pytest.mark.parametrize("side", (-1, 1))
@pytest.mark.parametrize("axis", range(4))
def test_neighbour_across_a_cell_wall_is_found(axis, side):
    index = _matrix_index()
    query = _mid_cell(index)
    stored = list(query)
    # Put the query just inside its cell's wall on `side`, and the stored
    # vector just across that wall, within the dedup radius.
    k = math.floor(query[axis] / index.cell)
    wall = (k + (side > 0)) * index.cell
    query[axis] = wall - side * RADIUS / 4
    stored[axis] = wall + side * RADIUS / 4
    assert math.floor(stored[axis] / index.cell) == k + side
    assert math.floor(query[axis] / index.cell) == k
    assert index.insert(tuple(stored)) is None
    assert index.insert(tuple(query)) == 0
    # The guard band reaches across the wall too.
    beyond = list(query)
    beyond[axis] = wall + side * 2 * RADIUS
    index2 = _matrix_index()
    index2.insert(tuple(beyond))
    with pytest.raises(DedupAmbiguityError):
        index2.insert(tuple(query))


def test_neighbour_across_every_wall_at_a_corner():
    index = _GridIndex(1e-9)
    corner = [k * index.cell for k in (2, -5, 9, 1)]
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
                       > RADIUS for other in elements + fresh):
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
                m = compose_entries(el.matrix.entries(), gens[letter],
                                    config.EPS_PT)
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
