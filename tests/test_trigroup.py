import cmath
import math

import pytest

from orbiflow import cli, config, hyp2, trigroup
from orbiflow.hyp2 import IsometryKind, apply, distance, projective_dist
from orbiflow.trigroup import (CASE_TRIPLES, CASES, EnumerationError,
                               adjacency_isometries, build_group,
                               canonical_neighbors, cell_polygon, cell_tiling,
                               curve_lifts, curve_system, enumerate_elements,
                               lifts_along)

ADJACENCY_EXPECTED = {
    237: (7, 5, 2), 245: (5, 3, 2), 246: (4, 3, 1),
    334: (4, 2, 2), 344: (3, 2, 1),
}
ON_BOUNDARY_EXPECTED = {237: 2, 245: 2, 246: 0, 334: 2, 344: 0}
WALLS_EXPECTED = {237: 7, 245: 5, 246: 4, 334: 8, 344: 6}


@pytest.fixture(scope="module", params=CASES)
def case_data(request):
    case = request.param
    group = build_group(*CASE_TRIPLES[case])
    system = curve_system(case)
    report = adjacency_isometries(group, system)
    return case, group, system, report


def test_build_group_orders():
    g = build_group(2, 4, 6)
    acc = hyp2.Isometry.identity()
    for _ in range(4):
        acc = acc.compose(g.gQ)
    assert hyp2.is_identity(acc)
    prod = g.gP.compose(g.gQ).compose(g.gR)
    assert hyp2.is_identity(prod)


def test_build_group_rejects_euclidean():
    with pytest.raises(hyp2.GeometryError):
        build_group(2, 3, 6)


def test_order4_generators_not_conjugate_in_344():
    # gQ and gR share order 4 and trace, but the two order-4 cone points are
    # distinct orbifold points, so no group element conjugates one rotation
    # to the other (or to its inverse): the word search finds no witness.
    g = build_group(3, 4, 4)
    assert abs(abs(g.gQ.trace()) - abs(g.gR.trace())) < 1e-12
    ball = enumerate_elements(g, 5)
    for el in ball:
        conj = el.matrix.compose(g.gQ).compose(el.matrix.inverse())
        assert projective_dist(conj.entries(), g.gR.entries()) > 1e-3
        assert projective_dist(conj.entries(), g.gR.inverse().entries()) > 1e-3
    # The cone-point orbits stay disjoint as well.
    for el in ball:
        assert distance(apply(el.matrix, g.Q), g.R) > 1e-3


def test_ball_zero_is_identity():
    g = build_group(2, 3, 7)
    ball = enumerate_elements(g, 0)
    assert len(ball) == 1
    assert ball[0].word == ()


def test_ball_one_dedups_involution():
    g = build_group(2, 3, 7)
    ball = enumerate_elements(g, 1)
    # gP equals its inverse projectively, so the ball has 1 + 5 elements.
    assert len(ball) == 6
    words = ["".join(el.word) or "1" for el in ball]
    assert words[0] == "1" and "P" in words and "p" not in words


def test_ball_growth_strictly_monotone():
    g = build_group(2, 3, 7)
    sizes = [len(enumerate_elements(g, d)) for d in range(9)]
    assert all(a < b for a, b in zip(sizes, sizes[1:]))


def test_enumeration_deterministic():
    g1 = build_group(2, 4, 5)
    words1 = [el.word for el in enumerate_elements(g1, 5)]
    enumerate_elements.cache_clear()
    trigroup.curve_system.cache_clear()
    trigroup.curve_lifts.cache_clear()
    g2 = build_group(2, 4, 5)
    words2 = [el.word for el in enumerate_elements(g2, 5)]
    assert words1 == words2


@pytest.fixture
def cold():
    """Start with no ball or lift set built, as a fresh process does."""
    def reset():
        enumerate_elements.cache_clear()
        curve_lifts.cache_clear()
    reset()
    yield reset
    enumerate_elements.cache_clear()
    curve_lifts.cache_clear()


def _ball_bits(ball):
    return [(el.word, tuple(part.hex() for x in el.matrix.entries()
                            for part in (x.real, x.imag))) for el in ball]


def _lift_bits(lifts):
    return [(g.u.real.hex(), g.u.imag.hex(), g.v.real.hex(), g.v.imag.hex())
            for g in lifts]


@pytest.mark.parametrize("case", CASES)
def test_balls_agree_in_any_call_order(case, cold):
    # The radius-8 ball first against each radius enumerated afresh in
    # increasing order: every smaller ball is a prefix of a larger one.
    group = build_group(*CASE_TRIPLES[case])
    first = {8: _ball_bits(enumerate_elements(group, 8))}
    first.update({r: _ball_bits(enumerate_elements(group, r)) for r in range(8)})
    cold()
    for r in range(9):
        assert _ball_bits(enumerate_elements(group, r)) == first[r]
        assert first[r] == first[8][:len(first[r])]


@pytest.mark.parametrize("case", CASES)
def test_lifts_agree_in_any_call_order(case, cold):
    first = {8: _lift_bits(curve_lifts(case, 8))}
    first.update({d: _lift_bits(curve_lifts(case, d)) for d in range(8)})
    cold()
    for d in range(9):
        assert _lift_bits(curve_lifts(case, d)) == first[d]
    # A fresh lift set of a smaller depth after cache_clear alone is the
    # prefix of the larger one as well.
    curve_lifts.cache_clear()
    assert _lift_bits(curve_lifts(case, 5)) == first[5]


def _all_pairs_words(group, system, depth, neighbor):
    """The adjacency elements of the half-ball matching over every pair
    (u, v), in shortlex pair order: a word search to check the coset
    against."""
    eps = config.EPS_PT
    ball = enumerate_elements(group, (depth + 1) // 2)
    c0, c1 = system.cell_center, neighbor
    sources = [apply(el.matrix, c0) for el in ball]
    pairs = []
    for u in ball:
        t = apply(u.matrix.inverse(), c1)
        pairs += [(u, v) for v, w in zip(ball, sources)
                  if max(abs(t.real - w.real), abs(t.imag - w.imag)) <= 1e-7]
    pairs.sort(key=lambda uv: (len(uv[0].word) + len(uv[1].word),
                               uv[0].word, uv[1].word))
    found = []
    for u, v in pairs:
        m = u.matrix.compose(v.matrix)
        if (distance(apply(m, c0), c1) <= 10 * eps and
                all(projective_dist(m.entries(), f.entries()) > 1e-7
                    for _, f in found)):
            found.append((u.word + v.word, m))
    return found


def test_coset_matches_all_pairs(case_data):
    # The witness coset is the set the depth-12 word search finds, with the
    # same elliptic/hyperbolic split and its hyperbolic elements in the same
    # order.
    case, group, system, report = case_data
    reference = [m for _, m in _all_pairs_words(group, system, 12,
                                                report.neighbor_center)]
    assert len(reference) == report.total
    coset = [e.element.matrix for e in report.entries]
    for m in coset:
        assert sum(projective_dist(m.entries(), r.entries()) < 1e-12
                   for r in reference) == 1

    def hyperbolic(mats):
        return [m for m in mats
                if hyp2.classify(m).kind is IsometryKind.HYPERBOLIC]

    assert len(hyperbolic(reference)) == report.hyperbolic
    assert all(projective_dist(a.entries(), b.entries()) < 1e-12
               for a, b in zip(hyperbolic(coset), hyperbolic(reference)))


def _planted(system, fault):
    """The curve system with a wrong stabilizer: order k+1, or the rotation
    about another vertex of the triangle."""
    vertex, order = system.center_vertex, system.stabilizer_order
    if fault == "order":
        order += 1
    else:
        vertex = next(n for n in "PQR" if n != vertex)
    return trigroup.CurveSystem(system.case, system.words,
                                system.base_geodesics, vertex,
                                system.cell_center, order)


PLANTED_MESSAGES = {"order": "repeats an earlier one",
                    "vertex": "misses the neighbor center"}


@pytest.mark.parametrize("fault", sorted(PLANTED_MESSAGES))
def test_planted_stabilizer_fault_raises(case_data, fault, monkeypatch):
    _, group, system, report = case_data
    seen = []

    def logged(m, e):
        seen.append((m, e, projective_dist(m, e)))
        return seen[-1][2]

    monkeypatch.setattr(trigroup, "projective_dist", logged)
    with pytest.raises(EnumerationError, match=PLANTED_MESSAGES[fault]):
        adjacency_isometries(group, _planted(system, fault))
    if fault == "order":
        # Products choose no sign, and the rotation's k-th power is -I: the
        # repeat is the negative of the witness, which only a comparison
        # that takes M and -M as equal finds.
        [(m, e)] = [(m, e) for m, e, d in seen if d <= config.EPS_BAND]
        assert e == report.entries[0].element.matrix.entries()
        assert max(abs(x + y) for x, y in zip(m, e)) <= config.EPS_BAND
        assert max(abs(x - y) for x, y in zip(m, e)) > 1.0


@pytest.mark.parametrize("fault", sorted(PLANTED_MESSAGES))
def test_planted_stabilizer_fault_exits_2(case_data, fault, monkeypatch,
                                          capsys):
    case = case_data[0]
    real = trigroup.curve_system
    monkeypatch.setattr(trigroup, "curve_system",
                        lambda c: _planted(real(c), fault))
    assert cli.main(["verify", "--case", str(case)]) == 2
    [line] = capsys.readouterr().err.splitlines()
    assert line.startswith(f"error: enumeration (trigroup): case {case}, "
                           "adjacency: ")
    assert PLANTED_MESSAGES[fault] in line


def test_stored_lift_angles_match(case_data):
    # The neighbour search reads the Klein chord of every lift along the
    # neighbour segment; the line it stored with each lift is the line
    # through its circle ends u and v, bit for bit.
    case, group, system, report = case_data
    c0, c1 = system.cell_center, report.neighbor_center
    lifts = lifts_along(group, system, (c0, c1))
    geo = hyp2.geodesic_through(c0, c1)
    lo, hi = sorted((hyp2.axis_parameter(geo, c0), hyp2.axis_parameter(geo, c1)))
    on_lift, ts = trigroup._meetings(geo, lifts)
    assert not on_lift
    assert trigroup._clusters([t for t in ts if lo + 1e-9 < t < hi - 1e-9]) == 1
    for lift in lifts:
        stored = lift.klein_line
        assert lift.klein_line is stored
        u, v = lift.u, lift.v
        nx, ny = v.imag - u.imag, u.real - v.real
        fresh = (nx, ny, nx * u.real + ny * u.imag, math.hypot(nx, ny))
        assert [x.hex() for x in stored] == [x.hex() for x in fresh]


def midpoint(a, b):
    """Midpoint of the geodesic segment from a to b."""
    geo = hyp2.geodesic_through(a, b)
    ta, tb = hyp2.axis_parameter(geo, a), hyp2.axis_parameter(geo, b)
    return hyp2.foot_on_axis(geo, ta + 0.5 * (tb - ta))


def test_figure_eight_axis_through_midpoints():
    for case, seg in ((334, ("P", "Q")), (344, ("Q", "R"))):
        group = build_group(*CASE_TRIPLES[case])
        system = curve_system(case)
        a, b = group.vertex(seg[0]), group.vertex(seg[1])
        mid = midpoint(a, b)
        for geo in system.base_geodesics:
            foot = trigroup.foot_of_perpendicular(geo, mid)
            assert distance(mid, foot) < 1e-8


def _runs_through(geo, a, b):
    """Whether geo passes within 1e-9 of a and of b, and runs from a
    toward b."""
    return (all(distance(x, trigroup.foot_of_perpendicular(geo, x)) < 1e-9
                for x in (a, b))
            and hyp2.axis_parameter(geo, a) < hyp2.axis_parameter(geo, b))


def _paper_geometry(case, group, bases):
    """Whether the base geodesics are the curve the paper describes (the
    descriptions of ``curve_system``): 237 one base from P crossing QR at a
    right angle; 245 (246) one base through P then Q (R); 334 (344) two
    branches crossing transversally at the midpoint of PQ (QR), the second
    the first moved by gP^-1 (gQ^-1), ends in order."""
    P, Q, R = group.P, group.Q, group.R
    if case == 237:
        qr = hyp2.geodesic_through(Q, R)
        crossing = len(bases) == 1 and hyp2.geodesic_crossing(bases[0], qr)
        return bool(crossing and abs(crossing[1] - math.pi / 2) < 1e-9
                    and _runs_through(bases[0], P, crossing[0]))
    if case in (245, 246):
        return len(bases) == 1 and _runs_through(bases[0], P,
                                                 Q if case == 245 else R)
    a, b, mover = (P, Q, "p") if case == 334 else (Q, R, "q")
    if len(bases) != 2:
        return False
    first, second = bases
    crossing = hyp2.geodesic_crossing(first, second)
    e = group.generator(mover).entries()
    moved = (hyp2.mobius(e, first.u), hyp2.mobius(e, first.v))
    return bool(crossing and crossing[1] > 1e-6
                and distance(crossing[0], midpoint(a, b)) < 1e-9
                and max(abs(moved[0] - second.u),
                        abs(moved[1] - second.v)) < 1e-9)


# A wrong row per case, each word hyperbolic, so that ``curve_system``
# builds it: for 237, verify passes it.  The figure-eight rows carry the
# second branch reversed.
PLANTED_CURVES = {237: (("Qrr",), "R"), 245: (("qRR",), "R"),
                  246: (("qR",), "Q"), 334: (("Pq", "Pr"), "R"),
                  344: (("Qr", "qR"), "P")}


@pytest.mark.parametrize("case", CASES)
def test_curve_words_have_the_papers_geometry(case, monkeypatch):
    # A curve is its words: the geometry the paper states is a check on
    # them, which each planted wrong row fails.
    group = build_group(*CASE_TRIPLES[case])
    system = curve_system(case)
    assert [el.word for el in system.words] == \
        [tuple(word) for word in trigroup._CURVES[case][0]]
    assert [(geo.u, geo.v) for geo in system.base_geodesics] == \
        [(axis.u, axis.v) for axis in (hyp2.axis_of(el.matrix)
                                       for el in system.words)]
    assert _paper_geometry(case, group, system.base_geodesics)
    monkeypatch.setitem(trigroup._CURVES, case, PLANTED_CURVES[case])
    curve_system.cache_clear()
    try:
        assert not _paper_geometry(case, group,
                                   curve_system(case).base_geodesics)
    finally:
        curve_system.cache_clear()


# Edges with even-order ends whose axis element, the product of the two
# half-turns, is longer than four letters (ROADMAP item 4), with the third
# vertex as the centre and the split (total, elliptic, hyperbolic) of its
# adjacency coset; and 245's edge PQ as the same product, with 245's split.
EDGE_CURVES = [((2, 6, 6), "QQQRRR", "P", (2, 2, 0)),
               ((3, 6, 6), "QQQRRR", "P", (3, 2, 1)),
               ((4, 6, 6), "QQQRRR", "P", (4, 2, 2)),
               ((5, 6, 6), "QQQRRR", "P", (5, 2, 3)),
               ((6, 6, 6), "PPPQQQ", "R", (6, 2, 4)),
               ((6, 6, 6), "QQQRRR", "P", (6, 2, 4)),
               ((6, 6, 6), "RRRPPP", "Q", (6, 2, 4)),
               ((6, 6, 7), "PPPQQQ", "R", (7, 2, 5)),
               ((2, 4, 5), "PQQ", "R", ADJACENCY_EXPECTED[245])]


@pytest.mark.parametrize("triple,word,center,split", EDGE_CURVES)
def test_doubled_edge_from_its_half_turns(triple, word, center, split,
                                          monkeypatch):
    # A curve on any triangle group is plain data: the doubled edge is the
    # axis of its word, through both ends, and the adjacency coset has the
    # centre's stabilizer order, no parabolic element among them.
    case = -1  # no paper case
    monkeypatch.setitem(trigroup.CASE_TRIPLES, case, triple)
    monkeypatch.setitem(trigroup._CURVES, case, ((word,), center))
    curve_system.cache_clear()
    try:
        group, system = build_group(*triple), curve_system(case)
        [base] = system.base_geodesics
        assert all(distance(v, trigroup.foot_of_perpendicular(base, v))
                   < 1e-9 for v in (group.vertex(n) for n in set(word)))
        report = adjacency_isometries(group, system)
    finally:
        curve_system.cache_clear()
    assert (report.total, report.elliptic, report.hyperbolic) == split
    assert report.total == system.stabilizer_order
    assert report.parabolic == 0


def _chord_meets_triangle(geo, corners):
    """Whether the Klein chord of geo meets the closed triangle with the given
    Klein corners: the corners are not all strictly on one side of its line
    (the chord is the line's whole part inside the disc)."""
    a, b = geo.u, geo.v
    sides = [(b.real - a.real) * (c.imag - a.imag)
             - (b.imag - a.imag) * (c.real - a.real) for c in corners]
    return min(sides) <= 1e-12 and max(sides) >= -1e-12


def test_base_segments_inside_triangle(case_data):
    # Each base geodesic has a segment inside the closed base triangle PQR,
    # so its orbit lifts the curve drawn there; a lift far from the
    # triangle has none.
    case, group, system, _ = case_data
    corners = [hyp2.to_klein(v) for v in (group.P, group.Q, group.R)]
    for geo in system.base_geodesics:
        assert _chord_meets_triangle(geo, corners)
    far = max(curve_lifts(case, 4),
              key=lambda g: distance(system.cell_center,
                                     trigroup.foot_of_perpendicular(
                                         g, system.cell_center)))
    assert not _chord_meets_triangle(far, corners)


def _plant_near_tangent(monkeypatch):
    """Make every tube also hold a lift crossing the geodesic through the
    last two points of its path at an angle below 1e-6: its ends are those
    of that geodesic turned by 1e-5 and 1e-9 radians on the boundary."""
    real = trigroup.lifts_along

    def planted(group, system, path):
        geo = hyp2.geodesic_through(path[-2], path[-1])
        a, b = (cmath.phase(w) for w in (geo.u, geo.v))
        lift = hyp2.Geodesic(cmath.rect(1.0, a + 1e-5),
                             cmath.rect(1.0, b + 1e-9))
        crossing = hyp2.geodesic_crossing(lift, geo)
        assert not hyp2.same_geodesic(lift, geo, 1e-7)
        assert crossing is not None and 0 < crossing[1] < 1e-6
        return real(group, system, path) + (lift,)

    monkeypatch.setattr(trigroup, "lifts_along", planted)


def test_neighbour_test_rejects_a_near_tangent_lift(case_data, monkeypatch):
    _, group, system, _ = case_data
    _plant_near_tangent(monkeypatch)
    with pytest.raises(trigroup.TangencyError):
        canonical_neighbors(group, system, count=1)


def test_axis_test_rejects_a_near_tangent_lift(case_data, monkeypatch):
    _, group, system, report = case_data
    entry = next(e for e in report.entries
                 if e.classification.kind is IsometryKind.HYPERBOLIC)
    _plant_near_tangent(monkeypatch)
    with pytest.raises(trigroup.TangencyError):
        trigroup._axis_meetings(group, system, entry.element.matrix)


def _end_gap(g1, g2):
    """Chebyshev distance between the circle ends of two geodesics, in the
    nearer of the two orders: what ``hyp2.same_geodesic`` compares."""
    def gap(p, q):
        return max(abs(p.real - q.real), abs(p.imag - q.imag))
    a1, b1, a2, b2 = g1.u, g1.v, g2.u, g2.v
    return min(max(gap(a1, a2), gap(b1, b2)), max(gap(a1, b2), gap(b1, a2)))


def test_same_geodesic_decisions_have_a_wide_margin(monkeypatch):
    # Every same-geodesic call behind the five adjacency counts (the path
    # meetings and the crossing exits): the pairs it accepts lie within
    # 1e-12 of each other and the ones it rejects at least 1e-4 apart, 10^3
    # times its largest eps (1e-7).
    real, calls = hyp2.same_geodesic, []

    def recorded(g1, g2, eps):
        same = real(g1, g2, eps)
        calls.append((same, _end_gap(g1, g2)))
        return same

    monkeypatch.setattr(hyp2, "same_geodesic", recorded)
    monkeypatch.setattr(trigroup, "same_geodesic", recorded)
    for cache in (curve_system, trigroup._tube):
        cache.cache_clear()
    for case in CASES:
        adjacency_isometries(build_group(*CASE_TRIPLES[case]),
                             curve_system(case))
    for cache in (curve_system, trigroup._tube):
        cache.cache_clear()
    accepted = [g for same, g in calls if same]
    rejected = [g for same, g in calls if not same]
    assert accepted and rejected
    assert max(accepted) <= 1e-12
    assert min(rejected) >= 1e-4


def wall_count(center, lifts):
    """Distinct walls of the tile around `center`, which the lifts close."""
    _, labels = cell_polygon(center, lifts)
    assert None not in labels
    return len(set(labels))


def test_cell_walls(case_data):
    case, group, system, _ = case_data
    lifts = curve_lifts(case, 6)
    assert wall_count(system.cell_center, lifts) == WALLS_EXPECTED[case]


def test_other_cell_families():
    lifts = curve_lifts(334, 6)
    g = build_group(3, 3, 4)
    assert wall_count(g.P, lifts) == 3
    assert wall_count(g.Q, lifts) == 3
    lifts = curve_lifts(344, 6)
    g = build_group(3, 4, 4)
    assert wall_count(g.Q, lifts) == 4
    assert wall_count(g.R, lifts) == 4


def test_tiling_contains_base_once(case_data):
    case, group, system, _ = case_data
    tiles = cell_tiling(group, system.cell_center, 4)
    hits = [el for pt, el in tiles if distance(pt, system.cell_center) < 1e-9]
    assert len(hits) == 1
    assert hits[0].word == ()


def test_tiling_centers_have_full_stabilizer(case_data):
    # A center reached by a word of length 2 has its stabilizer conjugated by
    # that word, so a ball of radius 2*2 + (k-1)//2 + 1 surely contains all k
    # stabilizer elements; no extra ones may appear.
    case, group, system, _ = case_data
    ball = enumerate_elements(group, 8)
    k = system.stabilizer_order
    for pt, _ in cell_tiling(group, system.cell_center, 2)[:6]:
        fixing = sum(1 for el in ball
                     if distance(apply(el.matrix, pt), pt) < 1e-8)
        assert fixing == k


def test_adjacency_counts(case_data):
    case, _, _, report = case_data
    total, ell, hyp_n = ADJACENCY_EXPECTED[case]
    assert (report.total, report.elliptic, report.hyperbolic) == (total, ell, hyp_n)
    assert report.parabolic == 0
    on_bdry = sum(1 for e in report.entries if e.on_boundary_curve)
    assert on_bdry == ON_BOUNDARY_EXPECTED[case]


def test_adjacency_coset_closure(case_data):
    case, group, system, report = case_data
    rot = hyp2.rotation_about(system.cell_center,
                              2 * math.pi / system.stabilizer_order)
    mats = [e.element.matrix for e in report.entries]
    for m in mats:
        shifted = m.compose(rot)
        assert any(projective_dist(shifted.entries(), other.entries()) < 1e-6
                   for other in mats)


def test_adjacency_neighbor_independence(case_data):
    # The coset of the second neighbour's witness has the same split.
    case, group, system, report = case_data
    nbrs = canonical_neighbors(group, system, count=2)
    assert len(nbrs) == 2
    (c1, w1), (c2, w2) = nbrs
    assert c1 == report.neighbor_center
    assert report.entries[0].element.word == w1.word != w2.word
    other = adjacency_isometries(group, system, neighbor=nbrs[1])
    assert other.neighbor_center == c2
    assert other.entries[0].element.word == w2.word
    assert (other.total, other.elliptic, other.hyperbolic) == \
        (report.total, report.elliptic, report.hyperbolic)


def _reference_neighbors(group, system, count):
    """The neighbour choice as it was made from a word ball: the orbit of the
    cell centre in the radius-5 ball (``cell_tiling``), ranked by distance,
    then disc coordinates, each with its first witness in ball order."""
    c0 = system.cell_center
    ranked = []
    for p, el in cell_tiling(group, c0, 5):
        d = distance(p, c0)
        if d < config.EPS_PT:
            continue
        ranked.append(((round(d, 9), round(p.real, 9), round(p.imag, 9)),
                       p, el))
    ranked.sort(key=lambda item: item[0])
    chosen = []
    for _, p, el in ranked:
        geo = hyp2.geodesic_through(c0, p)
        lo, hi = sorted((hyp2.axis_parameter(geo, c0), hyp2.axis_parameter(geo, p)))
        ts = trigroup._meetings(geo, lifts_along(group, system, (c0, p)))[1]
        if trigroup._clusters([t for t in ts if lo + 1e-9 < t < hi - 1e-9]) == 1:
            chosen.append((p, el))
            if len(chosen) == count:
                break
    return chosen


def test_neighbors_match_the_ball_reference(case_data):
    _, group, system, _ = case_data
    got = canonical_neighbors(group, system, count=2)
    expected = _reference_neighbors(group, system, 2)
    assert [(p.real.hex(), p.imag.hex(), el.word) for p, el in got] == \
        [(p.real.hex(), p.imag.hex(), el.word) for p, el in expected]


def test_disc_candidates_are_the_ball_orbit_points_within_reach(case_data):
    # Every orbit point of the cell centre within D in the radius-8 ball is
    # a candidate of the disc of tiles, and the disc has no other.  Each
    # candidate's tile carries the cell centre to it, bit for bit.
    _, group, system, _ = case_data
    c0 = system.cell_center
    reach, candidates = trigroup._disc_candidates(group, system)
    ball = [(p.real, p.imag) for p, _ in cell_tiling(group, c0, 8)
            if config.EPS_PT <= distance(p, c0) <= reach + 1e-9]
    disc = [(p.real, p.imag) for p, _ in candidates]
    assert len(disc) == len(ball) >= 2
    for p, tile in candidates:
        q = apply(tile.matrix, c0)
        assert (q.real.hex(), q.imag.hex()) == (p.real.hex(), p.imag.hex())

    def matched(a, b):
        return all(any(max(abs(x - u), abs(y - v)) < 1e-9 for u, v in b)
                   for x, y in a)
    assert matched(disc, ball) and matched(ball, disc)


def test_neighbour_search_without_lifts_raises(monkeypatch, capsys,
                                               tmp_path):
    # With no curve lift along any segment no candidate is adjacent: the
    # search raises, and verify and tiling exit 2 with one error line that
    # names the case once.
    monkeypatch.setattr(trigroup, "lifts_along", lambda *args: ())
    group = build_group(*CASE_TRIPLES[237])
    with pytest.raises(EnumerationError, match="^0 of 1 adjacent"):
        canonical_neighbors(group, curve_system(237), count=1)
    for argv, start in (
            (["verify", "--case", "237"],
             "error: enumeration (trigroup): case 237, adjacency: "),
            (["tiling", "--case", "237", "--out", str(tmp_path / "t.svg")],
             "error: enumeration (trigroup): case 237: ")):
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        [line] = err.splitlines()
        assert line.startswith(start + "0 of 1 adjacent tiles")
        assert line.count("case 237") == 1
        assert "Traceback" not in out + err


CROSSING_EXPECTED = {246: 1, 344: 1, 334: 2, 237: 2, 245: 1}


def crossings(group, system, m):
    """Crossings per period of the axis of m with the curve lifts."""
    return trigroup._axis_meetings(group, system, m)[1]


def test_crossing_counts(case_data):
    case, group, system, report = case_data
    for entry in report.entries:
        if entry.classification.kind is IsometryKind.HYPERBOLIC:
            assert entry.crossing == CROSSING_EXPECTED[case]


def test_crossing_period_doubling(case_data):
    case, group, system, report = case_data
    entry = next(e for e in report.entries
                 if e.classification.kind is IsometryKind.HYPERBOLIC)
    g = entry.element.matrix
    assert crossings(group, system, g.compose(g)) == 2 * entry.crossing


def test_crossing_conjugacy_invariance(case_data):
    case, group, system, report = case_data
    entry = next(e for e in report.entries
                 if e.classification.kind is IsometryKind.HYPERBOLIC)
    g = entry.element.matrix
    for w in enumerate_elements(group, 2)[1:5]:
        conj = w.matrix.compose(g).compose(w.matrix.inverse())
        assert crossings(group, system, conj) == entry.crossing


def test_crossing_rejects_elliptic():
    group = build_group(2, 3, 7)
    system = curve_system(237)
    with pytest.raises(hyp2.GeometryError):
        crossings(group, system, group.gP)


@pytest.mark.parametrize("case", CASES)
def test_stabilizer_order_is_the_centre_cone_order(case):
    group = build_group(*CASE_TRIPLES[case])
    system = curve_system(case)
    name = next(n for n in "PQR" if group.vertex(n) == system.cell_center)
    assert system.stabilizer_order == CASE_TRIPLES[case]["PQR".index(name)]


def _tube_paths(group, system, report):
    """The paths the adjacency stage searches tubes along: the neighbour
    segment, and one period of each hyperbolic axis and of its conjugates
    by short words."""
    c0 = system.cell_center
    paths = [(c0, report.neighbor_center)]
    for entry in report.entries:
        if entry.classification.kind is not IsometryKind.HYPERBOLIC:
            continue
        g = entry.element.matrix
        for w in (hyp2.Isometry.identity(),
                  *(el.matrix for el in enumerate_elements(group, 2)[1:5])):
            m = w.compose(g).compose(w.inverse())
            x0 = trigroup.foot_of_perpendicular(hyp2.axis_of(m), c0)
            paths.append((c0, x0, apply(m, x0)))
    return paths


def _meeting(lifts, path):
    """The lifts that meet the closed polyline, as dedup vectors."""
    out = []
    for lift in lifts:
        for a, b in zip(path, path[1:]):
            if distance(a, b) < 1e-9:
                continue
            seg = hyp2.geodesic_through(a, b)
            if hyp2.same_geodesic(lift, seg, 1e-7):
                break
            crossing = hyp2.geodesic_crossing(lift, seg)
            if crossing is None:
                continue
            t = hyp2.axis_parameter(seg, crossing[0])
            if (hyp2.axis_parameter(seg, a) - 1e-9 <= t
                    <= hyp2.axis_parameter(seg, b) + 1e-9):
                break
        else:
            continue
        out.append(trigroup._geodesic_vec(lift.u, lift.v))
    return out


def _holds(lifts, wanted):
    """Whether every vector of `wanted` has one within 1e-9 in `lifts`."""
    return all(any(max(abs(x - y) for x, y in zip(a, b)) <= 1e-9 for b in lifts)
               for a in wanted)


def _same_lifts(first, second):
    return len(first) == len(second) and _holds(second, first)


def _tube_meetings(group, system, report):
    return [_meeting(lifts_along(group, system, path), path)
            for path in _tube_paths(group, system, report)]


def test_tube_lifts_meeting_a_path_match_the_word_ball(case_data):
    # Along the neighbour segment and one period of each hyperbolic axis and
    # of its conjugates, the tube finds exactly the lifts of the radius-8
    # ball that meet the path, and at least one.
    case, group, system, report = case_data
    ball_lifts = curve_lifts(case, 8)
    paths = _tube_paths(group, system, report)
    assert len(paths) == 1 + 5 * report.hyperbolic
    for path, found in zip(paths, _tube_meetings(group, system, report)):
        assert found
        assert _same_lifts(found, _meeting(ball_lifts, path))


def _distance_to_path(q, path):
    best = math.inf
    for a, b in zip(path, path[1:]):
        best = min(best, distance(q, a), distance(q, b))
        if distance(a, b) < 1e-9:
            continue
        seg = hyp2.geodesic_through(a, b)
        t = hyp2.axis_parameter(seg, q)
        if hyp2.axis_parameter(seg, a) <= t <= hyp2.axis_parameter(seg, b):
            best = min(best, distance(q, hyp2.foot_on_axis(seg, t)))
    return best


def test_tube_holds_every_tile_within_its_radius(case_data):
    # Every element of the radius-6 ball whose tile point lies within rho of
    # a path (distances to the segments taken directly) gives its lifts to
    # the tube, so the breadth-first search reaches the whole tube.
    _, group, system, report = case_data
    o, rho = trigroup._tile_point(group)[0], trigroup._tube(group, system)
    ball = enumerate_elements(group, 6)
    for path in _tube_paths(group, system, report):
        near = [el.matrix for el in ball
                if _distance_to_path(apply(el.matrix, o), path) < rho]
        found = [trigroup._geodesic_vec(g.u, g.v)
                 for g in lifts_along(group, system, path)]
        expected = [trigroup._geodesic_vec(g.u, g.v)
                    for g in trigroup._orbit_lifts(near, system.base_geodesics)]
        assert near and _holds(found, expected)


def _scale_tube_radius(monkeypatch, factor):
    real = trigroup._tube
    monkeypatch.setattr(trigroup, "_tube",
                        lambda g, s: factor * real(g, s))


def test_doubled_tube_radius_finds_no_more_lifts(case_data, monkeypatch):
    _, group, system, report = case_data
    expected = _tube_meetings(group, system, report)
    _scale_tube_radius(monkeypatch, 2.0)
    doubled = _tube_meetings(group, system, report)
    assert all(_same_lifts(a, b) for a, b in zip(expected, doubled))


def test_quarter_tube_radius_misses_lifts(monkeypatch):
    # The derived radius is not slack everywhere: at a quarter of it some
    # path of some case loses a lift that meets it.
    setups = []
    for case in CASES:
        group = build_group(*CASE_TRIPLES[case])
        system = curve_system(case)
        report = adjacency_isometries(group, system)
        setups.append((group, system, report,
                       _tube_meetings(group, system, report)))
    _scale_tube_radius(monkeypatch, 0.25)
    assert any(not _same_lifts(a, b)
               for group, system, report, expected in setups
               for a, b in zip(expected, _tube_meetings(group, system, report)))
