import cmath
import itertools
import math

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from orbiflow import config, hyp2, trigroup
from orbiflow.hyp2 import (HPoint, Isometry, IsometryKind, apply, axis_of,
                           classify, distance, rotation_about,
                           triangle_from_angles, GeometryError)


def law_of_cosines_side(ap, aq, ar):
    # Independent oracle: cosh(side PQ) from the three angles.
    return math.acosh((math.cos(ar) + math.cos(ap) * math.cos(aq))
                      / (math.sin(ap) * math.sin(aq)))


def angle_at(p, q, r):
    # Independent oracle: the angle at p of the triangle pqr from its three
    # side lengths, cosh d(q,r) = cosh a cosh b - sinh a sinh b cos(angle)
    # with a = d(p,q), b = d(p,r).
    a, b, c = distance(p, q), distance(p, r), distance(q, r)
    return math.acos((math.cosh(a) * math.cosh(b) - math.cosh(c))
                     / (math.sinh(a) * math.sinh(b)))


points = st.builds(HPoint,
                   st.floats(-3, 3, allow_nan=False),
                   st.floats(0.05, 5, allow_nan=False))


def iso_from_params(params):
    g = Isometry.identity()
    for (x, y, theta) in params:
        g = g.compose(rotation_about(HPoint(x, y), theta))
    return g


isometries = st.builds(
    iso_from_params,
    st.lists(st.tuples(st.floats(-2, 2, allow_nan=False),
                       st.floats(0.2, 3, allow_nan=False),
                       st.floats(-math.pi, math.pi, allow_nan=False)),
             min_size=1, max_size=4))


def test_apply_identity():
    p = HPoint(0.0, 1.0)
    assert distance(apply(Isometry.identity(), p), p) == 0.0


def test_half_turn_is_involution():
    g = rotation_about(HPoint(0.3, 0.8), math.pi)
    p = HPoint(-1.2, 2.5)
    q = apply(g, apply(g, p))
    assert distance(p, q) < 1e-9


def test_order7_rotation_returns_vertex():
    P, Q, R = triangle_from_angles(2, 3, 7)
    g = rotation_about(R, 2 * math.pi / 7)
    img = P
    for _ in range(7):
        img = apply(g, img)
    assert distance(img, P) < 1e-9


def test_distance_basics():
    p = HPoint(0.4, 1.3)
    assert distance(p, p) == 0.0
    assert abs(distance(HPoint(0, 1), HPoint(0, math.e)) - 1.0) < 1e-12
    q = HPoint(1.0, 2.0)
    assert abs(distance(p, q) - distance(q, p)) < 1e-15


@pytest.mark.parametrize("offset", (1e-12, 1e-11, 1e-10, 1e-9, 1e-8))
def test_distance_resolves_small_offsets(offset):
    # acosh(1 + |p - q|^2/(2 y1 y2)) reads 0.0 for offsets up to about
    # 1.4e-8, where the square falls below the rounding of 1; the thresholds
    # of 1e-9 and 1e-8 that distances are compared with need them resolved.
    # At y = 2 a horizontal offset h is 2 asinh(h/4) ~ h/2 away, a vertical
    # one log(1 + h/2) ~ h/2.
    p = HPoint(0.3, 2.0)
    for q in (HPoint(0.3 + offset, 2.0), HPoint(0.3, 2.0 + offset)):
        assert distance(p, q) == pytest.approx(offset / 2.0, rel=1e-6)
        assert distance(q, p) == pytest.approx(offset / 2.0, rel=1e-6)


@pytest.mark.parametrize("triple", [(2, 3, 7), (2, 4, 5), (2, 4, 6),
                                    (3, 3, 4), (3, 4, 4)])
def test_triangle_sides_match_law_of_cosines(triple):
    p, q, r = triple
    P, Q, R = triangle_from_angles(p, q, r)
    expect = law_of_cosines_side(math.pi / p, math.pi / q, math.pi / r)
    assert abs(distance(P, Q) - expect) < 1e-12


@pytest.mark.parametrize("triple", [(2, 3, 7), (2, 4, 5), (2, 4, 6),
                                    (3, 3, 4), (3, 4, 4)])
def test_triangle_angles(triple):
    p, q, r = triple
    P, Q, R = triangle_from_angles(p, q, r)
    assert abs(angle_at(P, Q, R) - math.pi / p) < 1e-7
    assert abs(angle_at(Q, R, P) - math.pi / q) < 1e-7
    assert abs(angle_at(R, P, Q) - math.pi / r) < 1e-7


def test_isoceles_symmetric_angles():
    # Equal angle parameters at Q and R give equal base angles.
    P, Q, R = triangle_from_angles(3, 4, 4)
    assert abs(angle_at(Q, R, P) - angle_at(R, P, Q)) < 1e-7
    assert abs(angle_at(Q, R, P) - math.pi / 4) < 1e-7


def test_non_hyperbolic_triple_rejected():
    with pytest.raises(GeometryError):
        triangle_from_angles(2, 3, 6)


def test_rotation_zero_is_identity():
    g = rotation_about(HPoint(0.7, 1.1), 0.0)
    assert hyp2.is_identity(g)


def test_rotation_trace():
    P, Q, R = triangle_from_angles(2, 3, 7)
    g = rotation_about(R, 2 * math.pi / 7)
    cls = classify(g)
    assert cls.kind is IsometryKind.ELLIPTIC
    assert abs(abs(g.trace()) - 2 * math.cos(math.pi / 7)) < 1e-12


def test_classify_identity_and_elliptic():
    assert classify(Isometry.identity()).kind is IsometryKind.IDENTITY
    g = rotation_about(HPoint(0, 1), 2 * math.pi / 3)
    assert classify(g).kind is IsometryKind.ELLIPTIC


def test_axis_of_diagonal():
    # z -> lam²·z repels from 0 and attracts to infinity: in the disc, from
    # -1 to 1.
    lam = 1.7
    g = Isometry(lam, 0.0, 0.0, 1 / lam)
    ax = axis_of(g)
    assert abs(ax.u + 1.0) < 1e-12 and abs(ax.v - 1.0) < 1e-12
    rev = axis_of(g.inverse())
    assert abs(rev.u - 1.0) < 1e-12 and abs(rev.v + 1.0) < 1e-12


def test_axis_endpoints_fixed():
    g = rotation_about(HPoint(0, 1), math.pi).compose(
        rotation_about(HPoint(1.0, 1.0), math.pi))
    cls = classify(g)
    assert cls.kind is IsometryKind.HYPERBOLIC
    ax = axis_of(g)
    ab = hyp2.disc_entries(g.entries())
    for w in (ax.u, ax.v):
        assert abs(abs(w) - 1.0) < 1e-12
        assert abs(hyp2.circle_image(ab, w) - w) < 1e-7


# Hyperbolic elements: products of rotations, and diagonal matrices (whose
# axis is the vertical line through 0) moved by a rotation about i or not.
hyperbolics = st.one_of(
    st.builds(iso_from_params,
              st.lists(st.tuples(st.floats(-1, 1, allow_nan=False),
                                 st.floats(0.5, 2, allow_nan=False),
                                 st.floats(-math.pi, math.pi,
                                           allow_nan=False)),
                       min_size=2, max_size=3)),
    st.builds(lambda lam, sign, theta: rotation_about(
                  HPoint(0.0, 1.0), theta).compose(
                  Isometry(sign * lam, 0.0, 0.0, sign / lam)),
              st.floats(1.05, 5.0), st.sampled_from((1.0, -1.0)),
              st.sampled_from((0.0, 0.0, 0.7, -2.0))),
).filter(lambda g: classify(g).kind is IsometryKind.HYPERBOLIC
         and classify(g).translation_length < 4.0)


@given(hyperbolics)
@settings(max_examples=200, deadline=None)
@example(Isometry(1.7, 0.0, 0.0, 1 / 1.7))
@example(Isometry(2.0, 1.0, 1.0, 1.0))
def test_axis_runs_from_repelling_to_attracting(g):
    # g moves the points of its axis forward along it by its translation
    # length: the axis runs from the repelling end to the attracting one,
    # whatever the matrix.
    ax = axis_of(g)
    assume(distance(HPoint(0.0, 1.0), hyp2.foot_on_axis(ax, 0.0)) < 3.0)
    t = hyp2.axis_parameter(ax, apply(g, hyp2.foot_on_axis(ax, 0.0)))
    assert abs(t - classify(g).translation_length) < 1e-9


def test_axis_rejects_elliptic():
    with pytest.raises(GeometryError):
        axis_of(rotation_about(HPoint(0, 1), 1.0))


def test_trace_conjugation_invariance():
    g = rotation_about(HPoint(0.2, 1.4), 2.1)
    k = rotation_about(HPoint(-1, 0.5), 0.7)
    conj = k.compose(g).compose(k.inverse())
    assert abs(abs(conj.trace()) - abs(g.trace())) < 1e-9


@given(isometries, points)
@settings(max_examples=150, deadline=None)
def test_action_preserves_halfplane(g, p):
    q = apply(g, p)
    assert q.y > 0


@given(isometries, isometries, points)
@settings(max_examples=150, deadline=None)
@example(g=iso_from_params([(0.0, 0.25, -1.0), (2.0, 0.25, 2.0)]),
         h=iso_from_params([(0.0, 0.25, 2.0), (2.0, 0.201171875, 2.0),
                            (-2.0, 1.0, 3.0)]),
         p=HPoint(0.0, 0.0546875))
def test_action_is_homomorphism(g, h, p):
    lhs = apply(g.compose(h), p)
    rhs = apply(g, apply(h, p))
    # Near the boundary one float step in x is a hyperbolic distance of
    # ulp(x)/y: the pinned example lands at y = 8.8e-10, where the two sides,
    # 2 ulps apart in x, are 1.26e-7 apart.  Allow a few such steps.
    spacing = math.ulp(max(abs(lhs.x), abs(rhs.x))) / min(lhs.y, rhs.y)
    assert distance(lhs, rhs) < 1e-7 + 4.0 * spacing


def _reference_compose(g, h):
    # The plain matrix product written out: no sign is chosen.
    return (g.a * h.a + g.b * h.c, g.a * h.b + g.b * h.d,
            g.c * h.a + g.d * h.c, g.c * h.b + g.d * h.d)


def _bits(xs):
    return [x.hex() for x in xs]


@given(isometries, isometries)
@settings(max_examples=150, deadline=None)
def test_compose_kernel_matches_compose_bitwise(g, h):
    kernel = hyp2.compose_entries(g.entries(), h.entries())
    expect = _reference_compose(g, h)
    assert _bits(kernel) == _bits(expect)
    assert _bits(g.compose(h).entries()) == _bits(expect)
    inv = hyp2.inverse_entries(g.entries())
    assert _bits(inv) == _bits(g.inverse().entries())
    assert _bits(inv) == _bits((g.d, -g.b, -g.c, g.a))


def _same_bits(xs, ys):
    # Bit-identical floats, -0.0 read as 0.0 (adding 0.0 clears the sign of
    # a zero): a zero entry of M may come out as -0.0 in a formula on -M.
    return [(x + 0.0).hex() for x in xs] == [(y + 0.0).hex() for y in ys]


def _end_parts(geo):
    return [geo.u.real, geo.u.imag, geo.v.real, geo.v.imag]


@given(isometries, points, st.floats(-5, 5, allow_nan=False), points)
@example(Isometry.identity(), HPoint(0.0, 1.0), 0.0, HPoint(0.5, 2.0))
@example(Isometry(2.0, 0.3, 0.0, 0.5), HPoint(0.0, 1.0), 0.0,
         HPoint(0.5, 2.0))  # hyperbolic with a vertical axis
@settings(max_examples=150, deadline=None)
def test_every_action_reads_m_and_minus_m_alike_bitwise(g, p, t, q):
    # Products choose no sign, so M and -M both reach these formulas; each
    # gives bit-identical results on them, but for the sign of a zero (IEEE
    # negation is exact).
    h = Isometry(-g.a, -g.b, -g.c, -g.d)
    w, v = (hyp2.mobius(m.entries(), p.as_complex()) for m in (h, g))
    assert _same_bits([w.real, w.imag], [v.real, v.imag])
    for s in (cmath.rect(1.0, t), 1.0 + 0.0j, -1.0 + 0.0j, 1j,
              hyp2.cayley(p.as_complex())):
        w, v = (hyp2.circle_image(hyp2.disc_entries(m.entries()), s)
                for m in (h, g))
        assert _same_bits([w.real, w.imag], [v.real, v.imag])
    geo = (hyp2.geodesic_through(p, q) if distance(p, q) > 1e-6
           else hyp2.Geodesic(-1.0 + 0.0j, 1.0 + 0.0j))
    a, b = (hyp2.apply_geodesic(m, geo) for m in (h, g))
    assert _same_bits(_end_parts(a), _end_parts(b))
    assert hyp2.is_identity(h) == hyp2.is_identity(g)
    ch, cg = classify(h), classify(g)
    assert ch.kind is cg.kind
    if cg.kind is IsometryKind.HYPERBOLIC:
        assert _same_bits([ch.translation_length], [cg.translation_length])
        a, b = axis_of(h), axis_of(g)
        assert _same_bits(_end_parts(a), _end_parts(b))


def test_identity_test_is_projective():
    # Id and -Id both pass, within 100 * EPS_PT = 1e-7; the half-turn about
    # i and a shear 2e-7 off do not.
    for sign in (1.0, -1.0):
        assert hyp2.is_identity(Isometry(sign, 5e-8, -5e-8, sign))
    assert not hyp2.is_identity(Isometry(0.0, 1.0, -1.0, 0.0))
    assert not hyp2.is_identity(Isometry(1.0, 2e-7, 0.0, 1.0))


@given(isometries, points, points)
@settings(max_examples=150, deadline=None)
def test_distance_invariance(g, p, q):
    assert abs(distance(apply(g, p), apply(g, q)) - distance(p, q)) < 1e-7


@pytest.mark.parametrize("n", [2, 3, 4, 5, 7])
def test_rotation_orders_sharp(n):
    g = rotation_about(HPoint(0.1, 0.9), 2 * math.pi / n)
    acc = Isometry.identity()
    for k in range(1, n):
        acc = acc.compose(g)
        assert not hyp2.is_identity(acc)
    assert hyp2.is_identity(acc.compose(g))


def _point_near_i(d, theta):
    """The point at distance d from i in the direction theta."""
    return apply(rotation_about(HPoint(0.0, 1.0), theta),
                 HPoint(0.0, math.exp(d)))


near_i = st.builds(_point_near_i, st.floats(0, 6),
                   st.floats(-math.pi, math.pi))


def _above(p, s):
    return HPoint(p.x, p.y * math.exp(s))


# Pairs p, q within distance 6 of i, some of them with q straight above or
# below p (a vertical geodesic in the half-plane).
point_pairs = st.one_of(
    st.tuples(near_i, near_i),
    st.builds(lambda p, s: (p, _above(p, s)), near_i, st.floats(-3, 3)),
).filter(lambda pq: distance(*pq) > 1e-6
         and distance(HPoint(0.0, 1.0), pq[1]) <= 6.0)


@given(point_pairs, near_i)
@settings(max_examples=300, deadline=None)
@example((HPoint(0.0, 1.0), HPoint(0.0, 2.0)), HPoint(1.0, 1.0))
@example((HPoint(0.3, 2.0), HPoint(0.3, 0.5)), HPoint(-1.0, 0.2))
def test_chord_parameter_is_arclength(pq, x):
    # Along the geodesic through p then q the parameter grows by the
    # distance from p to q, foot_on_axis inverts it, and the foot of a point
    # x is no farther from x than the points of the geodesic beside it.
    p, q = pq
    geo = hyp2.geodesic_through(p, q)
    tp, tq = hyp2.axis_parameter(geo, p), hyp2.axis_parameter(geo, q)
    assert abs(tq - tp - distance(p, q)) < 1e-9
    for point, t in ((p, tp), (q, tq)):
        assert distance(hyp2.foot_on_axis(geo, t), point) < 1e-9
    for t in (tp, tq, 0.5 * (tp + tq), 0.0):
        assert abs(hyp2.axis_parameter(geo, hyp2.foot_on_axis(geo, t)) - t) \
            < 1e-9
    tx = hyp2.axis_parameter(geo, x)
    gap = distance(x, trigroup.foot_of_perpendicular(geo, x))
    for t in (tx - 1e-3, tx + 1e-3):
        assert gap <= distance(x, hyp2.foot_on_axis(geo, t))


def test_geodesic_crossing_perpendicular():
    # The half-plane geodesics from 1 to -1 and from 0 to infinity.
    g1 = hyp2.Geodesic(-1j, 1j)
    g2 = hyp2.Geodesic(-1.0 + 0.0j, 1.0 + 0.0j)
    crossing = hyp2.geodesic_crossing(g1, g2)
    assert crossing is not None
    z, angle = crossing
    assert abs(z.x) < 1e-12 and abs(z.y - 1.0) < 1e-12
    assert abs(angle - math.pi / 2) < 1e-9


def _circle(*angles):
    return [cmath.rect(1.0, theta) for theta in angles]


def test_geodesic_crossing_disjoint_or_equal():
    g = hyp2.Geodesic(*_circle(0.1, 1.0))
    assert hyp2.geodesic_crossing(g, hyp2.Geodesic(*_circle(2.0, 3.0))) is None
    assert hyp2.geodesic_crossing(g, g) is None
    assert hyp2.geodesic_crossing(g, hyp2.Geodesic(g.v, g.u)) is None


def _crossing_pair(ends, one, flips):
    """Two geodesics on four circle angles a < b < c < d, a to c and b to d,
    so their ends interleave; the end at d is exactly 1 when `one`, and each
    is reversed as `flips` says."""
    a, b, c, d = _circle(*sorted(ends))
    pairs = [(a, c), (b, 1.0 + 0.0j if one else d)]
    return [hyp2.Geodesic(*(pair[::-1] if flip else pair))
            for pair, flip in zip(pairs, flips)]


def _on_geodesic(p, geo):
    return distance(p, trigroup.foot_of_perpendicular(geo, p)) < 1e-9


# Four circle angles in (-2pi, 0) at least 0.1 apart (the largest one then
# sits at 1 on the circle, or at least 0.1 below it), and an isometry that
# moves i by at most a few units, so that every crossing stays well inside
# the disc.
crossing_ends = st.lists(st.floats(-2 * math.pi + 0.1, -0.1, allow_nan=False),
                         min_size=4, max_size=4).filter(
    lambda xs: min(b - a for a, b in zip(sorted(xs), sorted(xs)[1:])) > 0.1)
moves = st.builds(
    iso_from_params,
    st.lists(st.tuples(st.floats(-1, 1, allow_nan=False),
                       st.floats(0.5, 2, allow_nan=False),
                       st.floats(-math.pi, math.pi, allow_nan=False)),
             min_size=1, max_size=2))


@given(crossing_ends, st.booleans(), st.tuples(st.booleans(), st.booleans()),
       moves)
@settings(max_examples=200, deadline=None)
def test_geodesic_crossing_lies_on_both_and_is_invariant(ends, one, flips,
                                                         g):
    A, B = _crossing_pair(ends, one, flips)
    crossing = hyp2.geodesic_crossing(A, B)
    assert crossing is not None
    z, angle = crossing
    assert _on_geodesic(z, A) and _on_geodesic(z, B)
    assert 0 < angle <= math.pi / 2
    moved = hyp2.geodesic_crossing(hyp2.apply_geodesic(g, A),
                                   hyp2.apply_geodesic(g, B))
    assert moved is not None
    assert distance(moved[0], apply(g, z)) < 1e-9
    assert abs(moved[1] - angle) < 1e-9
    # The perpendicular pair through i stays perpendicular, crossing at g·i.
    z, angle = hyp2.geodesic_crossing(
        hyp2.apply_geodesic(g, hyp2.Geodesic(-1j, 1j)),
        hyp2.apply_geodesic(g, hyp2.Geodesic(-1.0 + 0.0j, 1.0 + 0.0j)))
    assert distance(z, apply(g, HPoint(0.0, 1.0))) < 1e-9
    assert abs(angle - math.pi / 2) < 1e-9


def test_thresholds_are_read_at_call_time(monkeypatch):
    # The decisions read config's thresholds when they run, not a value bound
    # at import, so raising one moves a decision at once.
    shear = Isometry(1.0, 1e-6, 0.0, 1.0)  # parabolic, 1e-6 from the identity
    assert classify(shear).kind is IsometryKind.PARABOLIC
    monkeypatch.setattr(config, "EPS_PT", 1e-7)  # identity test at 1e-5
    assert classify(shear).kind is IsometryKind.IDENTITY
    turn = rotation_about(HPoint(0.0, 1.0), 2e-3)  # |tr| = 2 - 1e-6
    assert classify(turn).kind is IsometryKind.ELLIPTIC
    monkeypatch.setattr(config, "EPS_BAND", 1e-5)
    assert classify(turn).kind is IsometryKind.PARABOLIC


def _angles_interleave(g1, g2):
    """The boundary-angle reference for crossing: exactly one end of g2 lies
    on the counterclockwise arc from g1's first end to its second, the ends
    read as atan2 angles of their circle points."""
    tau = 2.0 * math.pi
    a1, b1, a2, b2 = (math.atan2(w.imag, w.real) % tau
                      for w in (g1.u, g1.v, g2.u, g2.v))
    arc = (b1 - a1) % tau
    return ((a2 - a1) % tau < arc) != ((b2 - a1) % tau < arc)


# Four circle points at distinct angles, exactly 1 in the place the index
# names (none at 4).
circle_ends = st.builds(
    lambda xs, k: [1.0 + 0.0j if i == k else w
                   for i, w in enumerate(_circle(*xs))],
    st.lists(st.floats(-math.pi, math.pi, allow_nan=False), min_size=4,
             max_size=4, unique=True),
    st.integers(0, 4))


@given(circle_ends)
@settings(max_examples=200, deadline=None)
def test_geodesic_crossing_iff_the_ends_interleave(ends):
    # Distinct circle ends, 1 among them: a crossing is found exactly when
    # the boundary-angle reference says the ends interleave, never for a
    # geodesic against itself or its reversal, and it lies on both.  The
    # normals read the ends as circle points: a chord whose ends are D apart
    # has B(m, m) = (D²/2)², held to about eps/D² relative, so the ends are
    # kept 1e-6 apart.  The point is the Klein solve's, whose rounding grows
    # as e^(2d)/sin(angle) at distance d from i (1 - |k|² = sech² d), so the
    # bound is 1e-9 only near i.
    assume(all(abs(p - q) > 1e-6 for p, q in itertools.combinations(ends, 2)))
    g1, g2 = hyp2.Geodesic(*ends[:2]), hyp2.Geodesic(*ends[2:])
    for g in (g1, g2):
        assert hyp2.geodesic_crossing(g, g) is None
        assert hyp2.geodesic_crossing(g, hyp2.Geodesic(g.v, g.u)) is None
    crossing = hyp2.geodesic_crossing(g1, g2)
    assert (crossing is not None) == _angles_interleave(g1, g2)
    if crossing is not None:
        z, angle = crossing
        d = distance(z, HPoint(0.0, 1.0))
        tol = max(1e-9, 1e-14 * math.exp(2.0 * d) / math.sin(angle))
        for g in (g1, g2):
            assert distance(z, trigroup.foot_of_perpendicular(g, z)) < tol
