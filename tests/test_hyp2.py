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
    lam = 1.7
    g = Isometry(lam, 0.0, 0.0, 1 / lam)
    ax = axis_of(g)
    assert ax.u == 0.0 and math.isinf(ax.v)
    rev = axis_of(g.inverse())
    assert math.isinf(rev.u) and rev.v == 0.0


def test_axis_endpoints_fixed():
    g = rotation_about(HPoint(0, 1), math.pi).compose(
        rotation_about(HPoint(1.0, 1.0), math.pi))
    cls = classify(g)
    assert cls.kind is IsometryKind.HYPERBOLIC
    ax = axis_of(g)
    for t in (ax.u, ax.v):
        assert abs(g.boundary_image(t) - t) < 1e-7


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
    for s in (t, 0.0, math.inf, -g.d / g.c if g.c else t):
        assert _same_bits([h.boundary_image(s)], [g.boundary_image(s)])
    geo = (hyp2.geodesic_through(p, q) if distance(p, q) > 1e-6
           else hyp2.Geodesic(-1.0, 1.0))
    a, b = (hyp2.apply_geodesic(m, geo) for m in (h, g))
    assert _same_bits([a.u, a.v], [b.u, b.v])
    assert hyp2.is_identity(h) == hyp2.is_identity(g)
    ch, cg = classify(h), classify(g)
    assert ch.kind is cg.kind
    if cg.kind is IsometryKind.HYPERBOLIC:
        assert _same_bits([ch.translation_length], [cg.translation_length])
        a, b = axis_of(h), axis_of(g)
        assert _same_bits([a.u, a.v], [b.u, b.v])


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


def test_parameter_roundtrip_on_geodesics():
    geo = hyp2.Geodesic(-1.3, 2.8)
    for t in (-2.0, -0.3, 0.0, 1.1, 2.7):
        p = hyp2.foot_on_axis(geo, t)
        assert abs(hyp2.axis_parameter(geo, p) - t) < 1e-9


def test_geodesic_crossing_perpendicular():
    g1 = hyp2.Geodesic(-1.0, 1.0)
    g2 = hyp2.Geodesic(0.0, math.inf)
    crossing = hyp2.geodesic_crossing(g1, g2)
    assert crossing is not None
    z, angle = crossing
    assert abs(z.x) < 1e-12 and abs(z.y - 1.0) < 1e-12
    assert abs(angle - math.pi / 2) < 1e-9


def test_geodesic_crossing_disjoint_or_equal():
    g = hyp2.Geodesic(0.0, 1.0)
    assert hyp2.geodesic_crossing(g, hyp2.Geodesic(2.0, 3.0)) is None
    assert hyp2.geodesic_crossing(g, g) is None
    assert hyp2.geodesic_crossing(g, hyp2.Geodesic(1.0, 0.0)) is None


def _crossing_pair(ends, vertical, flips):
    """Two geodesics on four ideal points a < b < c < d, a to c and b to d,
    so their ends interleave; d is INF when `vertical`, and each is reversed
    as `flips` says."""
    a, b, c, d = sorted(ends)
    pairs = [(a, c), (b, math.inf if vertical else d)]
    return [hyp2.Geodesic(*(pair[::-1] if flip else pair))
            for pair, flip in zip(pairs, flips)]


def _on_geodesic(p, geo):
    return distance(p, trigroup.foot_of_perpendicular(geo, p)) < 1e-9


# Four ideal points at least 0.1 apart, and an isometry that moves i by at
# most a few units, so that every crossing stays well inside the disc.
crossing_ends = st.lists(st.floats(-4, 4, allow_nan=False), min_size=4,
                         max_size=4).filter(
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
def test_geodesic_crossing_lies_on_both_and_is_invariant(ends, vertical,
                                                         flips, g):
    A, B = _crossing_pair(ends, vertical, flips)
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
        hyp2.apply_geodesic(g, hyp2.Geodesic(-1.0, 1.0)),
        hyp2.apply_geodesic(g, hyp2.Geodesic(0.0, math.inf)))
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
    read as atan2 angles of their disc boundary points."""
    tau = 2.0 * math.pi
    a1, b1, a2, b2 = (math.atan2(w.imag, w.real) % tau
                      for w in map(hyp2.boundary_point, (g1.u, g1.v, g2.u, g2.v)))
    arc = (b1 - a1) % tau
    return ((a2 - a1) % tau < arc) != ((b2 - a1) % tau < arc)


# Four distinct ideal points, INF in the place the index names (none at 4).
ideal_ends = st.builds(
    lambda xs, k: [hyp2.INF if i == k else x for i, x in enumerate(xs)],
    st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=4, max_size=4,
             unique=True),
    st.integers(0, 4))


@given(ideal_ends)
@settings(max_examples=200, deadline=None)
def test_geodesic_crossing_iff_the_ends_interleave(ends):
    # Distinct ideal ends, INF among them: a crossing is found exactly when
    # the boundary-angle reference says the ends interleave, never for a
    # geodesic against itself or its reversal, and it lies on both.  The
    # normals read the ends as circle points: a chord whose ends are D apart
    # has B(m, m) = (D²/2)², held to about eps/D² relative, so the ends are
    # kept 1e-6 apart.  The point is the Klein solve's, whose rounding grows
    # as e^(2d)/sin(angle) at distance d from i (1 - |k|² = sech² d), so the
    # bound is 1e-9 only near i.
    circle = [hyp2.boundary_point(t) for t in ends]
    assume(all(abs(p - q) > 1e-6 for p, q in itertools.combinations(circle, 2)))
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
