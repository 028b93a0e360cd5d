import cmath
import itertools
import math

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from orbiflow import config, hyp2, trigroup
from orbiflow.hyp2 import (Isometry, IsometryKind, apply, axis_of, classify,
                           distance, rotation_about, triangle_from_angles,
                           GeometryError)

TRIPLES = [(2, 3, 7), (2, 4, 5), (2, 4, 6), (3, 3, 4), (3, 4, 4)]


# --- Half-plane references ------------------------------------------------
# The upper half-plane model, with real SL(2,R) matrices (a, b, c, d) acting
# by z -> (az + b)/(cz + d), and the Cayley map onto the disc: an independent
# oracle for the disc formulas.

def cayley(z):
    """(z - i)/(z + i): the closed half-plane onto the closed disc."""
    return (z - 1j) / (z + 1j)


def _hp_mobius(m, z):
    a, b, c, d = m
    return (a * z + b) / (c * z + d)


def _hp_product(m1, m2):
    a1, b1, c1, d1 = m1
    a2, b2, c2, d2 = m2
    return (a1 * a2 + b1 * c2, a1 * b2 + b1 * d2,
            c1 * a2 + d1 * c2, c1 * b2 + d1 * d2)


def _hp_rotation(z, theta):
    """The rotation by theta about i, (cos h, sin h; -sin h, cos h) with
    h = theta/2, conjugated by the transport (sqrt y, x/sqrt y; 0, 1/sqrt y)
    from i to z = x + iy."""
    h, r = theta / 2.0, math.sqrt(z.imag)
    rot = (math.cos(h), math.sin(h), -math.sin(h), math.cos(h))
    return _hp_product(_hp_product((r, z.real / r, 0.0, 1.0 / r), rot),
                       (1.0 / r, -z.real / r, 0.0, r))


def _hp_distance(p, q):
    return 2.0 * math.asinh(abs(p - q) / (2.0 * math.sqrt(p.imag * q.imag)))


def _hp_triangle(p, q, r):
    """The canonical triangle of the half-plane: P = i, Q east of P along
    the unit half-circle, R at angle pi/p counterclockwise from PQ."""
    ap, aq, ar = math.pi / p, math.pi / q, math.pi / r

    def point_at(direction, dist):
        turn = _hp_rotation(1j, direction - math.pi / 2.0)
        return _hp_mobius(turn, complex(0.0, math.exp(dist)))
    return (1j, point_at(0.0, law_of_cosines_side(ap, aq, ar)),
            point_at(ap, law_of_cosines_side(ap, ar, aq)))


def _disc_entries(m):
    """(alpha, beta) of the real matrix m conjugated into the disc by the
    Cayley map."""
    a, b, c, d = m
    return (complex(0.5 * (a + d), 0.5 * (b - c)),
            complex(0.5 * (a - d), -0.5 * (b + c)))


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


# Points of the disc: the Cayley images of half-plane points x + iy.
halfplane_points = st.builds(complex, st.floats(-3, 3, allow_nan=False),
                             st.floats(0.05, 5, allow_nan=False))
points = halfplane_points.map(cayley)


def iso_from_params(params):
    """The product of the rotations by theta about the Cayley images of the
    half-plane points x + iy."""
    g = Isometry.identity()
    for (x, y, theta) in params:
        g = g.compose(rotation_about(cayley(complex(x, y)), theta))
    return g


rotation_params = st.lists(st.tuples(st.floats(-2, 2, allow_nan=False),
                                     st.floats(0.2, 3, allow_nan=False),
                                     st.floats(-math.pi, math.pi,
                                               allow_nan=False)),
                           min_size=1, max_size=4)
isometries = st.builds(iso_from_params, rotation_params)


def apply_geodesic(g, geo):
    """The image g·geo, its ends moved by the one kernel."""
    e = g.entries()
    return hyp2.Geodesic(hyp2.mobius(e, geo.u), hyp2.mobius(e, geo.v))


def test_apply_identity():
    p = 0.3 - 0.4j
    assert distance(apply(Isometry.identity(), p), p) == 0.0


def test_half_turn_is_involution():
    g = rotation_about(0.2 - 0.1j, math.pi)
    p = -0.5 + 0.6j
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
    p = 0.2 + 0.3j
    assert distance(p, p) == 0.0
    assert abs(distance(0.0j, complex(0.0, math.tanh(0.5))) - 1.0) < 1e-12
    q = -0.5 + 0.1j
    assert abs(distance(p, q) - distance(q, p)) < 1e-15


def test_distance_far_out_raises_a_typed_error():
    # On the diameter toward 1, tanh(d/2) rounds to 1 from d = 39 on, and
    # 1 - |w|^2 with it to 0: the distance raises GeometryError naming the
    # point, either way round, not ZeroDivisionError.  At d = 36 it reads.
    assert distance(0.0j, complex(math.tanh(18.0))) == \
        pytest.approx(36.0, abs=0.1)
    for d in (39, 40):
        w = complex(math.tanh(d / 2.0))
        assert w == 1.0
        for p, q in ((0.0j, w), (w, 0.0j), (w, w)):
            with pytest.raises(GeometryError, match=r"\(1\+0j\) rounds onto"):
                distance(p, q)


@pytest.mark.parametrize("offset", (1e-12, 1e-11, 1e-10, 1e-9, 1e-8))
def test_distance_resolves_small_offsets(offset):
    # acosh(1 + 2|p - q|^2/((1 - |p|^2)(1 - |q|^2))) reads 0.0 for offsets
    # up to about 1e-8, where the square falls below the rounding of 1; the
    # thresholds of 1e-9 and 1e-8 that distances are compared with need
    # them resolved.  At p = 0.6, where 1 - |p|^2 = 0.64, an offset h in
    # either direction is about 2h/0.64 = 3.125h away.  The offsets are
    # taken in disc coordinates: a Cayley step would round them away.
    p = 0.6 + 0.0j
    for q in (p + offset, p + offset * 1j):
        assert distance(p, q) == pytest.approx(3.125 * offset, rel=1e-6)
        assert distance(q, p) == pytest.approx(3.125 * offset, rel=1e-6)


@pytest.mark.parametrize("triple", TRIPLES)
def test_triangle_sides_match_law_of_cosines(triple):
    p, q, r = triple
    P, Q, R = triangle_from_angles(p, q, r)
    expect = law_of_cosines_side(math.pi / p, math.pi / q, math.pi / r)
    assert abs(distance(P, Q) - expect) < 1e-12


@pytest.mark.parametrize("triple", TRIPLES)
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
    g = rotation_about(0.3 + 0.2j, 0.0)
    assert hyp2.is_identity(g)


def test_rotation_trace():
    P, Q, R = triangle_from_angles(2, 3, 7)
    g = rotation_about(R, 2 * math.pi / 7)
    cls = classify(g)
    assert cls.kind is IsometryKind.ELLIPTIC
    assert abs(abs(g.trace()) - 2 * math.cos(math.pi / 7)) < 1e-12


def test_classify_identity_and_elliptic():
    assert classify(Isometry.identity()).kind is IsometryKind.IDENTITY
    g = rotation_about(0.0j, 2 * math.pi / 3)
    assert classify(g).kind is IsometryKind.ELLIPTIC


def _translation(t, sign=1.0):
    """(cosh t, sinh t), or its negative: the translation by 2t along the
    diameter from -1 to 1, which repels from -1 and attracts to 1."""
    return Isometry(complex(sign * math.cosh(t)), complex(sign * math.sinh(t)))


def test_axis_of_diagonal():
    g = _translation(0.53)
    ax = axis_of(g)
    assert abs(ax.u + 1.0) < 1e-12 and abs(ax.v - 1.0) < 1e-12
    rev = axis_of(g.inverse())
    assert abs(rev.u - 1.0) < 1e-12 and abs(rev.v + 1.0) < 1e-12


def test_axis_endpoints_fixed():
    g = rotation_about(0.0j, math.pi).compose(
        rotation_about(0.2 - 0.4j, math.pi))
    cls = classify(g)
    assert cls.kind is IsometryKind.HYPERBOLIC
    ax = axis_of(g)
    for w in (ax.u, ax.v):
        assert abs(abs(w) - 1.0) < 1e-12
        assert abs(apply(g, w) - w) < 1e-7


# Hyperbolic elements: products of rotations, and translations along the
# diameter from -1 to 1, moved by a rotation about 0 or not.
hyperbolics = st.one_of(
    st.builds(iso_from_params,
              st.lists(st.tuples(st.floats(-1, 1, allow_nan=False),
                                 st.floats(0.5, 2, allow_nan=False),
                                 st.floats(-math.pi, math.pi,
                                           allow_nan=False)),
                       min_size=2, max_size=3)),
    st.builds(lambda t, sign, theta: rotation_about(0.0j, theta).compose(
                  _translation(t, sign)),
              st.floats(0.05, 1.6), st.sampled_from((1.0, -1.0)),
              st.sampled_from((0.0, 0.0, 0.7, -2.0))),
).filter(lambda g: classify(g).kind is IsometryKind.HYPERBOLIC
         and classify(g).translation_length < 4.0)


@given(hyperbolics)
@settings(max_examples=200, deadline=None)
@example(_translation(0.53))
@example(Isometry(*_disc_entries((2.0, 1.0, 1.0, 1.0))))
def test_axis_runs_from_repelling_to_attracting(g):
    # g moves the points of its axis forward along it by its translation
    # length: the axis runs from the repelling end to the attracting one,
    # whatever the matrix.
    ax = axis_of(g)
    assume(distance(0.0j, hyp2.foot_on_axis(ax, 0.0)) < 3.0)
    t = hyp2.axis_parameter(ax, apply(g, hyp2.foot_on_axis(ax, 0.0)))
    assert abs(t - classify(g).translation_length) < 1e-9


def test_axis_rejects_elliptic():
    with pytest.raises(GeometryError):
        axis_of(rotation_about(0.0j, 1.0))


def test_trace_conjugation_invariance():
    g = rotation_about(0.1 + 0.2j, 2.1)
    k = rotation_about(-0.6 - 0.3j, 0.7)
    conj = k.compose(g).compose(k.inverse())
    assert abs(abs(conj.trace()) - abs(g.trace())) < 1e-9


@given(isometries, points)
@settings(max_examples=150, deadline=None)
def test_action_preserves_the_disc(g, p):
    assert abs(apply(g, p)) < 1.0


@given(isometries, isometries, points)
@settings(max_examples=150, deadline=None)
@example(g=iso_from_params([(0.0, 0.25, -1.0), (2.0, 0.25, 2.0)]),
         h=iso_from_params([(0.0, 0.25, 2.0), (2.0, 0.201171875, 2.0),
                            (-2.0, 1.0, 3.0)]),
         p=cayley(0.0546875j))
def test_action_is_homomorphism(g, h, p):
    lhs = apply(g.compose(h), p)
    rhs = apply(g, apply(h, p))
    # Near the circle one float step in w is a hyperbolic distance of
    # 2·ulp/(1 - |w|²): the pinned example lands within 1e-9 of the circle,
    # where the two sides, a few ulps apart, are about 1e-7 apart.  Allow a
    # few such steps.
    far = max(abs(lhs), abs(rhs))
    spacing = 2.0 * math.ulp(far) / (1.0 - far * far)
    assert distance(lhs, rhs) < 1e-7 + 4.0 * spacing


def _reference_compose(g, h):
    # The plain product of the 2x2 complex matrices (alpha beta; conj(beta)
    # conj(alpha)), written out: no sign is chosen.  Its second row is the
    # conjugate of its first, reversed.
    m = [[g.alpha, g.beta], [g.beta.conjugate(), g.alpha.conjugate()]]
    n = [[h.alpha, h.beta], [h.beta.conjugate(), h.alpha.conjugate()]]
    prod = [[m[i][0] * n[0][j] + m[i][1] * n[1][j] for j in range(2)]
            for i in range(2)]
    return prod[0][0], prod[0][1], prod[1][0], prod[1][1]


def _parts(zs):
    return [x for z in zs for x in (z.real, z.imag)]


def _bits(zs):
    return [x.hex() for x in _parts(zs)]


@given(isometries, isometries)
@settings(max_examples=150, deadline=None)
def test_compose_kernel_matches_compose_bitwise(g, h):
    kernel = hyp2.compose_entries(g.entries(), h.entries())
    alpha, beta, beta_bar, alpha_bar = _reference_compose(g, h)
    assert _bits(kernel) == _bits((alpha, beta))
    assert _same_bits(_parts((beta_bar, alpha_bar)),
                      _parts((beta.conjugate(), alpha.conjugate())))
    assert _bits(g.compose(h).entries()) == _bits((alpha, beta))
    inv = hyp2.inverse_entries(g.entries())
    assert _bits(inv) == _bits(g.inverse().entries())
    assert _bits(inv) == _bits((g.alpha.conjugate(), -g.beta))


def _same_bits(xs, ys):
    # Bit-identical floats, -0.0 read as 0.0 (adding 0.0 clears the sign of
    # a zero): a zero entry of M may come out as -0.0 in a formula on -M.
    return [(x + 0.0).hex() for x in xs] == [(y + 0.0).hex() for y in ys]


def _end_parts(geo):
    return [geo.u.real, geo.u.imag, geo.v.real, geo.v.imag]


@given(isometries, points, st.floats(-5, 5, allow_nan=False), points)
@example(Isometry.identity(), 0.0j, 0.0, 0.2 + 0.3j)
@example(_translation(0.53), 0.0j, 0.0, 0.2 + 0.3j)  # axis through 0
@settings(max_examples=150, deadline=None)
def test_every_action_reads_m_and_minus_m_alike_bitwise(g, p, t, q):
    # Products choose no sign, so M and -M both reach these formulas; each
    # gives bit-identical results on them, but for the sign of a zero (IEEE
    # negation is exact).  The one kernel moves points and ends alike.
    h = Isometry(-g.alpha, -g.beta)
    for s in (p, cmath.rect(1.0, t), 1.0 + 0.0j, -1.0 + 0.0j, 1j):
        w, v = (hyp2.mobius(m.entries(), s) for m in (h, g))
        assert _same_bits([w.real, w.imag], [v.real, v.imag])
    geo = (hyp2.geodesic_through(p, q) if distance(p, q) > 1e-6
           else hyp2.Geodesic(-1.0 + 0.0j, 1.0 + 0.0j))
    a, b = (apply_geodesic(m, geo) for m in (h, g))
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
    # 0 and a parabolic 2e-7 off do not.
    for sign in (1.0, -1.0):
        assert hyp2.is_identity(Isometry(sign * (1.0 + 5e-8j), sign * 5e-8j))
    assert not hyp2.is_identity(Isometry(1j, 0.0j))
    assert not hyp2.is_identity(Isometry(1.0 + 2e-7j, 2e-7j))


@given(isometries, points, points)
@settings(max_examples=150, deadline=None)
def test_distance_invariance(g, p, q):
    assert abs(distance(apply(g, p), apply(g, q)) - distance(p, q)) < 1e-7


@pytest.mark.parametrize("n", [2, 3, 4, 5, 7])
def test_rotation_orders_sharp(n):
    g = rotation_about(0.05 - 0.1j, 2 * math.pi / n)
    acc = Isometry.identity()
    for k in range(1, n):
        acc = acc.compose(g)
        assert not hyp2.is_identity(acc)
    assert hyp2.is_identity(acc.compose(g))


def _point_near_0(d, theta):
    """The point at signed distance d from 0 in the direction theta."""
    return cmath.rect(math.tanh(d / 2.0), theta)


near_0 = st.builds(_point_near_0, st.floats(0, 6),
                   st.floats(-math.pi, math.pi))


# Pairs p, q within distance 6 of 0, some of them on one diameter (a
# geodesic through 0).
point_pairs = st.one_of(
    st.tuples(near_0, near_0),
    st.builds(lambda d, theta, s: (_point_near_0(d, theta),
                                   _point_near_0(d + s, theta)),
              st.floats(0, 6), st.floats(-math.pi, math.pi),
              st.floats(-3, 3)),
).filter(lambda pq: distance(*pq) > 1e-6 and distance(0.0j, pq[1]) <= 6.0)


@given(point_pairs, near_0)
@settings(max_examples=300, deadline=None)
@example((cayley(1j), cayley(2j)), cayley(1 + 1j))
@example((cayley(0.3 + 2j), cayley(0.3 + 0.5j)), cayley(-1 + 0.2j))
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
    # The two diameters, crossing at 0.
    g1 = hyp2.Geodesic(-1j, 1j)
    g2 = hyp2.Geodesic(-1.0 + 0.0j, 1.0 + 0.0j)
    crossing = hyp2.geodesic_crossing(g1, g2)
    assert crossing is not None
    z, angle = crossing
    assert abs(z) < 1e-12
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
# moves 0 by at most a few units, so that every crossing stays well inside
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
    moved = hyp2.geodesic_crossing(apply_geodesic(g, A),
                                   apply_geodesic(g, B))
    assert moved is not None
    assert distance(moved[0], apply(g, z)) < 1e-9
    assert abs(moved[1] - angle) < 1e-9
    # The perpendicular pair through 0 stays perpendicular, crossing at g·0.
    z, angle = hyp2.geodesic_crossing(
        apply_geodesic(g, hyp2.Geodesic(-1j, 1j)),
        apply_geodesic(g, hyp2.Geodesic(-1.0 + 0.0j, 1.0 + 0.0j)))
    assert distance(z, apply(g, 0.0j)) < 1e-9
    assert abs(angle - math.pi / 2) < 1e-9


def test_thresholds_are_read_at_call_time(monkeypatch):
    # The decisions read config's thresholds when they run, not a value bound
    # at import, so raising one moves a decision at once.
    shear = Isometry(1.0 + 1e-6j, 1e-6j)  # parabolic, 1e-6 from the identity
    assert classify(shear).kind is IsometryKind.PARABOLIC
    monkeypatch.setattr(config, "EPS_PT", 1e-7)  # identity test at 1e-5
    assert classify(shear).kind is IsometryKind.IDENTITY
    turn = rotation_about(0.0j, 2e-3)  # |tr| = 2 - 1e-6
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
    # as e^(2d)/sin(angle) at distance d from 0 (1 - |k|² = sech² d), so the
    # bound is 1e-9 only near 0.
    assume(all(abs(p - q) > 1e-6 for p, q in itertools.combinations(ends, 2)))
    g1, g2 = hyp2.Geodesic(*ends[:2]), hyp2.Geodesic(*ends[2:])
    for g in (g1, g2):
        assert hyp2.geodesic_crossing(g, g) is None
        assert hyp2.geodesic_crossing(g, hyp2.Geodesic(g.v, g.u)) is None
    crossing = hyp2.geodesic_crossing(g1, g2)
    assert (crossing is not None) == _angles_interleave(g1, g2)
    if crossing is not None:
        z, angle = crossing
        d = distance(z, 0.0j)
        tol = max(1e-9, 1e-14 * math.exp(2.0 * d) / math.sin(angle))
        for g in (g1, g2):
            assert distance(z, trigroup.foot_of_perpendicular(g, z)) < tol


@given(rotation_params, halfplane_points, halfplane_points)
@settings(max_examples=200, deadline=None)
def test_disc_kernels_match_the_halfplane_formulas(params, z, z2):
    # A product g of rotations moves the Cayley image of a half-plane point z
    # to the Cayley image of z's half-plane image, within 1e-12, and the disc
    # distance is the half-plane one, within 1e-12 relative above distance
    # 1 (the Cayley map's own rounding moves these points by up to about
    # 1e-13).
    g, m = iso_from_params(params), (1.0, 0.0, 0.0, 1.0)
    for x, y, theta in params:
        m = _hp_product(m, _hp_rotation(complex(x, y), theta))
    assert abs(hyp2.mobius(g.entries(), cayley(z))
               - cayley(_hp_mobius(m, z))) < 1e-12
    d = _hp_distance(z, z2)
    assert abs(distance(cayley(z), cayley(z2)) - d) <= 1e-12 * max(d, 1.0)


@pytest.mark.parametrize("triple", TRIPLES)
def test_triangle_and_generators_are_the_cayley_images_of_the_halfplane_pose(
        triple):
    # The canonical triangle sits at the Cayley images of the half-plane
    # pose, and each generator is the disc form of the half-plane rotation
    # about its vertex, within 1e-14.
    halfplane = _hp_triangle(*triple)
    for w, z in zip(triangle_from_angles(*triple), halfplane):
        assert abs(w - cayley(z)) < 1e-14
    group = trigroup.build_group(*triple)
    for name, z, n in zip("PQR", halfplane, triple):
        expect = _disc_entries(_hp_rotation(z, 2.0 * math.pi / n))
        assert hyp2.projective_dist(group.generator(name).entries(),
                                    expect) < 1e-14


def test_axis_parameter_raises_where_the_foot_rounds_onto_the_circle():
    # A point 22 from 0 on the diameter from -1 to 1: its Klein point,
    # tanh(22), rounds to 1, and with it the affine coordinate of its foot,
    # whose atanh is no number.  One 10 from 0 has its coordinate.
    geo = hyp2.Geodesic(-1.0 + 0.0j, 1.0 + 0.0j)
    with pytest.raises(GeometryError, match="distance 22.00 from 0"):
        hyp2.axis_parameter(geo, complex(math.tanh(11.0)))
    assert hyp2.axis_parameter(geo, complex(math.tanh(5.0))) == \
        pytest.approx(10.0, rel=1e-9)
