"""Triangle rotation groups: word balls, curve-lift tilings, adjacency counts.

The groups are generated by counterclockwise rotations by 2*pi/p, 2*pi/q,
2*pi/r about the vertices of the canonical triangle (see ``hyp2``).  Word
balls are enumerated breadth-first with projective matrix dedup; the five
section curves are realized by explicit base geodesics whose group orbit
tiles the plane, and fixed-point bookkeeping reduces to counting the
isometries carrying the distinguished tile to a chosen adjacent tile.

Every dedup goes through one uniform-grid index, ``_GridIndex``: word balls
(matrix entries, ``projective_dist`` within ``eps_band`` = 1e-7, guard band
to 10x), curve lifts and tile centres (1e-9), and the half-ball matching of
``adjacency_isometries`` (every match within 1e-7).  Its cells are 1e-3
wide, a thousand times the largest probe radius, so a lookup reads a
neighbouring cell only on an axis where the query lies within the probe
radius of a wall: one cell nearly always, not 3^4 (the fixed-radius grid of
Bentley, Stanat and Williams, IPL 6(6), 1977).  Margins on the balls of
depth <= 8: distinct elements are >= 0.40 apart and equal ones land within
6e-14, so the 1e-7 radius and the 1e-6 guard band sit far from both.

Each piece of work is done once per run.  A group's word ball is enumerated
once, at the largest radius asked of it so far; the ball is built
breadth-first in a fixed order, so every smaller radius is a prefix of it
and is served as a slice (``enumerate_elements``).  The curve lifts of a
case are built in ball order from that ball, and the lifts of a smaller
ball are a prefix of them too (``curve_lifts``);
``adjacency_isometries`` asks for its largest lift set, and with it its
largest ball, before the neighbour search asks for smaller ones.  Only the
results are kept: the dedup index and the frontier are dropped when an
enumeration ends.  Each lift keeps its boundary angles (``Geodesic.angles``),
computed on first use, which the neighbour search, the axis-on-lift test
and the crossing count read; a lift whose endpoints do not interleave with
the other geodesic's is skipped before ``geodesic_intersection``.  It keeps
its Klein chord too (``Geodesic.klein_ends``), the cosines and sines of
those angles, which every tile of a drawing clips against
(``cell_polygon``); a chord that leaves the tile whole clips nothing.  The
per-element loops (ball products, half-ball images, pair products, tile
orbits) run on entry tuples with ``hyp2``'s kernels and build an
``Isometry`` or ``HPoint`` only for a new element.  The figure-eight's
second branch is searched one radius at a time, so no ball larger than
the one holding it is built for it.
"""
from __future__ import annotations

import bisect
import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Optional, Sequence

from . import hyp2
from .config import DEFAULT_TOL, Tolerances
from .hyp2 import (Entries, Geodesic, GeometryError, HPoint, Isometry,
                   IsometryClass, IsometryKind, angles_interleave, apply,
                   apply_geodesic, axis_of, axis_parameter, boundary_point,
                   cayley, classify, compose_entries, distance, foot_on_axis,
                   geodesic_intersection, geodesic_through, crossing_angle,
                   inverse_entries, mobius, projective_dist, rotation_about,
                   same_geodesic_angles, to_disc, to_klein)

CASES = (237, 245, 246, 334, 344)
CASE_TRIPLES = {237: (2, 3, 7), 245: (2, 4, 5), 246: (2, 4, 6),
                334: (3, 3, 4), 344: (3, 4, 4)}

ALPHABET = ("P", "p", "Q", "q", "R", "r")  # lowercase marks the inverse

_CELL = 1e-3  # dedup grid cell width, far above every dedup radius


class EnumerationError(RuntimeError):
    """Search-budget or tolerance failures during enumeration."""


class DedupAmbiguityError(EnumerationError):
    """Two candidate matrices fell into the dedup guard band."""


class TangencyError(RuntimeError):
    """An axis met a curve lift non-transversally."""


@dataclass(frozen=True)
class TriangleGroup:
    p: int
    q: int
    r: int
    P: HPoint
    Q: HPoint
    R: HPoint
    gP: Isometry
    gQ: Isometry
    gR: Isometry
    tol: Tolerances

    def generator(self, letter: str) -> Isometry:
        base = {"P": self.gP, "Q": self.gQ, "R": self.gR}
        if letter in base:
            return base[letter]
        return base[letter.upper()].inverse(self.tol)

    def vertex(self, name: str) -> HPoint:
        return {"P": self.P, "Q": self.Q, "R": self.R}[name]


@dataclass(frozen=True)
class GroupElement:
    word: tuple[str, ...]
    matrix: Isometry

    def word_str(self) -> str:
        return "".join(self.word) if self.word else "1"


def build_group(p: int, q: int, r: int, tol: Tolerances = DEFAULT_TOL) -> TriangleGroup:
    """Rotation triangle group on the canonical triangle, relations checked."""
    P, Q, R = hyp2.triangle_from_angles(p, q, r, tol)
    gP = rotation_about(P, 2.0 * math.pi / p, tol)
    gQ = rotation_about(Q, 2.0 * math.pi / q, tol)
    gR = rotation_about(R, 2.0 * math.pi / r, tol)
    group = TriangleGroup(p, q, r, P, Q, R, gP, gQ, gR, tol)
    for g, n in ((gP, p), (gQ, q), (gR, r)):
        acc = Isometry.identity()
        for _ in range(n):
            acc = acc.compose(g, tol)
        if not hyp2.is_identity(acc, tol):
            raise EnumerationError(f"generator order {n} violated for ({p},{q},{r})")
    if not hyp2.is_identity(gP.compose(gQ, tol).compose(gR, tol), tol):
        raise EnumerationError(f"product relation violated for ({p},{q},{r})")
    return group


def _chebyshev(a: Sequence[float], b: Sequence[float]) -> float:
    return max(map(abs, map(operator.sub, a, b)))


class _GridIndex:
    """Fixed-radius near-neighbour index over float vectors on a uniform grid.

    The probe radius is ``max(radius, guard*radius)``; cells are ``_CELL``
    wide, or ``probe * 1.000001`` if that is larger.  On each axis a lookup
    also reads the neighbouring cell on the side whose wall lies within
    ``probe * 1.000001`` of the query (the margin covers rounding in the
    offset from the wall), so it sees every stored vector within ``probe``
    in Chebyshev distance.  ``dist`` is never larger than that distance;
    matrices are keyed by their sign-normalised entries, so near-duplicates
    agree in sign even though ``projective_dist`` ignores it.

    ``insert`` returns the index of the nearest stored vector within
    ``radius``, or stores the vector and returns None; a nearest neighbour
    in (radius, guard*radius) raises DedupAmbiguityError.  ``add`` stores
    without dedup and ``near`` lists every stored vector within ``probe``.
    """

    def __init__(self, radius: float, guard: float = 0.0, dist=_chebyshev):
        self.radius = radius
        self.guard = guard
        self.probe = max(radius, guard * radius)
        reach = self.probe * 1.000001
        self.cell = max(_CELL, reach)
        self.wall = reach / self.cell  # reach, in cell widths
        self.dist = dist
        self.buckets: dict[tuple[int, ...], list[int]] = {}
        self.vectors: list[Sequence[float]] = []

    def _locate(self, vec: Sequence[float]):
        """(key of the cell of vec, keys of every cell that can hold a vector
        within probe of vec).  One floor per axis: x/cell - floor(x/cell) is
        the offset from the lower wall in cell widths, and only an axis
        whose offset lies within reach of a wall adds the cell across it."""
        cell, wall, far, floor = self.cell, self.wall, 1.0 - self.wall, math.floor
        key = []
        near_wall = False
        for x in vec:
            q = x / cell
            k = floor(q)
            key.append(k)
            if not wall <= q - k <= far:
                near_wall = True
        own = tuple(key)
        if not near_wall:
            return own, (own,)
        spans = []
        for x, k in zip(vec, key):
            f = x / cell - k
            spans.append(range(k - (f < wall), k + 1 + (f > far)))
        return own, itertools.product(*spans)

    def _hits(self, vec: Sequence[float], cells) -> list[tuple[float, int]]:
        hits = []
        buckets, vectors, dist, probe = self.buckets, self.vectors, self.dist, self.probe
        for key in cells:
            for idx in buckets.get(key, ()):
                d = dist(vec, vectors[idx])
                if d <= probe:
                    hits.append((d, idx))
        return hits

    def _store(self, key: tuple[int, ...], vec: Sequence[float]) -> None:
        self.buckets.setdefault(key, []).append(len(self.vectors))
        self.vectors.append(vec)

    def near(self, vec: Sequence[float]) -> list[tuple[float, int]]:
        """(distance, index) of every stored vector within probe of vec."""
        return self._hits(vec, self._locate(vec)[1])

    def add(self, vec: Sequence[float]) -> None:
        self._store(self._locate(vec)[0], vec)

    def insert(self, vec: Sequence[float]) -> Optional[int]:
        key, cells = self._locate(vec)
        hits = self._hits(vec, cells)
        if hits:
            best_d, best = min(hits)
            if best_d <= self.radius:
                return best
            if best_d < self.guard * self.radius:
                raise DedupAmbiguityError(
                    f"candidates at ambiguous distance {best_d:.3e} "
                    f"(dedup radius {self.radius:.1e})")
        self._store(key, vec)
        return None


def _matrix_index(tol: Tolerances) -> _GridIndex:
    return _GridIndex(tol.eps_band, guard=10.0, dist=projective_dist)


def _geodesic_vec(u: float, v: float) -> tuple[float, float, float, float]:
    # Unordered ideal pair embedded via the symmetric functions of its two
    # disc boundary points (t - i)/(t + i).
    wu, wv = boundary_point(u), boundary_point(v)
    s, pr = wu + wv, wu * wv
    return (s.real, s.imag, pr.real, pr.imag)


def _word_length(el: GroupElement) -> int:
    return len(el.word)


# The largest ball radius enumerated so far for each group; and for each
# (case, tol), the largest lift depth built so far, its lifts, and for the
# ball of every radius up to it, how many lifts its first n elements give
# (n -> count).  A smaller request is a prefix of that one computation.
_BALL_RADIUS: dict[TriangleGroup, int] = {}
_LIFT_PREFIX: dict[tuple[int, Tolerances],
                   tuple[int, tuple[Geodesic, ...], dict[int, int]]] = {}


@functools.lru_cache(maxsize=64)
def enumerate_elements(group: TriangleGroup, max_len: int) -> tuple[GroupElement, ...]:
    """All distinct elements of word length <= max_len, shortlex order.

    Dedup is by projective matrix within eps_band, with a guard band that
    raises if two candidates are suspiciously close without coinciding.
    The search is breadth-first in a fixed order, so the ball of a smaller
    radius is a prefix of a larger one: once a ball of the group is
    enumerated, a smaller radius is served as a slice of it (after
    cache_clear, of the larger ball enumerated afresh).
    """
    if max_len < 0:
        raise ValueError("max_len must be nonnegative")
    largest = _BALL_RADIUS.get(group, -1)
    if largest > max_len:
        ball = enumerate_elements(group, largest)
        return ball[:bisect.bisect_right(ball, max_len, key=_word_length)]
    eps = group.tol.eps_pt
    gens = [(letter, group.generator(letter).entries()) for letter in ALPHABET]
    index = _matrix_index(group.tol)
    identity = GroupElement((), Isometry.identity())
    index.insert(identity.matrix.entries())
    elements = [identity]
    frontier = [identity]
    for _ in range(max_len):
        fresh: list[GroupElement] = []
        for el in frontier:
            entries, word = el.matrix.entries(), el.word
            for letter, gen in gens:
                m = compose_entries(entries, gen, eps)
                if index.insert(m) is None:
                    fresh.append(GroupElement(word + (letter,), Isometry(*m)))
        elements.extend(fresh)
        frontier = fresh
        if not fresh:
            break
    _BALL_RADIUS[group] = max_len
    return tuple(elements)


# --- Section curves -------------------------------------------------------

@dataclass(frozen=True)
class CurveSystem:
    """Base data of one section curve: defining geodesics inside the triangle
    whose group orbit is the full lift set, plus the distinguished tile."""

    case: int
    base_geodesics: tuple[Geodesic, ...]
    base_segments: tuple[tuple[HPoint, HPoint], ...]
    cell_center: HPoint
    stabilizer_order: int


def foot_of_perpendicular(geo: Geodesic, p: HPoint) -> HPoint:
    return foot_on_axis(geo, axis_parameter(geo, p))


def midpoint(a: HPoint, b: HPoint, tol: Tolerances = DEFAULT_TOL) -> HPoint:
    """Midpoint of the geodesic segment from a to b."""
    geo = geodesic_through(a, b, tol)
    ta, tb = axis_parameter(geo, a), axis_parameter(geo, b)
    return foot_on_axis(geo, ta + 0.5 * (tb - ta))


def _clip_to_triangle(geo: Geodesic, group: TriangleGroup) -> tuple[HPoint, HPoint]:
    """Chord of the geodesic inside the closed triangle PQR (Klein model)."""
    tol = group.tol
    corners = [to_klein(group.P), to_klein(group.Q), to_klein(group.R)]
    a, b = geo.klein_ends
    dx, dy = b[0] - a[0], b[1] - a[1]

    def side(pt):
        return dx * (pt[1] - a[1]) - dy * (pt[0] - a[0])

    ts = []
    for i, j in itertools.combinations(range(3), 2):
        p1, p2 = corners[i], corners[j]
        s1, s2 = side(p1), side(p2)
        if (s1 > 0) == (s2 > 0):
            continue
        u = s1 / (s1 - s2)
        x = (p1[0] + u * (p2[0] - p1[0]), p1[1] + u * (p2[1] - p1[1]))
        t = ((x[0] - a[0]) * dx + (x[1] - a[1]) * dy)
        ts.append((t, x))
    # Interior points of the triangle on the line (vertices count too).
    for c in corners:
        if abs(side(c)) < 1e-12:
            t = ((c[0] - a[0]) * dx + (c[1] - a[1]) * dy)
            ts.append((t, c))
    if len(ts) < 2:
        raise GeometryError("geodesic does not cross the base triangle")
    ts.sort(key=lambda it: it[0])
    lo, hi = ts[0][1], ts[-1][1]
    return (hyp2.klein_to_hpoint(*lo), hyp2.klein_to_hpoint(*hi))


@functools.lru_cache(maxsize=16)
def curve_system(case: int, tol: Tolerances = DEFAULT_TOL) -> CurveSystem:
    """The section curve of one of the five cases, on the canonical triangle.

    237: full geodesic through P perpendicular to QR (the doubled altitude).
    245: full geodesic through P and Q (the doubled edge b).
    246: full geodesic through P and R (the doubled edge c).
    334: figure-eight geodesic crossing itself at the midpoint J of PQ,
         realized as the axis of gP * gQ^-1 together with the second branch
         through J from the group orbit.
    344: same with Q, R and the midpoint K of QR, axis of gQ * gR^-1.
    """
    group = build_group(*CASE_TRIPLES[case], tol)
    P, Q, R = group.P, group.Q, group.R
    if case == 237:
        qr = geodesic_through(Q, R, tol)
        foot = foot_of_perpendicular(qr, P)
        geo = geodesic_through(P, foot, tol)
        return CurveSystem(case, (geo,), ((P, foot),), R, 7)
    if case == 245:
        geo = geodesic_through(P, Q, tol)
        return CurveSystem(case, (geo,), ((P, Q),), R, 5)
    if case == 246:
        geo = geodesic_through(P, R, tol)
        return CurveSystem(case, (geo,), ((P, R),), Q, 4)
    if case in (334, 344):
        if case == 334:
            g8 = group.gP.compose(group.gQ.inverse(tol), tol)
            crossing_pt = midpoint(P, Q, tol)
            center, order = R, 4
        else:
            g8 = group.gQ.compose(group.gR.inverse(tol), tol)
            crossing_pt = midpoint(Q, R, tol)
            center, order = P, 3
        axis = axis_of(g8, tol)
        gap = distance(crossing_pt, foot_of_perpendicular(axis, crossing_pt))
        if gap > 1e-6:
            raise GeometryError(f"figure-eight axis misses its crossing point "
                                f"by {gap:.2e} in case {case}")
        second = _second_branch(group, axis, crossing_pt)
        segs = (_clip_to_triangle(axis, group), _clip_to_triangle(second, group))
        return CurveSystem(case, (axis, second), segs, center, order)
    raise ValueError(f"unknown case {case}")


def _second_branch(group: TriangleGroup, axis: Geodesic, pt: HPoint) -> Geodesic:
    """Second lift of the figure-eight curve through its crossing point: the
    first in ball order within word length 4, searched one radius at a time
    so that no ball larger than the one holding it is enumerated."""
    seen = 0
    for radius in range(1, 5):
        ball = enumerate_elements(group, radius)
        for el in ball[seen:]:
            img = apply_geodesic(el.matrix, axis)
            if same_geodesic_angles(img.angles, axis.angles, 1e-9):
                continue
            if distance(pt, foot_of_perpendicular(img, pt)) < 1e-9:
                return img
        seen = len(ball)
    raise EnumerationError("no second branch found through the crossing point")


@functools.lru_cache(maxsize=32)
def curve_lifts(case: int, depth: int,
                tol: Tolerances = DEFAULT_TOL) -> tuple[Geodesic, ...]:
    """Deduped group orbit of the base geodesics within the word ball, in
    ball order, so the lifts of a smaller ball are a prefix; like the ball,
    a smaller depth is served as a slice of the largest lift set, kept
    outside the cache so that no spelling of the call rebuilds it."""
    group = build_group(*CASE_TRIPLES[case], tol)
    ball = enumerate_elements(group, depth)
    largest, built, prefix = _LIFT_PREFIX.get((case, tol), (-1, (), {}))
    if largest >= depth:
        return built[:prefix[len(ball)]]
    system = curve_system(case, tol)
    index = _GridIndex(1e-9)
    lifts: list[Geodesic] = []
    counts: dict[int, int] = {}
    for n, el in enumerate(ball):
        if n == 0 or len(el.word) > len(ball[n - 1].word):
            counts[n] = len(lifts)
        m = el.matrix
        for base in system.base_geodesics:
            u, v = m.boundary_image(base.u), m.boundary_image(base.v)
            if index.insert(_geodesic_vec(u, v)) is None:
                lifts.append(Geodesic(u, v))  # apply_geodesic(m, base)
    counts[len(ball)] = len(lifts)
    built = tuple(lifts)
    _LIFT_PREFIX[(case, tol)] = (depth, built, counts)
    return built


# --- Tiling cells ---------------------------------------------------------

def cell_tiling(group: TriangleGroup, system: CurveSystem,
                depth: int) -> list[tuple[HPoint, GroupElement]]:
    """Orbit of the distinguished cell center in the ball, with witnesses."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    index = _GridIndex(1e-9)
    center = system.cell_center
    z = center.as_complex()
    out: list[tuple[HPoint, GroupElement]] = []
    for el in enumerate_elements(group, depth):
        if index.insert(_disc_image(el.matrix.entries(), z)) is None:
            out.append((apply(el.matrix, center), el))
    return out


def cell_polygon(center: HPoint, lifts: Sequence[Geodesic]):
    """Convex tile around `center` cut out by the lifts, in Klein coordinates.

    Returns (vertices, side_sources): vertices of the clipped polygon and,
    per side, the index into `lifts` of the wall carrying it (None marks a
    side of the initial bounding square, which signals insufficient depth).
    """
    kc = to_klein(center)
    big = 8.0
    verts = [(-big, -big), (big, -big), (big, big), (-big, big)]
    labels: list[Optional[int]] = [None, None, None, None]
    for idx, lift in enumerate(lifts):
        a, b = lift.klein_ends
        # Quick reject: chord far from the center (both in Klein metric scale).
        mx, my = (a[0] + b[0]) / 2.0, (a[1] + b[1]) / 2.0
        if math.hypot(mx - kc[0], my - kc[1]) > 1.9:
            continue
        nx, ny = b[1] - a[1], a[0] - b[0]
        c = nx * a[0] + ny * a[1]
        sign = nx * kc[0] + ny * kc[1] - c
        if sign == 0.0:
            raise GeometryError("cell center lies on a wall")
        if sign < 0:
            nx, ny, c = -nx, -ny, -c
        fs = [nx * x + ny * y - c for x, y in verts]
        if min(fs) >= 0:
            continue  # the wall clips nothing
        new_v: list[tuple[float, float]] = []
        new_l: list[Optional[int]] = []
        n = len(verts)
        for i in range(n):
            j = (i + 1) % n
            cur, nxt, f_cur, f_nxt = verts[i], verts[j], fs[i], fs[j]
            if f_cur >= 0:
                new_v.append(cur)
                new_l.append(labels[i])
            if (f_cur >= 0) != (f_nxt >= 0):
                t = f_cur / (f_cur - f_nxt)
                new_v.append((cur[0] + t * (nxt[0] - cur[0]),
                              cur[1] + t * (nxt[1] - cur[1])))
                # Leaving, the clip wall starts here; entering, the
                # original side continues.
                new_l.append(idx if f_cur >= 0 else labels[i])
        verts, labels = new_v, new_l
        if not verts:
            raise GeometryError("cell clipped to nothing")
    # Drop degenerate slivers.
    cleaned_v, cleaned_l = [], []
    n = len(verts)
    for i in range(n):
        j = (i + 1) % n
        if math.hypot(verts[j][0] - verts[i][0], verts[j][1] - verts[i][1]) > 1e-12:
            cleaned_v.append(verts[i])
            cleaned_l.append(labels[i])
    return cleaned_v, cleaned_l


def cell_wall_count(center: HPoint, lifts: Sequence[Geodesic]) -> int:
    """Number of distinct walls bounding the tile around `center`."""
    _, labels = cell_polygon(center, lifts)
    if any(lab is None for lab in labels):
        raise EnumerationError("tile not closed by the available lifts; "
                               "increase the enumeration depth")
    return len(set(labels))


# --- Adjacency ------------------------------------------------------------

@dataclass(frozen=True)
class AdjacencyEntry:
    element: GroupElement
    classification: IsometryClass
    on_boundary_curve: Optional[bool]  # hyperbolic elements only
    crossing: Optional[int]            # hyperbolic elements only


@dataclass(frozen=True)
class AdjacencyReport:
    case: int
    base_center: HPoint
    neighbor_center: HPoint
    entries: tuple[AdjacencyEntry, ...]
    elliptic: int
    hyperbolic: int
    parabolic: int

    @property
    def total(self) -> int:
        return len(self.entries)


def _segment_crossing_clusters(seg_from: HPoint, seg_to: HPoint,
                               lifts: Sequence[Geodesic],
                               tol: Tolerances) -> int:
    """Distinct points where the open segment crosses the lift union."""
    geo = geodesic_through(seg_from, seg_to, tol)
    t0 = axis_parameter(geo, seg_from)
    t1 = axis_parameter(geo, seg_to)
    lo, hi = min(t0, t1), max(t0, t1)
    params: list[float] = []
    pair = geo.angles
    for lift in lifts:
        if not angles_interleave(lift.angles, pair):
            continue
        z = geodesic_intersection(lift, geo, tol)
        if z is None:
            continue
        t = axis_parameter(geo, z)
        if lo + 1e-9 < t < hi - 1e-9:
            params.append(t)
    params.sort()
    clusters = 0
    last = None
    for t in params:
        if last is None or t - last > 1e-5:
            clusters += 1
        last = t
    return clusters


def canonical_neighbors(group: TriangleGroup, system: CurveSystem,
                        depth: int, count: int = 2) -> list[HPoint]:
    """Deterministic choices of adjacent same-type tile centers.

    A candidate orbit point is adjacent when the segment joining it to the
    base center meets the curve lifts in exactly one point (an edge interior
    for the vertical cases, the four-valent crossing vertex for the
    figure-eight cases).  Candidates are ranked by distance, then by disc
    coordinates.
    """
    tol = group.tol
    lifts = curve_lifts(system.case, min(depth, 6), tol)
    c0 = system.cell_center
    pts = cell_tiling(group, system, min(depth, 5))
    ranked = []
    for p, _ in pts:
        d = distance(p, c0)
        if d < tol.eps_pt:
            continue
        dx, dy = to_disc(p)
        ranked.append((round(d, 9), round(dx, 9), round(dy, 9), p))
    ranked.sort(key=lambda it: it[:3])
    chosen: list[HPoint] = []
    for _, _, _, p in ranked:
        if _segment_crossing_clusters(c0, p, lifts, tol) == 1:
            chosen.append(p)
            if len(chosen) >= count:
                break
    if not chosen:
        raise EnumerationError(f"no adjacent tile found within depth {depth} "
                               f"for case {system.case}")
    return chosen


def _axis_on_lift(axis: Geodesic, lifts: Sequence[Geodesic], eps: float) -> bool:
    pair = axis.angles
    return any(same_geodesic_angles(pair, lift.angles, eps) for lift in lifts)


def _disc_image(e: Entries, z: complex) -> tuple[float, float]:
    """``to_disc(apply(g, p))`` for g given by its entries, p by p.as_complex(),
    with the same arithmetic and the same check that the image is a point."""
    w = mobius(e, z)
    if not w.imag > 0:
        raise GeometryError(f"point ({w.real}, {w.imag}) not in upper half-plane")
    d = cayley(w)
    return (d.real, d.imag)


def adjacency_isometries(group: TriangleGroup, system: CurveSystem, depth: int,
                         neighbor: Optional[HPoint] = None) -> AdjacencyReport:
    """All group elements carrying the base tile center to the neighbor tile
    center within the word-length budget, classified.

    The search is complete for words up to `depth` letters: it matches
    half-ball translates of the two centers.  Any g with |g| <= 2*half,
    half = ceil(depth/2), is u * v with u = 1, v = g, or with u the first
    half letters of a shortest word for g, so |u| = half and |v| <= half;
    only those u are tried.  The result is checked to be a full coset of
    the base-center stabilizer.
    """
    tol = group.tol
    eps = tol.eps_pt
    half = (depth + 1) // 2
    # The largest ball and lift set of the run first: the smaller ones that
    # canonical_neighbors and cell_tiling ask for are prefixes of them.
    lifts = curve_lifts(system.case, max(half, 6), tol)
    ball = enumerate_elements(group, half)
    c0 = system.cell_center
    if neighbor is None:
        neighbor = canonical_neighbors(group, system, depth, count=1)[0]
    c1 = neighbor

    # Every ball element by its image of c0, without dedup: the stabilizer
    # of c0 maps several elements to one point and each may start a match.
    mats = [el.matrix.entries() for el in ball]
    z0, z1 = c0.as_complex(), c1.as_complex()
    fwd = _GridIndex(1e-7)
    for e in mats:
        fwd.add(_disc_image(e, z0))
    pairs: list[tuple[int, int]] = []
    sphere = bisect.bisect_left(ball, half, key=_word_length)
    for j in {0, *range(sphere, len(ball))}:
        target = _disc_image(inverse_entries(mats[j], eps), z1)
        pairs.extend((j, i) for _, i in fwd.near(target))

    pairs.sort(key=lambda ji: (len(ball[ji[0]].word) + len(ball[ji[1]].word),
                               ball[ji[0]].word, ball[ji[1]].word))
    found: list[GroupElement] = []
    index = _matrix_index(tol)
    for j, i in pairs:
        m = compose_entries(mats[j], mats[i], eps)
        w = mobius(m, z0)
        if distance(HPoint(w.real, w.imag), c1) > 10.0 * eps:
            continue
        if index.insert(m) is None:
            found.append(GroupElement(ball[j].word + ball[i].word, Isometry(*m)))

    k = system.stabilizer_order
    if len(found) != k:
        raise EnumerationError(
            f"case {system.case}: expected a coset of {k} adjacency elements, "
            f"found {len(found)} at depth {depth}")

    entries = []
    counts = {IsometryKind.ELLIPTIC: 0, IsometryKind.HYPERBOLIC: 0,
              IsometryKind.PARABOLIC: 0}
    for el in found:
        cls = classify(el.matrix, tol)
        if cls.kind is IsometryKind.IDENTITY:
            raise EnumerationError("identity cannot move a tile")
        counts[cls.kind] += 1
        on_curve = None
        crossings = None
        if cls.kind is IsometryKind.HYPERBOLIC:
            axis = axis_of(el.matrix, tol)
            on_curve = _axis_on_lift(axis, lifts, 1e-7)
            crossings = crossing_count(group, system, el, depth=max(half, 6))
        entries.append(AdjacencyEntry(el, cls, on_curve, crossings))
    return AdjacencyReport(system.case, c0, c1, tuple(entries),
                           counts[IsometryKind.ELLIPTIC],
                           counts[IsometryKind.HYPERBOLIC],
                           counts[IsometryKind.PARABOLIC])


def crossing_count(group: TriangleGroup, system: CurveSystem,
                   g: GroupElement, depth: int) -> int:
    """Crossing points of the axis of g with the union of the curve lifts of
    the word ball of radius `depth`, per period.

    Counts distinct points (several lifts through one point count once) along
    a half-open fundamental period of the translation; lifts coinciding with
    the axis are skipped, and near-tangential meetings are rejected.
    """
    tol = group.tol
    cls = classify(g.matrix, tol)
    if cls.kind is not IsometryKind.HYPERBOLIC:
        raise GeometryError("crossing_count needs a hyperbolic element")
    axis = axis_of(g.matrix, tol)
    period = cls.translation_length
    axis_pair = axis.angles
    reduced: list[float] = []
    for lift in curve_lifts(system.case, depth, tol):
        pair = lift.angles
        if (not angles_interleave(pair, axis_pair)
                or same_geodesic_angles(axis_pair, pair, 1e-7)):
            continue
        z = geodesic_intersection(lift, axis, tol)
        if z is None:
            continue
        ang = crossing_angle(lift, axis, z)
        if ang < 1e-6:
            raise TangencyError(f"axis meets a curve lift at angle {ang:.2e}")
        reduced.append(axis_parameter(axis, z) % period)
    if not reduced:
        raise EnumerationError("no curve crossings found; depth too small?")
    reduced.sort()
    clusters = []
    for t in reduced:
        if not clusters or t - clusters[-1][-1] > 1e-5:
            clusters.append([t])
        else:
            clusters[-1].append(t)
    # Wrap-around: first and last cluster may be one crossing split mod period.
    if len(clusters) > 1 and (clusters[0][0] + period - clusters[-1][-1]) <= 1e-5:
        clusters[0].extend(clusters.pop())
    return len(clusters)
