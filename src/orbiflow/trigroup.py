"""Triangle rotation groups: word balls, curve-lift tilings, adjacency counts.

The groups are generated by counterclockwise rotations by 2*pi/p, 2*pi/q,
2*pi/r about the vertices of the canonical triangle (see ``hyp2``).  The
five section curves are given as words (``config.PAPER_ROWS``): each base
geodesic is the axis of one word, and the group orbit of the bases is the
curve's lift set (``curve_system``).  Fixed-point bookkeeping reduces to
counting the isometries carrying the distinguished tile to a chosen
adjacent tile: the coset of a witness by the rotations about the tile's
centre vertex.

One breadth-first search walks the group, ``_tiles``: from the identity, in
shortlex order, it finds the tiles g·T of the base triangle T, deduped by
their tile points g·o.  Every enumeration is a use of it: the word ball of
a radius, which only a drawing builds, cut to the disc of tiles that can
reach a drawn cell (``enumerate_elements``, ``drawing_disc``), the disc of
tiles about the cell centre whose orbit points are the neighbour candidates
and whose tiles are their witnesses (``_disc_candidates``), and the tube of
tiles about a path (``lifts_along``).

Points are points of the disc (``hyp2``); the drawn centre, the vertex P
of T, is ``DISC_ORIGIN`` = 0.  Tile points (1e-9, guard band to 10x) and
orbit points (1e-9), each by its own coordinates, and curve lifts (1e-9)
are deduped by one uniform-grid index, ``_GridIndex``.  Its cells are 1e-3
wide, 10^5 times the largest probe radius, so a lookup reads a neighbouring
cell only on an axis where the query lies within the probe radius of a
wall: one cell nearly always, not 3^4 (the fixed-radius grid of Bentley,
Stanat and Williams, IPL 6(6), 1977).
Margins on the radius-8 balls of the five groups: distinct tile points are
>= 2.3e-4 apart and equal ones land within 2.0e-15, so the 1e-9 radius and
the 1e-8 guard band sit far from both.  The adjacency coset's at most 7
matrices are compared pairwise, M and -M as equal (``_coset_repeat``).

Each neighbour candidate, and each hyperbolic axis over one period, is
tested against the lifts of the tiles in a tube about its own path
(``lifts_along``); only a drawing builds the lifts of a ball, and only of
its tiles within the drawing's disc (``curve_lifts``).  A lift is its two
ends on the unit circle, moved there by its tile through the Mobius kernel
that moves points too (``hyp2.mobius``), with its Klein chord
(``Geodesic.klein_line``) computed on first use.  Both path tests, the
neighbour segment and the axis period, meet the lifts through one
primitive, ``_meetings``: it takes each crossing's coordinate along the
path from the lift's ends and its angle from the two Klein chords
(``hyp2.geodesic_crossing``), and rejects a near-tangential crossing.  A
drawing dedups only the orbit points within its disc (``cell_tiling``'s
bound), and draws the tile of each as the image of the cell about its
vertex of T, which ``_cell_radius`` clips from the chords
(``cell_polygon``) and certifies.  The per-element loops (tile steps, orbit
points) run on entry tuples with ``hyp2``'s kernels and build an
``Isometry`` only for a new element.
"""
from __future__ import annotations

import functools
import itertools
import math
import operator
from typing import Iterable, Iterator, Optional, Sequence

from . import ChainError, Value, config, hyp2
from .hyp2 import (Entries, Geodesic, GeometryError, Isometry, IsometryClass,
                   IsometryKind, apply, axis_of, axis_parameter,
                   classify, compose_entries, distance, foot_on_axis,
                   from_klein, geodesic_crossing, geodesic_through, mobius,
                   projective_dist, rotation_about, same_geodesic, to_klein)

CASE_TRIPLES = {case: triple for case, triple, *_ in config.PAPER_ROWS}
_CURVES = {case: (words, center)
           for case, _, _, _, words, center in config.PAPER_ROWS}
CASES = tuple(CASE_TRIPLES)

ALPHABET = ("P", "p", "Q", "q", "R", "r")  # lowercase marks the inverse

_CELL = 1e-3  # dedup grid cell width, far above every dedup radius


class EnumerationError(ChainError, RuntimeError):
    """A group element that a search does not find or a check rejects."""
    kind = "enumeration (trigroup)"


class DedupAmbiguityError(EnumerationError):
    """Two candidates, tile points or coset matrices, fell into a dedup
    guard band: near each other, yet not within the dedup radius."""


class TangencyError(ChainError, RuntimeError):
    """An axis met a curve lift non-transversally."""
    kind = "tangency (trigroup)"


class TriangleGroup(Value):
    __slots__ = ("p", "q", "r", "P", "Q", "R", "gP", "gQ", "gR")
    p: int
    q: int
    r: int
    P: complex
    Q: complex
    R: complex
    gP: Isometry
    gQ: Isometry
    gR: Isometry

    def generator(self, letter: str) -> Isometry:
        base = {"P": self.gP, "Q": self.gQ, "R": self.gR}
        if letter in base:
            return base[letter]
        return base[letter.upper()].inverse()

    def vertex(self, name: str) -> complex:
        return {"P": self.P, "Q": self.Q, "R": self.R}[name]


class GroupElement(Value):
    __slots__ = ("word", "matrix")

    def __init__(self, word: tuple[str, ...], matrix: Isometry):
        object.__setattr__(self, "word", word)
        object.__setattr__(self, "matrix", matrix)


def build_group(p: int, q: int, r: int) -> TriangleGroup:
    """Rotation triangle group on the canonical triangle, relations checked."""
    P, Q, R = hyp2.triangle_from_angles(p, q, r)
    gP = rotation_about(P, 2.0 * math.pi / p)
    gQ = rotation_about(Q, 2.0 * math.pi / q)
    gR = rotation_about(R, 2.0 * math.pi / r)
    group = TriangleGroup(p, q, r, P, Q, R, gP, gQ, gR)
    for g, n in ((gP, p), (gQ, q), (gR, r)):
        acc = Isometry.identity()
        for _ in range(n):
            acc = acc.compose(g)
        if not hyp2.is_identity(acc):
            raise EnumerationError(f"generator order {n} violated for ({p},{q},{r})")
    if not hyp2.is_identity(gP.compose(gQ).compose(gR)):
        raise EnumerationError(f"product relation violated for ({p},{q},{r})")
    return group


def _chebyshev(a: Sequence[float], b: Sequence[float]) -> float:
    return max(map(abs, map(operator.sub, a, b)))


class _GridIndex:
    """Fixed-radius near-neighbour index over float vectors on a uniform grid.

    The probe radius is ``max(radius, guard*radius)``, far below the
    ``_CELL`` width of the cells.  On each axis a lookup also reads the
    neighbouring cell on the side whose wall lies within
    ``probe * 1.000001`` of the query (the margin covers rounding in the
    offset from the wall), so it sees every stored vector within ``probe``
    in Chebyshev distance.

    ``insert`` returns the index of the nearest stored vector within
    ``radius``, or stores the vector and returns None; a nearest neighbour
    in (radius, guard*radius) raises DedupAmbiguityError.
    """

    def __init__(self, radius: float, guard: float = 0.0):
        self.radius = radius
        self.guard = guard
        # The probe and its margin, in cell widths.
        self.wall = max(radius, guard * radius) * 1.000001 / _CELL
        self.buckets: dict[tuple[int, ...], list[int]] = {}
        self.vectors: list[Sequence[float]] = []

    def _locate(self, vec: Sequence[float]):
        """(key of the cell of vec, keys of every cell that can hold a vector
        within probe of vec).  One floor per axis: x/cell - floor(x/cell) is
        the offset from the lower wall in cell widths, and only an axis
        whose offset lies within reach of a wall adds the cell across it."""
        cell, wall, far, floor = _CELL, self.wall, 1.0 - self.wall, math.floor
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

    def insert(self, vec: Sequence[float]) -> Optional[int]:
        key, cells = self._locate(vec)
        buckets, vectors = self.buckets, self.vectors
        nearest = min(((_chebyshev(vec, vectors[idx]), idx)
                       for cell in cells for idx in buckets.get(cell, ())),
                      default=None)
        if nearest is not None:
            best_d, best = nearest
            if best_d <= self.radius:
                return best
            if best_d < self.guard * self.radius:
                raise DedupAmbiguityError(
                    f"candidates at ambiguous distance {best_d:.3e} "
                    f"(dedup radius {self.radius:.1e})")
        buckets.setdefault(key, []).append(len(vectors))
        vectors.append(vec)
        return None


def _geodesic_vec(u: complex, v: complex) -> tuple[float, float, float, float]:
    # The unordered pair of ends on the circle, embedded by its symmetric
    # functions u + v and u·v.
    s, pr = u + v, u * v
    return (s.real, s.imag, pr.real, pr.imag)


DISC_ORIGIN = 0.0j  # the vertex P of T, the drawn centre

Cell = tuple[tuple[float, float], ...]  # a convex Klein polygon, its vertices


@functools.lru_cache(maxsize=64)
def enumerate_elements(group: TriangleGroup, max_len: float,
                       reach: float = math.inf) -> tuple[GroupElement, ...]:
    """All distinct elements of word length <= max_len, in shortlex order:
    the tiles of ``_tiles`` up to that word length; with a finite `reach`,
    only the tiles whose tile point lies within `reach` of 0, found through
    such tiles (``drawing_disc``)."""
    if max_len < 0:
        raise ValueError("max_len must be nonnegative")
    keep = None if reach == math.inf else _in_disc(DISC_ORIGIN, reach)
    return tuple(_tiles(group, keep, max_len))


# --- Section curves -------------------------------------------------------

class CurveSystem(Value):
    """Base data of one section curve: its words, the hyperbolic elements
    whose axes are its base geodesics (one per branch; their group orbit is
    the full lift set), plus the distinguished tile.  Its centre is the cone
    vertex named `center_vertex`, whose generator rotation generates the
    tile's stabilizer, of order `stabilizer_order`."""

    __slots__ = ("case", "words", "base_geodesics", "center_vertex",
                 "cell_center", "stabilizer_order")
    case: int
    words: tuple[GroupElement, ...]
    base_geodesics: tuple[Geodesic, ...]
    center_vertex: str
    cell_center: complex
    stabilizer_order: int


def foot_of_perpendicular(geo: Geodesic, p: complex) -> complex:
    return foot_on_axis(geo, axis_parameter(geo, p))


@functools.lru_cache(maxsize=16)
def curve_system(case: int) -> CurveSystem:
    """The section curve of one of the five cases, on the canonical triangle:
    the axes of its words (``config.PAPER_ROWS``), each run from its
    repelling end to its attracting one (``axis_of``, which raises
    GeometryError on a word that is not hyperbolic).

    237: RQp, the full geodesic from P perpendicular to QR (the doubled
         altitude).
    245: qR, the full geodesic through P then Q (the doubled edge b).
    246: RRq, the full geodesic through P then R (the doubled edge c).
    334: Pq and Rp = p·Pq·P, the two branches of a figure-eight geodesic
         crossing itself at the midpoint of PQ; the second is the first
         moved by gP^-1.
    344: Qr and rQ = q·Qr·Q, the same about the midpoint of QR, moved by
         gQ^-1.
    """
    group = build_group(*CASE_TRIPLES[case])
    words, center = _CURVES[case]
    elements = tuple(GroupElement(tuple(word), functools.reduce(
        Isometry.compose, map(group.generator, word), Isometry.identity()))
        for word in words)
    order = (group.p, group.q, group.r)["PQR".index(center)]
    return CurveSystem(case, elements,
                       tuple(axis_of(el.matrix) for el in elements),
                       center, group.vertex(center), order)


def _orbit_lifts(mats: Iterable[Isometry],
                 bases: Sequence[Geodesic]) -> tuple[Geodesic, ...]:
    """The images m·b of the base geodesics, in order, deduped at 1e-9."""
    index = _GridIndex(1e-9)
    lifts: list[Geodesic] = []
    for m in mats:
        e = m.entries()
        for base in bases:
            u, v = mobius(e, base.u), mobius(e, base.v)
            if index.insert(_geodesic_vec(u, v)) is None:
                lifts.append(Geodesic(u, v))
    return tuple(lifts)


@functools.lru_cache(maxsize=32)
def curve_lifts(case: int, depth: float,
                reach: float = math.inf) -> tuple[Geodesic, ...]:
    """The deduped orbit of the base geodesics in the word ball, cut to
    `reach` about 0 (``enumerate_elements``), in order."""
    group = build_group(*CASE_TRIPLES[case])
    return _orbit_lifts(
        (el.matrix for el in enumerate_elements(group, depth, reach)),
        curve_system(case).base_geodesics)


@functools.lru_cache(maxsize=16)
def _tile_point(group: TriangleGroup) -> tuple[complex, float]:
    """The tile point o, the Klein centroid of the base triangle T (no
    rotation fixes it), and r_T, o's largest distance to a vertex of T: each
    point of a tile g·T lies within r_T of its tile point g·o."""
    corners = (group.P, group.Q, group.R)
    o = from_klein(sum(to_klein(v) for v in corners) / 3)
    return o, max(distance(o, v) for v in corners)


def _in_disc(c: complex, radius: float):
    """The test of a point z for d(c, z) <= radius:
    |z - c|^2 <= sinh^2(radius/2) (1 - |z|^2) (1 - |c|^2)."""
    scale = (math.sinh(radius / 2.0) ** 2
             * (1.0 - (c.real * c.real + c.imag * c.imag)))

    def within(z: complex) -> bool:
        dz = z - c
        return (dz.real * dz.real + dz.imag * dz.imag
                <= scale * (1.0 - (z.real * z.real + z.imag * z.imag)))
    return within


def _tiles(group: TriangleGroup, keep=None,
           max_len: float = math.inf) -> Iterator[GroupElement]:
    """The tiles g·T, as elements g with their words, breadth-first from the
    identity in shortlex order, up to word length max_len; with `keep`, only
    those whose tile point g·o `keep` accepts, the identity always.  The
    search is the one enumeration of the group: the word ball is its whole
    run to a radius.

    A tile is deduped by its tile point itself: no rotation fixes o, so g·o
    identifies g.  The dedup radius is 1e-9, and a nearest tile point in
    (1e-9, 1e-8) raises DedupAmbiguityError.  On the radius-8 balls of the
    five groups, equal tile points land within 2.0e-15 and distinct ones lie
    >= 2.3e-4 apart.  The tile point of g·s is g(s·o), one Mobius
    evaluation, so g·s is composed only once it is kept, and the step back,
    by the inverse of the last letter of g's word, is not taken: it leads to
    g's parent, a tile already found."""
    o = _tile_point(group)[0]
    steps = []
    for letter in ALPHABET:
        gen = group.generator(letter).entries()
        steps.append((letter, gen, mobius(gen, o)))
    tiles = [GroupElement((), Isometry.identity())]
    index = _GridIndex(1e-9, guard=10.0)
    index.insert((o.real, o.imag))
    yield tiles[0]
    # A queue: the loop reaches the tiles it appends.
    for tile in tiles:
        word = tile.word
        if len(word) >= max_len:
            return
        entries = tile.matrix.entries()
        back = word[-1].swapcase() if word else None
        for letter, gen, step in steps:
            if letter == back:
                continue
            w = mobius(entries, step)
            if ((keep is None or keep(w))
                    and index.insert((w.real, w.imag)) is None):
                tiles.append(GroupElement(word + (letter,), Isometry(
                    *compose_entries(entries, gen))))
                yield tiles[-1]


@functools.lru_cache(maxsize=16)
def _tube(group: TriangleGroup, system: CurveSystem) -> float:
    """The radius rho = max(r_T, max_b rho_b) of the tubes of
    ``lifts_along`` (o and r_T of ``_tile_point``).  Each base geodesic b is
    the axis of its word h (``CurveSystem.words``), which translates along it
    by l_b, so a lift g·b meeting the path at z is (g·h^n)·b with
    (g·h^n)^-1·z within l_b/2 of the foot of o on b: g·h^n·o lies within
    rho_b = acosh(cosh d(o, b) * cosh(l_b/2)) of z.  The tiles and the black
    triangles between them are the chambers of T's reflection group, so
    folding across their walls shows that the tile point nearest to a point
    of a tile is its own, and to a point of a black triangle that of a tile
    beside it; two such tiles share a vertex and are one generator apart.
    So the nearest tile points along the segment from g·h^n·o to z (within
    rho_b of z), then the tiles met along the path back to the cell centre
    (within r_T of it), join g·h^n to the identity in generator steps.
    """
    o, r_T = _tile_point(group)
    reach = r_T
    for el, geo in zip(system.words, system.base_geodesics):
        height = distance(o, foot_of_perpendicular(geo, o))
        reach = max(reach, math.acosh(math.cosh(height) * math.cosh(
            classify(el.matrix).translation_length / 2.0)))
    return reach


def lifts_along(group: TriangleGroup, system: CurveSystem,
                path: Sequence[complex]) -> tuple[Geodesic, ...]:
    """Every curve lift meeting the polyline `path` from the cell centre, and a
    few near it: the deduped g·b over the bases b and the tiles g of
    ``_tiles`` whose tile point, framed with a segment of length L from 0
    along the positive real axis, is a w within rho of that axis,
    2|Im w| <= sinh(rho) (1 - |w|^2), with the Klein abscissa of its foot,
    2 Re w/(1 + |w|^2), in [tanh(-rho), tanh(L + rho)]."""
    rho = _tube(group, system)
    spread, low = math.sinh(rho), math.tanh(-rho)
    # Per segment a-b: the transport w -> (w - a)/(1 - conj(a)·w), which
    # takes a to 0, then the turn by e^(-i·phi), phi the argument of b's
    # image, which takes b onto the positive real axis: the entries
    # (t, -t·a), t = e^(-i·phi/2), of an SU(1,1) matrix up to a real scale,
    # which mobius ignores.
    frames = []
    for a, b in zip(path, path[1:]):
        w = mobius((1.0 + 0.0j, -a), b)
        half = -0.5 * math.atan2(w.imag, w.real)
        t = complex(math.cos(half), math.sin(half))
        frames.append(((t, -t * a), math.tanh(distance(a, b) + rho)))

    def in_tube(z: complex) -> bool:
        for frame, high in frames:
            w = mobius(frame, z)
            x, y = w.real, w.imag
            n = x * x + y * y
            if (2.0 * abs(y) <= spread * (1.0 - n)
                    and low * (1.0 + n) <= 2.0 * x <= high * (1.0 + n)):
                return True
        return False

    return _orbit_lifts((tile.matrix for tile in _tiles(group, in_tube)),
                        system.base_geodesics)


# --- Tiling cells ---------------------------------------------------------

def _orbit(elements: Iterable[GroupElement], center: complex,
           limit: float = math.inf) -> Iterator[tuple[complex, GroupElement]]:
    """The orbit points w = g·center of the elements, each with the first
    element that reaches it, deduped at 1e-9.  An element with
    |w|^2 > limit is skipped before the dedup."""
    index = _GridIndex(1e-9)
    for el in elements:
        w = mobius(el.matrix.entries(), center)
        if (w.real * w.real + w.imag * w.imag <= limit
                and index.insert((w.real, w.imag)) is None):
            yield w, el


def cell_tiling(group: TriangleGroup, center: complex, depth: float,
                bound: float = 1.0, reach: float = math.inf
                ) -> list[tuple[complex, GroupElement]]:
    """Orbit of the cell center `center` in the ball, cut to `reach` about 0
    (``enumerate_elements``), with witnesses: each orbit point with its
    first element in ball order (``_orbit``).  An element with
    |w|^2 > bound + 1e-6 is skipped before the dedup, so with the default
    bound the whole orbit is kept; every point with |w|^2 <= bound keeps
    the same first element, since its duplicates lie within 1e-9 of it,
    inside the 1e-6 margin."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    return list(_orbit(enumerate_elements(group, depth, reach), center,
                       bound + 1e-6))


def cell_polygon(center: complex, lifts: Sequence[Geodesic]):
    """Convex tile around `center` cut out by the lifts, in Klein coordinates.

    Returns (vertices, side_sources): vertices of the clipped polygon and,
    per side, the index into `lifts` of the wall carrying it, the line
    n·k = c of its chord (``Geodesic.klein_line``).  None marks a side of the
    initial bounding square: the lifts leave the cell open, and
    ``_cell_radius``, the one caller, searches a larger disc for them.
    """
    k = to_klein(center)
    kx, ky = k.real, k.imag
    big = 8.0
    verts = [(-big, -big), (big, -big), (big, big), (-big, big)]
    labels: list[Optional[int]] = [None, None, None, None]
    for idx, lift in enumerate(lifts):
        nx, ny, c, _ = lift.klein_line
        sign = nx * kx + ny * ky - c
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


def on_curve(vertex: complex, lifts: Iterable[Geodesic]) -> bool:
    """Whether a lift passes within 1e-7 of `vertex`.  The Klein distance to
    a chord is at most the hyperbolic distance to its lift, so the chord
    test (within 1e-6), made first, passes every lift the exact one accepts."""
    k = to_klein(vertex)
    kx, ky = k.real, k.imag
    for lift in lifts:
        nx, ny, c, norm = lift.klein_line
        if (abs(nx * kx + ny * ky - c) <= 1e-6 * norm
                and distance(vertex, foot_of_perpendicular(lift, vertex)) < 1e-7):
            return True
    return False


def polygon_reach(center: complex, verts: Sequence[tuple[float, float]]) -> float:
    """The largest distance from `center` to a vertex of the convex Klein
    polygon `verts`, so that the polygon lies within it of `center`; inf if
    a vertex is not inside the unit disc.

    It certifies a cell: a polygon clipped by some of the walls contains the
    true cell, and if it lies in a disc whose every meeting lift was
    clipped, no wall is missing, since a wall cutting it meets that disc."""
    far = 0.0
    for kx, ky in verts:
        if not kx * kx + ky * ky < 1.0:
            return math.inf
        far = max(far, distance(center, from_klein(complex(kx, ky))))
    return far


def _lift_reach(group: TriangleGroup, system: CurveSystem,
                radius: float) -> float:
    """radius + rho (``_tube``), with a 1e-9 rounding margin: the lifts of
    the tiles whose tile points lie within it of a vertex c of T, found
    through such tiles, hold every lift meeting the disc of `radius` about
    c, unless a word-length budget cuts the search.  Such a lift meets it at
    some z as g·b with g·o within rho of z (``_tube``).  Chain: the nearest
    tile points along the segment from g·o to z lie within rho of z
    (``_tube``); the tiles met by the segment from z to c have their tile
    points within radius + r_T of c, and are joined in generator steps
    (``_disc_candidates``); the identity tile holds c."""
    return radius + _tube(group, system) + 1e-9


@functools.lru_cache(maxsize=16)
def _cell_radius(group: TriangleGroup, system: CurveSystem
                 ) -> tuple[float, tuple[Optional[Cell], ...]]:
    """(r_cell, the cells about P, Q and R of T): the certified Klein polygon
    of each vertex v that no lift passes through, None for one that a lift
    passes through, and r_cell, the largest distance from such a v to a
    vertex of its cell, which bounds every cell of its family.  Each v's cell
    is clipped from the lifts within ``_lift_reach`` of a disc of radius r
    about v, from r = r_T, until ``polygon_reach`` certifies it within r;
    each of at most four rounds doubles r, or sets it to the polygon's reach
    if that is less (a larger disc keeps the smaller one's tiles, so the
    next round then certifies).  The first search holds the lifts through
    v, if any (``on_curve``)."""
    r_T = _tile_point(group)[1]
    out = 0.0
    cells: list[Optional[Cell]] = []
    for v in (group.P, group.Q, group.R):
        r = r_T
        for _ in range(4):
            within = _in_disc(v, _lift_reach(group, system, r))
            lifts = _orbit_lifts((tile.matrix for tile in _tiles(group, within)),
                                 system.base_geodesics)
            if on_curve(v, lifts):
                cells.append(None)
                break
            verts, labels = cell_polygon(v, lifts)
            far = math.inf if None in labels else polygon_reach(v, verts)
            if far <= r:
                out = max(out, far)
                cells.append(tuple(verts))
                break
            r = min(far, 2.0 * r)
        else:
            raise EnumerationError(f"no cell about a vertex certified within "
                                   f"distance {r:.6f} of it")
    return out, tuple(cells)


def drawing_disc(group: TriangleGroup, system: CurveSystem, radius: float
                 ) -> tuple[float, tuple[Optional[Cell], ...]]:
    """(reach, cells) for drawing the cells whose cone points lie within
    `radius` of 0 (the vertex P of T).  The cells are those of P, Q and R
    (``_cell_radius``), and each drawn cell is the image g·cell(v) under the
    element g that carries v to its cone point, the true cell by group
    invariance.  So the drawn cells lie within X = radius + r_cell of 0
    (with a 1e-9 rounding margin), and the lifts of the tiles within
    reach = ``_lift_reach`` of 0 hold every lift meeting that disc."""
    r_cell, cells = _cell_radius(group, system)
    return _lift_reach(group, system, radius + r_cell + 1e-9), cells


# --- Adjacency ------------------------------------------------------------

class AdjacencyEntry(Value):
    __slots__ = ("element", "classification", "on_boundary_curve", "crossing")
    element: GroupElement
    classification: IsometryClass
    on_boundary_curve: Optional[bool]  # hyperbolic elements only
    crossing: Optional[int]            # hyperbolic elements only


class AdjacencyReport(Value):
    __slots__ = ("case", "base_center", "neighbor_center", "entries",
                 "elliptic", "hyperbolic", "parabolic")
    case: int
    base_center: complex
    neighbor_center: complex
    entries: tuple[AdjacencyEntry, ...]
    elliptic: int
    hyperbolic: int
    parabolic: int

    @property
    def total(self) -> int:
        return len(self.entries)


def _meetings(geo: Geodesic, lifts: Iterable[Geodesic]) -> tuple[bool, list[float]]:
    """Whether geo is one of the lifts (within 1e-7), and the axis parameter
    on geo of each crossing of another lift, read from the lift's ends
    (``geodesic_crossing``, which skips a lift whose chord does not cross
    geo's inside the disc on one sign test); a crossing at an angle below
    1e-6 raises TangencyError."""
    on_lift = False
    params: list[float] = []
    for lift in lifts:
        if same_geodesic(geo, lift, 1e-7):
            on_lift = True
            continue
        crossing = geodesic_crossing(geo, lift)
        if crossing is None:
            continue
        t, ang = crossing
        if ang < 1e-6:
            raise TangencyError(f"a curve lift meets the path at angle {ang:.2e}")
        params.append(t)
    return on_lift, params


def _clusters(ts: list[float], period: float = math.inf) -> int:
    """Runs of the sorted ts split at gaps over 1e-5, the period's wrap too."""
    ts = sorted(ts)
    runs = len(ts) and 1 + sum(b - a > 1e-5 for a, b in zip(ts, ts[1:]))
    if runs > 1 and ts[0] + period - ts[-1] <= 1e-5:
        runs -= 1
    return runs


def _disc_candidates(group: TriangleGroup, system: CurveSystem
                     ) -> tuple[float, list[tuple[complex, GroupElement]]]:
    """(D, the orbit points p = g·c0 of the cell centre c0 with
    0 < d(c0, p) <= D, each with the first tile g that reaches it, ranked by
    distance, then by coordinates).  D is the smallest nonzero
    d(c0, x·c0) over the generators x, so the nearest orbit points are among
    them.

    They come from the tiles of ``_tiles`` whose tile point lies within
    D + r_T of c0 (o and r_T of ``_tile_point``), and every p = g·c0 within
    D is among them.  Each tile met by the segment from c0 to p holds a point
    of it, within D of c0, so its tile point lies within D + r_T of c0.  The
    tiles and the black triangles between them are the chambers of T's
    reflection group; walking the segment, the next tile met either shares
    a vertex on the segment with the last one, and the tiles about a vertex
    are one generator step apart in turn, or lies beside the same black
    triangle, where two tiles share a vertex and are one step apart.  So the
    tiles met join the identity, about c0, to a tile about p in generator
    steps inside the disc; the tiles about p carry c0 to p, since no
    element carries one vertex of T to another.  Both radii carry a 1e-9
    rounding margin.
    """
    c0 = system.cell_center
    reach = min(d for d in (distance(apply(group.generator(letter), c0), c0)
                            for letter in ALPHABET) if d >= config.EPS_PT)
    in_disc = _in_disc(c0, reach + _tile_point(group)[1] + 1e-9)
    ranked = []
    for p, tile in _orbit(_tiles(group, in_disc), c0):
        d = distance(p, c0)
        if config.EPS_PT <= d <= reach + 1e-9:
            ranked.append(((round(d, 9), round(p.real, 9), round(p.imag, 9)),
                           p, tile))
    ranked.sort(key=operator.itemgetter(0))
    return reach, [(p, tile) for _, p, tile in ranked]


def canonical_neighbors(group: TriangleGroup, system: CurveSystem,
                        count: int = 2) -> list[tuple[complex, GroupElement]]:
    """The first `count` adjacent same-type tile centres among the orbit
    points of ``_disc_candidates``, each with its witness: the first tile of
    the disc search that carries the base centre c0 to it.  Any witness
    gives the same coset w·Stab(c0) (``adjacency_isometries``); in the five
    cases this one is also the first in shortlex ball order, the witness
    ``cell_tiling`` gives.  Fewer than `count` raises EnumerationError.

    A candidate orbit point is adjacent when the segment joining it to the
    base center meets the curve lifts in exactly one point (an edge interior
    for the vertical cases, the four-valent crossing vertex for the
    figure-eight cases).
    """
    c0 = system.cell_center
    reach, candidates = _disc_candidates(group, system)
    chosen: list[tuple[complex, GroupElement]] = []
    for p, witness in candidates:
        # The segment meets the lifts at the crossings strictly inside it.
        geo = geodesic_through(c0, p)
        lo, hi = sorted((axis_parameter(geo, c0), axis_parameter(geo, p)))
        ts = _meetings(geo, lifts_along(group, system, (c0, p)))[1]
        if _clusters([t for t in ts if lo + 1e-9 < t < hi - 1e-9]) != 1:
            continue
        chosen.append((p, witness))
        if len(chosen) == count:
            return chosen
    raise EnumerationError(f"{len(chosen)} of {count} adjacent tiles within "
                           f"distance {reach:.6f} of the cell centre")


def _coset_repeat(m: Entries, earlier: Sequence[Entries]) -> bool:
    """Whether m lies within ``config.EPS_BAND`` of an earlier coset matrix
    (``projective_dist``); a nearest in (EPS_BAND, 10·EPS_BAND) raises."""
    band = config.EPS_BAND
    nearest = min((projective_dist(m, e) for e in earlier), default=math.inf)
    if band < nearest < 10.0 * band:
        raise DedupAmbiguityError(f"candidates at ambiguous distance "
                                  f"{nearest:.3e} (dedup radius {band:.1e})")
    return nearest <= band


def adjacency_isometries(group: TriangleGroup, system: CurveSystem,
                         neighbor: Optional[tuple[complex, GroupElement]] = None
                         ) -> AdjacencyReport:
    """All group elements carrying the base tile center c0 to the neighbor
    tile center c1, classified; `neighbor` is c1 with a witness w, w·c0 = c1,
    by default the first of ``canonical_neighbors``.

    They are the coset w·Stab(c0).  The stabilizer of the cone point c0 is
    the cyclic group of order k generated by the rotation rho about it
    (Beardon, *The Geometry of Discrete Groups*, §10.6), so the elements are
    w, w·rho^-1, ..., w·rho^-(k-1).  Each one is checked to carry c0 to c1
    (a rho about another point misses) and to differ from the ones before
    (``_coset_repeat``: a rho of order below k repeats).
    """
    c0 = system.cell_center
    if neighbor is None:
        neighbor = canonical_neighbors(group, system, count=1)[0]
    c1, witness = neighbor
    letter = system.center_vertex.lower()
    step = group.generator(letter).entries()
    m, word = witness.matrix.entries(), witness.word
    entries = []
    counts = {IsometryKind.ELLIPTIC: 0, IsometryKind.HYPERBOLIC: 0,
              IsometryKind.PARABOLIC: 0}
    for _ in range(system.stabilizer_order):
        name = "".join(word) or "1"
        miss = distance(mobius(m, c0), c1)
        if miss > 10.0 * config.EPS_PT:
            raise EnumerationError(f"coset element {name} misses the "
                                   f"neighbor center by {miss:.2e}")
        if _coset_repeat(m, [e.element.matrix.entries() for e in entries]):
            raise EnumerationError(f"coset element {name} repeats an "
                                   "earlier one")
        el = GroupElement(word, Isometry(*m))
        cls = classify(el.matrix)
        if cls.kind is IsometryKind.IDENTITY:
            raise EnumerationError("identity cannot move a tile")
        counts[cls.kind] += 1
        on_curve = crossings = None
        if cls.kind is IsometryKind.HYPERBOLIC:
            on_curve, crossings = _axis_meetings(group, system, el.matrix)
        entries.append(AdjacencyEntry(el, cls, on_curve, crossings))
        m, word = compose_entries(m, step), word + (letter,)
    return AdjacencyReport(system.case, c0, c1, tuple(entries),
                           counts[IsometryKind.ELLIPTIC],
                           counts[IsometryKind.HYPERBOLIC],
                           counts[IsometryKind.PARABOLIC])


def _axis_meetings(group: TriangleGroup, system: CurveSystem,
                   m: Isometry) -> tuple[bool, int]:
    """Whether the axis of m is a curve lift, and its distinct crossings with
    the others per half-open period, near-tangential ones rejected: from the
    lifts along the path from the cell centre to its foot x0, then to m·x0."""
    axis = axis_of(m)  # a GeometryError unless m is hyperbolic
    period = classify(m).translation_length
    x0 = foot_of_perpendicular(axis, system.cell_center)
    path = (system.cell_center, x0, apply(m, x0))
    on_lift, ts = _meetings(axis, lifts_along(group, system, path))
    if not ts:
        raise EnumerationError("no curve crossings found along one period "
                               "of the axis")
    return on_lift, _clusters([t % period for t in ts], period)
