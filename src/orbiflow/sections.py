"""Combinatorial ribbon-surface encodings of the five genus-1 sections.

Each section is stored as polygons with directed-edge identifications plus
labels on the unpaired (boundary) edges recording how the boundary winds
around its periodic orbit: a longitudinal contribution, a meridional
contribution, and the local turning at the desingularization points of the
figure-eight cases.  The encodings are constants; every derived quantity
(Euler characteristic, orientability, boundary components and directions,
turning totals, blow-down genus) is computed from them independently, which
is what validates the transcription.

Complex conventions: a polygon is a cyclic sequence of slots (edge id,
orientation); an interior edge occurs exactly twice with opposite
orientations (orientable gluing), a boundary edge exactly once.
"""
from __future__ import annotations

from fractions import Fraction

from . import ChainError, Value
from .trigroup import AdjacencyReport, CASES
from .hyp2 import IsometryKind

Half = Fraction(1, 2)


class ComplexError(ChainError, ValueError):
    """Inconsistent polygon complex."""
    kind = "complex (sections)"


class BoundaryLabel(Value):
    __slots__ = ("longitudinal", "meridional", "turning")
    longitudinal: Fraction
    meridional: Fraction
    turning: Fraction  # meridional turn at the desingularization point, or 0


class SectionComplex(Value):
    __slots__ = ("polygons", "boundary")
    polygons: tuple[tuple[tuple[str, int], ...], ...]
    boundary: tuple[tuple[str, BoundaryLabel], ...]


class BoundaryComponent(Value):
    __slots__ = ("edges", "a", "b", "primitive")
    edges: tuple[str, ...]
    a: int                      # longitudinal winding (meridian intersections)
    b: int                      # meridional winding (stable-trace intersections)
    primitive: tuple[int, int]  # (a, b) divided by gcd


class FirstReturnSummary(Value):
    __slots__ = ("interior_fixed", "total_fixed")
    interior_fixed: int
    total_fixed: int


def _label(longitudinal, meridional) -> BoundaryLabel:
    return BoundaryLabel(Fraction(longitudinal), Fraction(meridional),
                         Fraction(0))


def _build_sections() -> dict[int, SectionComplex]:
    out: dict[int, SectionComplex] = {}

    # 237: half-fiber rectangle over the doubled altitude; the vertical sides
    # (the fiber over the order-2 point) glue to each other with a half shift.
    poly237 = (("bot", 1), ("x", 1), ("y", 1), ("top", 1), ("x", -1), ("y", -1))
    out[237] = SectionComplex(
        (poly237,),
        (("bot", _label(Half, Half)), ("top", _label(Half, Half))))

    # 245: full-fiber rectangle over the doubled edge b; four ribbon pieces
    # over the order-4 fiber, each top glued to the next piece's bottom.
    poly245 = (("bot", 1), ("e1", 1), ("e2", 1), ("e3", 1), ("e4", 1),
               ("top", 1), ("e3", -1), ("e2", -1), ("e1", -1), ("e4", -1))
    out[245] = SectionComplex(
        (poly245,),
        (("bot", _label(1, Half)), ("top", _label(1, Half))))

    # 246: full-fiber rectangle over the doubled edge c; six pieces over the
    # order-6 fiber, tops to adjacent bottoms and middles to opposite middles,
    # which folds into the three-piece antidiagonal pattern below.
    poly246 = (("bot", 1), ("e1", 1), ("e2", 1), ("e3", 1),
               ("top", 1), ("e1", -1), ("e2", -1), ("e3", -1))
    out[246] = SectionComplex(
        (poly246,),
        (("bot", _label(1, 1)), ("top", _label(1, 1))))

    # 334: two hexagons with alternating sides cross-identified; boundary
    # edges alternate between the two polygons along a single component.
    hex1 = (("g0", 1), ("u0", 1), ("g1", 1), ("u1", 1), ("g2", 1), ("u2", 1))
    hex2 = (("g0", -1), ("v0", 1), ("g1", -1), ("v1", 1), ("g2", -1), ("v2", 1))
    labels334 = []
    for i, e in enumerate(("u0", "u1", "u2", "v0", "v1", "v2")):
        turn = -Half if i < 4 else Half
        labels334.append((e, BoundaryLabel(Half, -turn, turn)))
    out[334] = SectionComplex((hex1, hex2), tuple(labels334))

    # 344: two octagons with alternating sides cross-identified; two boundary
    # components of four edges each.
    oct1 = (("g0", 1), ("u0", 1), ("g1", 1), ("u1", 1),
            ("g2", 1), ("u2", 1), ("g3", 1), ("u3", 1))
    oct2 = (("g0", -1), ("v0", 1), ("g1", -1), ("v1", 1),
            ("g2", -1), ("v2", 1), ("g3", -1), ("v3", 1))
    comps = _boundary_edge_cycles((oct1, oct2))
    labels344 = {}
    for comp in comps:
        for j, edge in enumerate(comp):
            turn = -Half if j < 3 else Half
            labels344[edge] = BoundaryLabel(Half, -turn, turn)
    out[344] = SectionComplex((oct1, oct2), tuple(sorted(labels344.items())))
    return out


def section(case: int) -> SectionComplex:
    """The hard-coded complex of one of the five sections."""
    if case not in CASES:
        raise ValueError(f"unknown case {case}")
    return _SECTIONS[case]


# --- Complex combinatorics -------------------------------------------------

def _occurrences(polys):
    occ: dict[str, list[tuple[int, int, int]]] = {}
    for pi, poly in enumerate(polys):
        for si, (e, o) in enumerate(poly):
            occ.setdefault(e, []).append((pi, si, o))
    for e, lst in occ.items():
        if len(lst) > 2:
            raise ComplexError(f"edge {e} used {len(lst)} times")
        if len(lst) == 2 and lst[0][2] + lst[1][2] != 0:
            raise ComplexError(f"edge {e} glued orientation-reversingly")
    return occ


def check_orientable(S: SectionComplex) -> bool:
    """Gluings must match +1 with -1 slots; _occurrences raises otherwise."""
    _occurrences(S.polygons)
    return True


def euler_characteristic(S: SectionComplex) -> int:
    polys = S.polygons
    occ = _occurrences(polys)
    parent: dict[tuple[int, int], tuple[int, int]] = {}

    def find(x):
        root = x
        while parent.setdefault(root, root) != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(a, b):
        parent[find(a)] = find(b)

    def origin(pi, si):
        return (pi, si)

    def terminus(pi, si):
        return (pi, (si + 1) % len(polys[pi]))

    for e, lst in occ.items():
        if len(lst) == 2:
            (p1, s1, o1), (p2, s2, o2) = lst
            if o1 == -1:
                (p1, s1), (p2, s2) = (p2, s2), (p1, s1)
            union(origin(p1, s1), terminus(p2, s2))
            union(terminus(p1, s1), origin(p2, s2))
    corners = {find((pi, si)) for pi, poly in enumerate(polys)
               for si in range(len(poly))}
    return len(corners) - len(occ) + len(polys)


def _boundary_edge_cycles(polys) -> list[list[str]]:
    occ = _occurrences(polys)
    partner: dict[tuple[int, int], tuple[int, int]] = {}
    for e, lst in occ.items():
        if len(lst) == 2:
            partner[lst[0][:2]] = lst[1][:2]
            partner[lst[1][:2]] = lst[0][:2]

    def nxt(d):
        pi, si = d
        return (pi, (si + 1) % len(polys[pi]))

    boundary_darts = [lst[0][:2] for e, lst in occ.items() if len(lst) == 1]
    cycles: list[list[str]] = []
    seen: set[tuple[int, int]] = set()
    for start in boundary_darts:
        if start in seen:
            continue
        cyc: list[str] = []
        d = start
        while True:
            seen.add(d)
            cyc.append(polys[d[0]][d[1]][0])
            e = nxt(d)
            while e in partner:
                e = nxt(partner[e])
            d = e
            if d == start:
                break
        cycles.append(cyc)
    return cycles


def boundary_components(S: SectionComplex) -> list[BoundaryComponent]:
    labels = dict(S.boundary)
    comps = []
    for cyc in _boundary_edge_cycles(S.polygons):
        a = sum(labels[e].longitudinal for e in cyc)
        b = sum(labels[e].meridional for e in cyc)
        if a.denominator != 1 or b.denominator != 1:
            raise ComplexError(f"non-integer boundary direction ({a}, {b})")
        a, b = int(a), int(b)
        if b <= 0:
            raise ComplexError(f"boundary direction has b = {b} <= 0")
        from math import gcd
        m = gcd(abs(a), b) or 1
        comps.append(BoundaryComponent(tuple(cyc), a, b, (a // m, b // m)))
    comps.sort(key=lambda c: c.edges)
    return comps


def meridional_turning(S: SectionComplex) -> tuple[Fraction, bool]:
    """Total turning, plus whether turning data applies to this complex:
    it does when some boundary label turns.

    The vertical constructions (237, 245, 246) carry no turning points and
    report (0, False).
    """
    applicable = any(lab.turning != 0 for _, lab in S.boundary)
    return sum((lab.turning for _, lab in S.boundary), Fraction(0)), applicable


def blow_down_genus(S: SectionComplex) -> int:
    chi = euler_characteristic(S)
    n = len(boundary_components(S))
    num = 2 - chi - n
    if num % 2 != 0 or num < 0:
        raise ComplexError(f"inconsistent complex: chi={chi}, {n} boundary "
                           "components do not close to a surface")
    return num // 2


def separatrix_count(S: SectionComplex) -> list[int]:
    """Singular half-leaves of the extended foliations per boundary component
    (2b each)."""
    return [2 * c.b for c in boundary_components(S)]


def first_return_summary(adjacency: AdjacencyReport) -> FirstReturnSummary:
    """Fixed-point count of the blown-down first-return map.

    Interior fixed points are the hyperbolic tile-adjacency isometries whose
    axis does not lie on a lift of the boundary curve and whose axis meets
    the curve lifts exactly once per period; the boundary orbit contributes a
    fixed point exactly when it carries a single boundary component.
    """
    if adjacency.parabolic:
        raise ComplexError("parabolic adjacency element in a cocompact group")
    c = len(boundary_components(section(adjacency.case)))
    interior = 0
    for entry in adjacency.entries:
        if entry.classification.kind is IsometryKind.HYPERBOLIC:
            if entry.on_boundary_curve is None or entry.crossing is None:
                raise ComplexError("hyperbolic entry missing axis data")
            if not entry.on_boundary_curve and entry.crossing == 1:
                interior += 1
    return FirstReturnSummary(interior, interior + (1 if c == 1 else 0))


_SECTIONS = _build_sections()
