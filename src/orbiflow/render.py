"""Static SVG drawings of the curve-lift tilings in the Poincare disc.

Points and geodesic ends are already points of the disc and of its circle
(``hyp2``), and a point w is drawn at (Re w, -Im w), since the SVG y axis
points down; Klein-polygon cells are carried into the disc here.  Each cell
about a cone point g·v, v a vertex of the base triangle, is drawn as the
image g·cell(v) of v's certified cell (``trigroup.drawing_disc``), so it is
the true cell by group invariance, whatever budget cuts the search for the
tiles.  Output is deterministic: fixed float formatting, fixed iteration
order.
"""
from __future__ import annotations

import math

from . import hyp2, trigroup
from .hyp2 import Geodesic, IsometryKind

_FAMILY_STYLES = {
    "P": ("#1f77b4", "#c6dbef"),
    "Q": ("#2ca02c", "#c7e9c0"),
    "R": ("#d62728", "#fcbba1"),
}

_DRAWN = 0.55  # the cone-point tiles drawn: points w with |w|^2 <= this
# ... that is, within this distance of 0: |w| = tanh(d/2).
_DRAWN_RADIUS = 2.0 * math.atanh(math.sqrt(_DRAWN))


def _fmt(x: float) -> str:
    v = f"{x:.6f}"
    return "0.000000" if v == "-0.000000" else v


def geodesic_path(geo: Geodesic) -> str:
    """SVG path of the disc-model arc of a complete geodesic."""
    # SVG y axis points down
    ux, uy, vx, vy = geo.u.real, -geo.u.imag, geo.v.real, -geo.v.imag
    dot = ux * vx + uy * vy
    if dot < -1.0 + 1e-9:  # diameter
        return f"M {_fmt(ux)} {_fmt(uy)} L {_fmt(vx)} {_fmt(vy)}"
    cx = (ux + vx) / (1.0 + dot)
    cy = (uy + vy) / (1.0 + dot)
    r = math.sqrt(max(cx * cx + cy * cy - 1.0, 0.0))
    cross = (ux - cx) * (vy - cy) - (uy - cy) * (vx - cx)
    sweep = 1 if cross > 0 else 0
    return (f"M {_fmt(ux)} {_fmt(uy)} "
            f"A {_fmt(r)} {_fmt(r)} 0 0 {sweep} {_fmt(vx)} {_fmt(vy)}")


def cell_path(vertices: list[tuple[float, float]]) -> str:
    """Closed path of a Klein-polygon cell, 12 samples a side so sides curve
    correctly in the disc model."""
    pts: list[tuple[float, float]] = []
    n = len(vertices)
    for i in range(n):
        x0, y0 = vertices[i]
        x1, y1 = vertices[(i + 1) % n]
        for s in range(12):
            t = s / 12
            w = hyp2.from_klein(complex(x0 + t * (x1 - x0),
                                        y0 + t * (y1 - y0)))
            pts.append((w.real, -w.imag))
    head = f"M {_fmt(pts[0][0])} {_fmt(pts[0][1])} "
    body = " ".join(f"L {_fmt(x)} {_fmt(y)}" for x, y in pts[1:])
    return head + body + " Z"


def tiling_svg(case: int, depth: float) -> str:
    """Disc-model drawing: curve lifts, cone-point tiles by family, the base
    and neighbor tiles highlighted, and the hyperbolic adjacency axes.
    `depth` is the word-length budget of the search for the tiles within the
    drawn disc, math.inf for none."""
    if case not in trigroup.CASES:
        raise ValueError(f"unknown case {case}")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    group = trigroup.build_group(*trigroup.CASE_TRIPLES[case])
    system = trigroup.curve_system(case)
    # Every lift that meets a drawn cell, unless the depth cuts the search.
    reach, cells = trigroup.drawing_disc(group, system, _DRAWN_RADIUS)
    lifts = trigroup.curve_lifts(case, depth, reach)
    adjacency = trigroup.adjacency_isometries(group, system)

    def draw_cell(g, cell, style):
        """Draw g·cell: an isometry moves Klein lines to Klein lines, so it
        moves the polygon by its vertices."""
        e = g.entries()
        moved = [hyp2.to_klein(hyp2.mobius(e, hyp2.from_klein(complex(x, y))))
                 for x, y in cell]
        path = cell_path([(k.real, k.imag) for k in moved])
        parts.append(f'<path d="{path}" {style}/>')

    parts: list[str] = []
    parts.append(
        '<svg xmlns="http://www.w3.org/2000/svg" width="640" height="640" '
        'viewBox="-1.05 -1.05 2.1 2.1">')
    parts.append('<rect x="-1.05" y="-1.05" width="2.1" height="2.1" fill="white"/>')
    parts.append('<circle cx="0" cy="0" r="1" fill="none" stroke="#444444" '
                 'stroke-width="0.006"/>')

    # Tiles around every cone-point family not lying on the curve itself.
    for name, cell in zip("PQR", cells):
        if cell is None:
            continue
        stroke, fill = _FAMILY_STYLES[name]
        # Only the orbit points within the drawn disc, |w|^2 <= _DRAWN: the
        # orbit skips those beyond it (with a margin) before its dedup, and
        # the exact test here picks out the drawn ones.
        orbit = trigroup.cell_tiling(group, group.vertex(name), depth,
                                     _DRAWN, reach)
        for point, el in orbit:
            if point.real * point.real + point.imag * point.imag > _DRAWN:
                continue
            draw_cell(el.matrix, cell, f'fill="{fill}" fill-opacity="0.45" '
                                       f'stroke="{stroke}" stroke-width="0.003"')

    # Base and neighbor tiles of the distinguished family, highlighted: the
    # cell of the centre vertex and its image under the coset's witness.
    base = cells["PQR".index(system.center_vertex)]
    for g, color in ((hyp2.Isometry.identity(), "#ffd92f"),
                     (adjacency.entries[0].element.matrix, "#fc8d62")):
        draw_cell(g, base, f'fill="{color}" fill-opacity="0.8" '
                           'stroke="#555555" stroke-width="0.004"')

    for lift in lifts:
        parts.append(f'<path d="{geodesic_path(lift)}" fill="none" '
                     'stroke="#333333" stroke-width="0.004"/>')

    for entry in adjacency.entries:
        if entry.classification.kind is IsometryKind.HYPERBOLIC:
            axis = hyp2.axis_of(entry.element.matrix)
            parts.append(f'<path d="{geodesic_path(axis)}" fill="none" '
                         'stroke="#e41a1c" stroke-width="0.006" '
                         'stroke-dasharray="0.02 0.012"/>')

    for point, color in ((adjacency.base_center, "#b8860b"),
                         (adjacency.neighbor_center, "#a0522d")):
        parts.append(f'<circle cx="{_fmt(point.real)}" '
                     f'cy="{_fmt(-point.imag)}" r="0.012" '
                     f'fill="{color}"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
