"""Static SVG drawings of the curve-lift tilings in the Poincare disc.

Points and geodesic ends are already points of the disc and of its circle
(``hyp2``), and a point w is drawn at (Re w, -Im w), since the SVG y axis
points down; Klein-polygon cells are carried into the disc here.  Output is
deterministic: fixed float formatting, fixed iteration order.
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


def _klein_xy(kx: float, ky: float) -> tuple[float, float]:
    n = kx * kx + ky * ky
    s = 1.0 / (1.0 + math.sqrt(max(1.0 - n, 0.0)))
    return s * kx, -s * ky


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
            pts.append(_klein_xy(x0 + t * (x1 - x0), y0 + t * (y1 - y0)))
    head = f"M {_fmt(pts[0][0])} {_fmt(pts[0][1])} "
    body = " ".join(f"L {_fmt(x)} {_fmt(y)}" for x, y in pts[1:])
    return head + body + " Z"


def tiling_svg(case: int, depth: int) -> str:
    """Disc-model drawing: curve lifts, cone-point tiles by family, the base
    and neighbor tiles highlighted, and the hyperbolic adjacency axes."""
    if case not in trigroup.CASES:
        raise ValueError(f"unknown case {case}")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    group = trigroup.build_group(*trigroup.CASE_TRIPLES[case])
    system = trigroup.curve_system(case)
    # The only lift set a run builds: the lifts of the tiles of the word
    # ball whose tile points lie within reach of 0.  They hold every lift
    # that meets the disc of radius far about 0 (``trigroup.drawing_disc``)
    # unless the depth cuts the search, so only a complete search certifies
    # its cells: one more word length adds no tile.  Then the ball of
    # depth + 1 holds the same tiles, and the drawing reads it; only a search
    # that the depth cuts also builds the ball of the depth.
    far, reach = trigroup.drawing_disc(group, system, _DRAWN_RADIUS)
    complete = len(trigroup.enumerate_elements(
        group, depth + 1, reach)[-1].word) <= depth
    drawn = depth + 1 if complete else depth
    lifts = trigroup.curve_lifts(case, drawn, reach)
    adjacency = trigroup.adjacency_isometries(group, system)

    def certified(verts):
        """verts, checked to lie within far of 0 when the search is
        complete: then a cell drawn is the true one."""
        if complete and trigroup.polygon_reach(
                trigroup.DISC_ORIGIN, verts) > far:
            raise trigroup.EnumerationError(
                f"a drawn cell reaches beyond distance {far:.6f} of the "
                "disc centre")
        return verts

    def draw_cell(point, style):
        """Draw the cell about point, certified.  An open cell is an error in
        a certified drawing; one that is not certified leaves it out."""
        verts, labels = trigroup.cell_polygon(point, lifts)
        if None not in labels:
            parts.append(f'<path d="{cell_path(certified(verts))}" {style}/>')
        elif complete:
            raise trigroup.EnumerationError(
                f"the drawn cell about ({point.real:.6f}, {point.imag:.6f}) "
                "has an open side")

    parts: list[str] = []
    parts.append(
        '<svg xmlns="http://www.w3.org/2000/svg" width="640" height="640" '
        'viewBox="-1.05 -1.05 2.1 2.1">')
    parts.append('<rect x="-1.05" y="-1.05" width="2.1" height="2.1" fill="white"/>')
    parts.append('<circle cx="0" cy="0" r="1" fill="none" stroke="#444444" '
                 'stroke-width="0.006"/>')

    # Tiles around every cone-point family not lying on the curve itself.
    for name in ("P", "Q", "R"):
        vertex = group.vertex(name)
        # Within far of 0, so that the lifts through it are drawn.
        k = hyp2.to_klein(vertex)
        certified([(k.real, k.imag)])
        if trigroup.on_curve(vertex, lifts):
            continue
        stroke, fill = _FAMILY_STYLES[name]
        # Only the orbit points within the drawn disc, |w|^2 <= _DRAWN: the
        # orbit skips those beyond it (with a margin) before its dedup, and
        # the exact test here picks out the drawn ones.
        orbit = trigroup.cell_tiling(group, vertex, drawn, _DRAWN, reach)
        for point, _ in orbit:
            if point.real * point.real + point.imag * point.imag > _DRAWN:
                continue
            draw_cell(point, f'fill="{fill}" fill-opacity="0.45" '
                             f'stroke="{stroke}" stroke-width="0.003"')

    # Base and neighbor tiles of the distinguished family, highlighted.
    for point, color in ((adjacency.base_center, "#ffd92f"),
                         (adjacency.neighbor_center, "#fc8d62")):
        draw_cell(point, f'fill="{color}" fill-opacity="0.8" '
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
