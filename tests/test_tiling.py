"""The tiling path against plain references: Klein chords, tile orbits,
cell clipping, and the balls a run enumerates."""
import math
from typing import Optional

import pytest

from orbiflow import cli, hyp2, render, trigroup
from orbiflow.hyp2 import GeometryError, apply
from orbiflow.trigroup import (CASE_TRIPLES, CASES, build_group, cell_tiling,
                               curve_lifts, curve_system, enumerate_elements)


def _reference_cell_polygon(center, lifts):
    """cell_polygon as it was before the Klein chords were cached: every
    lift's endpoints recomputed, and every lift within reach clipped."""
    k = hyp2.to_klein(center)
    kc = (k.real, k.imag)
    big = 8.0
    verts = [(-big, -big), (big, -big), (big, big), (-big, big)]
    labels: list[Optional[int]] = [None, None, None, None]
    for idx, lift in enumerate(lifts):
        a = (lift.u.real, lift.u.imag)
        b = (lift.v.real, lift.v.imag)
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
        new_v, new_l = [], []
        n = len(verts)
        changed = False
        for i in range(n):
            cur, nxt = verts[i], verts[(i + 1) % n]
            lab = labels[i]
            f_cur = nx * cur[0] + ny * cur[1] - c
            f_nxt = nx * nxt[0] + ny * nxt[1] - c
            if f_cur >= 0:
                new_v.append(cur)
                new_l.append(lab)
            if (f_cur >= 0) != (f_nxt >= 0):
                t = f_cur / (f_cur - f_nxt)
                x = (cur[0] + t * (nxt[0] - cur[0]), cur[1] + t * (nxt[1] - cur[1]))
                new_v.append(x)
                new_l.append(idx if f_cur >= 0 else lab)
                changed = True
            if f_cur < 0:
                changed = True
        if changed:
            verts, labels = new_v, new_l
        if not verts:
            raise GeometryError("cell clipped to nothing")
    cleaned_v, cleaned_l = [], []
    n = len(verts)
    for i in range(n):
        j = (i + 1) % n
        if math.hypot(verts[j][0] - verts[i][0], verts[j][1] - verts[i][1]) > 1e-12:
            cleaned_v.append(verts[i])
            cleaned_l.append(labels[i])
    return cleaned_v, cleaned_l


def _outcome(fn, *args):
    try:
        return fn(*args)
    except GeometryError as err:
        return ("raised", str(err))


def _bits(xs):
    return [x.hex() for x in xs]


@pytest.mark.parametrize("depth", (4, 5, 6))
@pytest.mark.parametrize("case", CASES)
def test_cell_polygon_matches_reference_on_every_drawn_tile(case, depth,
                                                            monkeypatch):
    # Every tile the drawing clips, the base and neighbour tiles included,
    # gives the same vertices and wall labels (or the same error) as the
    # reference, and so the same SVG.
    real = trigroup.cell_polygon
    centers = []

    def checked(center, lifts):
        centers.append(center)
        assert _outcome(real, center, lifts) == \
            _outcome(_reference_cell_polygon, center, lifts)
        return real(center, lifts)

    monkeypatch.setattr(trigroup, "cell_polygon", checked)
    render.tiling_svg(case, depth)
    assert len(centers) > 2


@pytest.mark.parametrize("case", CASES)
def test_klein_ends_match_the_boundary_points(case):
    # The ends of the chords are points of the unit circle: the lifts' ends,
    # and the ends of the geodesics through two points of the diameter from
    # -1 to 1 moved by the transport w -> (w + a)/(conj(a)·w + 1), the
    # images of -1 and 1.
    for geo in curve_lifts(case, 6):
        for w in (geo.u, geo.v):
            assert abs(abs(w) - 1.0) < 1e-12
    for a in (0.5 + 0.2j, -0.3j, 0.0j):
        def move(w):
            return (w + a) / (a.conjugate() * w + 1.0)
        low, high, ends = move(-0.4), move(0.3), (move(-1.0), move(1.0))
        for geo, (u, v) in ((hyp2.geodesic_through(low, high), ends),
                            (hyp2.geodesic_through(high, low), ends[::-1])):
            assert abs(geo.u - u) < 1e-12
            assert abs(geo.v - v) < 1e-12


@pytest.mark.parametrize("case", CASES)
def test_cell_tiling_matches_apply_reference(case):
    # Orbit of each cone point in the radius-5 ball: same points bit for
    # bit, same witnesses, in the same order, as apply gives.
    # With the whole disc as bound that is the full orbit; with a drawing's
    # bound, the points within it are the same first elements.
    group = build_group(*CASE_TRIPLES[case])
    for name in ("P", "Q", "R"):
        center = group.vertex(name)
        index = trigroup._GridIndex(1e-9)
        expected = []
        for el in enumerate_elements(group, 5):
            img = apply(el.matrix, center)
            if index.insert((img.real, img.imag)) is None:
                expected.append((img, el))
        for bound in (1.0, 0.55):
            got = [(p, el) for p, el in cell_tiling(group, center, 5, bound)
                   if _disc_norm(p) <= bound]
            assert [(_bits((p.real, p.imag)), el) for p, el in got] == \
                [(_bits((p.real, p.imag)), el) for p, el in expected
                 if _disc_norm(p) <= bound]
        assert len(got) < len(expected)


def _disc_norm(p):
    return p.real * p.real + p.imag * p.imag


@pytest.fixture
def ball_log(monkeypatch):
    """Start cold, as a fresh process does, and log each word ball asked
    for, as its group's triple and word-length radius."""
    log: list = []
    enumerate_elements.cache_clear()
    curve_system.cache_clear()
    curve_lifts.cache_clear()

    def logged(group, max_len, reach=math.inf):
        log.append(((group.p, group.q, group.r), max_len))
        return enumerate_elements(group, max_len, reach)

    monkeypatch.setattr(trigroup, "enumerate_elements", logged)
    yield log
    enumerate_elements.cache_clear()
    curve_system.cache_clear()
    curve_lifts.cache_clear()


@pytest.mark.parametrize("argv,balls", [
    (["verify", "--case", "344", "--depth", "16"], set()),
    (["tiling", "--case", "344", "--depth", "6"], {((3, 4, 4), 7)}),
    (["tiling", "--case", "344", "--depth", "5"], {((3, 4, 4), 6)}),
    (["verify", "--case", "344", "--depth", "6"], set()),
], ids=["verify-344-d16", "tiling-344-d6", "tiling-344-d5",
        "verify-344-d6"])
def test_run_builds_no_word_ball_or_only_the_drawn_one(argv, balls, ball_log,
                                                       tmp_path):
    # The searches of a verify run (the disc of neighbour candidates and
    # their witnesses, the tubes) walk the tiles and stop where they end.  A drawing builds the word ball of its
    # depth + 1, once: at depths 5 and 6 of 344 that ball's deepest word is
    # within the depth, so the search is complete and the drawing reads
    # that ball.
    out = ["--json", str(tmp_path / "r.json")] if argv[0] == "verify" \
        else ["--out", str(tmp_path / "t.svg")]
    assert cli.main(argv + out) == 0
    assert set(ball_log) == balls
    assert enumerate_elements.cache_info().misses == len(balls)


def test_verify_all_builds_no_ball_above_radius_three(ball_log, tmp_path):
    # No word ball at all: every search of the five cases is a walk over
    # tiles that stops at what it looks for.
    assert cli.main(["verify", "--case", "all",
                     "--json", str(tmp_path / "r.json")]) == 0
    assert ball_log == []
    assert enumerate_elements.cache_info().misses == 0


@pytest.mark.parametrize("argv,builds", [
    (["verify", "--case", "344", "--depth", "16"], 0),
    (["tiling", "--case", "344", "--depth", "6"], 1),
])
def test_run_builds_word_ball_lift_set_only_to_draw(argv, builds, ball_log,
                                                    tmp_path):
    out = ["--json", str(tmp_path / "r.json")] if argv[0] == "verify" \
        else ["--out", str(tmp_path / "t.svg")]
    assert cli.main(argv + out) == 0
    assert curve_lifts.cache_info().misses == builds


def _midpoint(a, b):
    geo = hyp2.geodesic_through(a, b)
    ta, tb = hyp2.axis_parameter(geo, a), hyp2.axis_parameter(geo, b)
    return hyp2.foot_on_axis(geo, ta + 0.5 * (tb - ta))


def _first_branch_in_ball(group, axis, pt):
    # The second branch as the first match in the whole radius-4 ball, with
    # the element that carries the axis to it.
    for el in enumerate_elements(group, 4):
        e = el.matrix.entries()
        img = hyp2.Geodesic(hyp2.mobius(e, axis.u), hyp2.mobius(e, axis.v))
        if hyp2.same_geodesic(img, axis, 1e-9):
            continue
        if hyp2.distance(pt, trigroup.foot_of_perpendicular(img, pt)) < 1e-9:
            return el, img
    raise AssertionError("no second branch in the radius-4 ball")


@pytest.mark.parametrize("case", (334, 344))
def test_second_branch_found_at_radius_one_is_the_ball_search_one(case,
                                                                  ball_log):
    # The stored second branch (the axis of its word) is the first image of
    # the first branch through the crossing that a ball search finds, at
    # word length one, with its ends in the same order.
    system = curve_system(case)
    assert ball_log == []
    group = build_group(*CASE_TRIPLES[case])
    axis, second = system.base_geodesics
    crossing = _midpoint(group.P, group.Q) if case == 334 \
        else _midpoint(group.Q, group.R)
    el, expected = _first_branch_in_ball(group, axis, crossing)
    assert len(el.word) == 1
    assert max(abs(second.u - expected.u), abs(second.v - expected.v)) < 1e-12


def _drawing(case, depth):
    """(X, the drawn lifts, each drawn cell as (centre, vertices, labels)):
    what `tiling_svg(case, depth)` clips against its lifts and draws.  A
    complete search draws the lifts of the ball of depth + 1, which holds
    the same tiles as that of the depth."""
    group = build_group(*CASE_TRIPLES[case])
    far, reach = trigroup.drawing_disc(group, curve_system(case),
                                       render._DRAWN_RADIUS)
    deeper = enumerate_elements(group, depth + 1, reach)
    assert len(deeper[-1].word) <= depth
    lifts = curve_lifts(case, depth + 1, reach)
    cells = []
    real = trigroup.cell_polygon

    def logged(center, walls):
        out = real(center, walls)
        if walls is lifts and None not in out[1]:
            cells.append((center,) + out)
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(trigroup, "cell_polygon", logged)
        render.tiling_svg(case, depth)
    return far, lifts, cells


def _meets_polygon(lift, verts):
    nx, ny, c, _ = lift.klein_line
    fs = [nx * x + ny * y - c for x, y in verts]
    return min(fs) < 0.0 < max(fs)


def _same_vertices(a, b):
    return len(a) == len(b) and all(
        min(math.hypot(x - u, y - v) for u, v in b) < 1e-9 for x, y in a)


def _completeness_faults(case):
    """What a drawing at a depth its disc search is not cut by misses
    against the word ball of its deepest word plus 2: the reference lifts
    that meet the X-disc or a drawn cell and are not drawn, and the drawn
    cells that differ from the reference cells."""
    group = build_group(*CASE_TRIPLES[case])
    reach = trigroup.drawing_disc(group, curve_system(case),
                                  render._DRAWN_RADIUS)[1]
    deepest = len(enumerate_elements(group, 64, reach)[-1].word)
    far, lifts, cells = _drawing(case, deepest + 1)
    reference = curve_lifts(case, deepest + 2)
    assert len(reference) > len(lifts) and len(cells) > 2
    faults = []
    origin = trigroup.DISC_ORIGIN
    for ref in reference:
        if any(hyp2.same_geodesic(ref, lift, 1e-9) for lift in lifts):
            continue
        if hyp2.distance(origin, trigroup.foot_of_perpendicular(
                ref, origin)) <= far:
            faults.append(f"lift ({ref.u}, {ref.v}) meets the X-disc")
        faults.extend(f"lift ({ref.u}, {ref.v}) meets the cell at {center}"
                      for center, verts, _ in cells
                      if _meets_polygon(ref, verts))
    for center, verts, labels in cells:
        ref_verts, ref_labels = trigroup.cell_polygon(center, reference)
        walls = [reference[i] for i in ref_labels]
        if not (_same_vertices(verts, ref_verts)
                and all(any(hyp2.same_geodesic(lifts[i], w, 1e-9)
                            for w in walls) for i in labels)):
            faults.append(f"cell at {center} differs from the reference")
    return faults


@pytest.fixture
def cold_disc():
    """Clear the caches a drawing's disc reads, before and after."""
    caches = (trigroup._cell_radius, curve_lifts, enumerate_elements)
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()


@pytest.mark.parametrize("case", CASES)
def test_drawing_holds_every_lift_and_cell_of_a_deeper_ball(case, cold_disc):
    # Drawn at a depth the disc search ends within, each case draws every
    # lift of the reference ball that meets a drawn cell or the X-disc, and
    # every drawn cell is the reference ball's cell.
    assert _completeness_faults(case) == []


@pytest.mark.parametrize("case", CASES)
def test_a_halved_cell_radius_fails_the_containment_check(case, cold_disc,
                                                         monkeypatch):
    # With half of r_cell in X, some drawn cell reaches beyond X, and the
    # drawing refuses to draw it.
    real = trigroup._cell_radius
    monkeypatch.setattr(trigroup, "_cell_radius",
                        lambda group, system: real(group, system) / 2.0)
    with pytest.raises(trigroup.EnumerationError, match="reaches beyond"):
        _completeness_faults(case)


def test_a_search_radius_without_rho_misses_a_lift(cold_disc, monkeypatch):
    # Without the tube radius rho in the search radius, 246 misses lifts
    # of the reference ball that meet the X-disc.
    monkeypatch.setattr(trigroup, "_lift_reach",
                        lambda group, system, radius: radius + 1e-9)
    faults = _completeness_faults(246)
    assert faults and all("meets the X-disc" in f for f in faults)


def test_drawing_344_depth_6_builds_the_disc_not_the_ball(cold_disc):
    # The timed drawing: 132 tiles and 96 lifts within the disc, against a
    # depth-6 word ball of 1203 elements and 792 lifts.
    group = build_group(*CASE_TRIPLES[344])
    reach = trigroup.drawing_disc(group, curve_system(344),
                                  render._DRAWN_RADIUS)[1]
    assert len(enumerate_elements(group, 6, reach)) == 132
    assert len(curve_lifts(344, 6, reach)) == 96
    assert (len(enumerate_elements(group, 6)), len(curve_lifts(344, 6))) \
        == (1203, 792)


# The deepest word of each case's disc search (``drawing_disc``).
DEEPEST = {237: 10, 245: 7, 246: 7, 334: 6, 344: 5}


@pytest.mark.parametrize("case,depth,code", [
    *((case, depth, 2) for case, depth in DEEPEST.items()), (344, 4, 0)])
def test_a_halved_disc_fails_every_complete_drawing(case, depth, code,
                                                    cold_disc, monkeypatch,
                                                    tmp_path, capsys):
    # With X halved and the search's reach kept, a drawn cell reaches beyond
    # X.  A drawing at its search's deepest word is complete, though that
    # word is as long as the depth, so it checks its cells and refuses; 344
    # at depth 4 cuts the search and draws its cells uncertified.
    group = build_group(*CASE_TRIPLES[case])
    reach = trigroup.drawing_disc(group, curve_system(case),
                                  render._DRAWN_RADIUS)[1]
    assert len(enumerate_elements(group, 64, reach)[-1].word) == DEEPEST[case]
    real = trigroup.drawing_disc

    def halved(*args):
        far, reach = real(*args)
        return far / 2.0, reach

    monkeypatch.setattr(trigroup, "drawing_disc", halved)
    assert cli.main(["tiling", "--case", str(case), "--depth", str(depth),
                     "--out", str(tmp_path / "t.svg")]) == code
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == (code == 2)
    assert all(line.startswith(f"error: enumeration (trigroup): case {case}: "
                               "a drawn cell reaches beyond distance")
               for line in lines)


@pytest.mark.parametrize("fault,depth,code", [
    ("open side", 6, 2), ("open side", 4, 0),
    ("geometry", 6, 2), ("geometry", 4, 2)])
def test_a_drawing_drops_no_cell_it_can_certify(fault, depth, code, cold_disc,
                                                monkeypatch, tmp_path, capsys):
    # The first drawn cell of 344 planted with an open side, or failing to
    # clip.  The certified drawing (depth 6) stops with one error line for
    # either; one whose depth cuts its search (4) leaves the open cell out,
    # uncertified, but a clipping failure, which no depth mends, stops it.
    group = build_group(*CASE_TRIPLES[344])
    # r_cell first: its search clips cells of its own, before the plant.
    trigroup.drawing_disc(group, curve_system(344), render._DRAWN_RADIUS)
    real = trigroup.cell_polygon
    calls = []

    def planted(center, lifts):
        verts, labels = real(center, lifts)
        calls.append(center)
        if len(calls) == 1:
            if fault == "geometry":
                raise GeometryError("planted clipping failure")
            labels = [None] + labels[1:]
        return verts, labels

    monkeypatch.setattr(trigroup, "cell_polygon", planted)
    assert cli.main(["tiling", "--case", "344", "--depth", str(depth),
                     "--out", str(tmp_path / "t.svg")]) == code
    lines = capsys.readouterr().err.splitlines()
    if code == 0:
        assert lines == [] and len(calls) > 1
    elif fault == "geometry":
        assert lines == ["error: geometry (trigroup): case 344: planted "
                         "clipping failure"]
    else:
        [line] = lines
        assert line.startswith("error: enumeration (trigroup): case 344: "
                               "the drawn cell about (")
        assert line.endswith(") has an open side")
