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


@pytest.mark.parametrize("case", CASES)
def test_cell_polygon_matches_reference_on_every_vertex_cell(case,
                                                           monkeypatch):
    # Every cell that ``_cell_radius`` clips about a vertex of T, the cells
    # a drawing moves into place, gives the same vertices and wall labels
    # (or the same error) as the reference.
    real = trigroup.cell_polygon
    centers = []

    def checked(center, lifts):
        centers.append(center)
        assert _outcome(real, center, lifts) == \
            _outcome(_reference_cell_polygon, center, lifts)
        return real(center, lifts)

    monkeypatch.setattr(trigroup, "cell_polygon", checked)
    trigroup._cell_radius.cache_clear()
    try:
        cells = trigroup._cell_radius(build_group(*CASE_TRIPLES[case]),
                                      curve_system(case))[1]
    finally:
        trigroup._cell_radius.cache_clear()
    assert len(centers) >= sum(cell is not None for cell in cells) >= 1


def _drawn_cells(tmp_path, case, depth):
    """The Klein vertices of each cell that ``orbiflow tiling --case case``
    draws, with ``--depth depth`` unless depth is None."""
    cells = []
    real = render.cell_path

    def logged(verts):
        cells.append(list(verts))
        return real(verts)

    budget = [] if depth is None else ["--depth", str(depth)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(render, "cell_path", logged)
        assert cli.main(["tiling", "--case", str(case), *budget,
                         "--out", str(tmp_path / "t.svg")]) == 0
    return cells


def _cell_about_centroid(verts, lifts):
    """``cell_polygon`` clipped by the lifts about the Klein centroid of the
    convex polygon verts, a point inside it: if verts is a cell of the
    lifts, that is verts again."""
    k = complex(sum(x for x, _ in verts), sum(y for _, y in verts)) / len(verts)
    return trigroup.cell_polygon(hyp2.from_klein(k), lifts)[0]


@pytest.mark.parametrize("depth", (1, 2, 3, 4, 5, 6, None))
@pytest.mark.parametrize("case", CASES)
def test_cell_polygon_matches_reference_on_every_drawn_tile(case, depth,
                                                            tmp_path):
    # Every drawn tile is the true cell, at every budget and by default (no
    # budget): its Klein vertices lie within 1e-6 of those of the cell of
    # the complete walk's lifts about a point inside it.  Those lifts hold
    # every lift meeting the disc that holds the drawn cells.
    group = build_group(*CASE_TRIPLES[case])
    reach = trigroup.drawing_disc(group, curve_system(case),
                                  render._DRAWN_RADIUS)[0]
    lifts = curve_lifts(case, math.inf, reach)
    cells = _drawn_cells(tmp_path, case, depth)
    assert len(cells) > 2
    wrong = [verts for verts in cells
             if not _same_vertices(verts, _cell_about_centroid(verts, lifts),
                                   1e-6)]
    assert wrong == [], f"{len(wrong)} of {len(cells)} drawn cells are wrong"


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
    (["tiling", "--case", "344", "--depth", "6"], {((3, 4, 4), 6)}),
    (["tiling", "--case", "344", "--depth", "5"], {((3, 4, 4), 5)}),
    (["tiling", "--case", "344"], {((3, 4, 4), math.inf)}),
    (["verify", "--case", "344", "--depth", "6"], set()),
], ids=["verify-344-d16", "tiling-344-d6", "tiling-344-d5", "tiling-344",
        "verify-344-d6"])
def test_run_builds_no_word_ball_or_only_the_drawn_one(argv, balls, ball_log,
                                                       tmp_path):
    # The searches of a verify run (the disc of neighbour candidates and
    # their witnesses, the tubes) walk the tiles and stop where they end.
    # A drawing builds the word ball of its depth, cut to its disc, once;
    # with no budget, the walk of the whole disc.
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


def _drawing(tmp_path, case):
    """(X, the drawn lifts, the Klein vertices of each drawn cell): what
    ``orbiflow tiling --case case`` draws with no budget, its drawn cells
    within the disc of X about 0."""
    group, system = build_group(*CASE_TRIPLES[case]), curve_system(case)
    reach = trigroup.drawing_disc(group, system, render._DRAWN_RADIUS)[0]
    far = render._DRAWN_RADIUS + trigroup._cell_radius(group, system)[0] + 1e-9
    cells = _drawn_cells(tmp_path, case, None)
    return far, curve_lifts(case, math.inf, reach), cells


def _meets_polygon(lift, verts):
    nx, ny, c, _ = lift.klein_line
    fs = [nx * x + ny * y - c for x, y in verts]
    return min(fs) < 0.0 < max(fs)


def _same_vertices(a, b, tol=1e-9):
    return len(a) == len(b) and all(
        min(math.hypot(x - u, y - v) for u, v in q) < tol
        for p, q in ((a, b), (b, a)) for x, y in p)


def _completeness_faults(tmp_path, case):
    """What a drawing with no budget misses against the word ball of its
    disc search's deepest word plus 2: the reference lifts that meet the
    X-disc or a drawn cell and are not drawn, and the drawn cells that
    differ from the reference cells."""
    group = build_group(*CASE_TRIPLES[case])
    reach = trigroup.drawing_disc(group, curve_system(case),
                                  render._DRAWN_RADIUS)[0]
    deepest = len(enumerate_elements(group, math.inf, reach)[-1].word)
    far, lifts, cells = _drawing(tmp_path, case)
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
        faults.extend(f"lift ({ref.u}, {ref.v}) meets the cell {verts}"
                      for verts in cells if _meets_polygon(ref, verts))
    faults.extend(f"cell {verts} differs from the reference"
                  for verts in cells
                  if not _same_vertices(
                      verts, _cell_about_centroid(verts, reference)))
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
def test_drawing_holds_every_lift_and_cell_of_a_deeper_ball(case, cold_disc,
                                                            tmp_path):
    # Drawn with no budget, each case draws every lift of the reference ball
    # that meets a drawn cell or the X-disc, and every drawn cell is the
    # reference ball's cell.
    assert _completeness_faults(tmp_path, case) == []


def test_a_search_radius_without_rho_misses_a_lift(cold_disc, monkeypatch,
                                                   tmp_path):
    # Without the tube radius rho in the search radius, 246 misses lifts
    # of the reference ball that meet the X-disc.
    monkeypatch.setattr(trigroup, "_lift_reach",
                        lambda group, system, radius: radius + 1e-9)
    faults = _completeness_faults(tmp_path, 246)
    assert faults and all("meets the X-disc" in f for f in faults)


def test_drawing_344_depth_6_builds_the_disc_not_the_ball(cold_disc):
    # The timed drawing: 132 tiles and 96 lifts within the disc, against a
    # depth-6 word ball of 1203 elements and 792 lifts.
    group = build_group(*CASE_TRIPLES[344])
    reach = trigroup.drawing_disc(group, curve_system(344),
                                  render._DRAWN_RADIUS)[0]
    assert len(enumerate_elements(group, 6, reach)) == 132
    assert len(curve_lifts(344, 6, reach)) == 96
    assert (len(enumerate_elements(group, 6)), len(curve_lifts(344, 6))) \
        == (1203, 792)


# The deepest word of each case's disc search (``drawing_disc``).
DEEPEST = {237: 10, 245: 7, 246: 7, 334: 6, 344: 5}


@pytest.mark.parametrize("case", CASES)
def test_tiling_default_draws_the_whole_disc(case, tmp_path):
    # With no budget the disc search stops where the disc ends, so the
    # default drawing is the one whose budget is the search's deepest word.
    group = build_group(*CASE_TRIPLES[case])
    reach = trigroup.drawing_disc(group, curve_system(case),
                                  render._DRAWN_RADIUS)[0]
    assert len(enumerate_elements(group, math.inf, reach)[-1].word) \
        == DEEPEST[case]
    out = {}
    for name, budget in (("default", []),
                         ("deepest", ["--depth", str(DEEPEST[case])])):
        out[name] = tmp_path / f"{name}.svg"
        assert cli.main(["tiling", "--case", str(case), *budget,
                         "--out", str(out[name])]) == 0
    assert out["default"].read_bytes() == out["deepest"].read_bytes()


@pytest.mark.parametrize("fault,depth,code", [
    ("open side", 6, 0), ("open side", 4, 0),
    ("geometry", 6, 2), ("geometry", 4, 2)])
def test_a_drawing_drops_no_cell_it_can_certify(fault, depth, code, cold_disc,
                                                monkeypatch, tmp_path, capsys):
    # The first vertex cell of 344 planted with an open side, or failing to
    # clip.  An open side sends ``_cell_radius`` to a larger disc, which
    # certifies the cell, so the drawing at every depth is the unplanted
    # one; a clipping failure, which no disc mends, stops it with one error
    # line.
    argv = ["tiling", "--case", "344", "--depth", str(depth), "--out"]
    assert cli.main(argv + [str(tmp_path / "plain.svg")]) == 0
    trigroup._cell_radius.cache_clear()
    capsys.readouterr()
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
    assert cli.main(argv + [str(tmp_path / "t.svg")]) == code
    lines = capsys.readouterr().err.splitlines()
    if code == 0:
        assert lines == [] and len(calls) > 3
        assert (tmp_path / "t.svg").read_bytes() == \
            (tmp_path / "plain.svg").read_bytes()
    else:
        assert lines == ["error: geometry (trigroup): case 344: planted "
                         "clipping failure"]
