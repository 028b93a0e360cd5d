"""The tiling path against plain references: Klein chords, tile orbits,
cell clipping, and the balls a run enumerates."""
import math
from typing import Optional

import pytest

from orbiflow import cli, hyp2, render, trigroup
from orbiflow.hyp2 import INF, Geodesic, GeometryError, apply, to_disc
from orbiflow.trigroup import (CASE_TRIPLES, CASES, build_group, cell_tiling,
                               curve_lifts, curve_system, enumerate_elements)


def _klein_boundary_point(t):
    # Klein endpoint of one ideal point, computed from scratch.
    a = hyp2.boundary_angle(t)
    return (math.cos(a), math.sin(a))


def _reference_cell_polygon(center, lifts):
    """cell_polygon as it was before the Klein chords were cached: every
    lift's endpoints recomputed, and every lift within reach clipped."""
    kc = hyp2.to_klein(center)
    big = 8.0
    verts = [(-big, -big), (big, -big), (big, big), (-big, big)]
    labels: list[Optional[int]] = [None, None, None, None]
    for idx, lift in enumerate(lifts):
        a = _klein_boundary_point(lift.u)
        b = _klein_boundary_point(lift.v)
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
    lifts = curve_lifts(case, 6)
    extra = (Geodesic(INF, 0.5), Geodesic(-2.0, INF), Geodesic(INF, 0.0))
    for geo in lifts + extra:
        a, b = geo.klein_ends
        assert _bits(a) == _bits(_klein_boundary_point(geo.u))
        assert _bits(b) == _bits(_klein_boundary_point(geo.v))


@pytest.mark.parametrize("case", CASES)
def test_cell_tiling_matches_apply_reference(case):
    # Orbit of each cone point in the radius-5 ball: same points bit for
    # bit, same witnesses, in the same order, as apply and to_disc give.
    # With the whole disc as bound that is the full orbit; with a drawing's
    # bound, the points within it are the same first elements.
    group = build_group(*CASE_TRIPLES[case])
    for name in ("P", "Q", "R"):
        center = group.vertex(name)
        index = trigroup._GridIndex(1e-9)
        expected = []
        for el in enumerate_elements(group, 5):
            img = apply(el.matrix, center)
            if index.insert(to_disc(img)) is None:
                expected.append((img, el))
        for bound in (1.0, 0.55):
            got = [(p, el) for p, el in cell_tiling(group, center, 5, bound)
                   if _disc_norm(p) <= bound]
            assert [(_bits((p.x, p.y)), el) for p, el in got] == \
                [(_bits((p.x, p.y)), el) for p, el in expected
                 if _disc_norm(p) <= bound]
        assert len(got) < len(expected)


def _disc_norm(p):
    dx, dy = to_disc(p)
    return dx * dx + dy * dy


@pytest.fixture
def ball_log(monkeypatch):
    """Start cold, as a fresh process does, and log each word ball asked
    for, as its group's triple and radius."""
    log: list = []
    enumerate_elements.cache_clear()
    curve_system.cache_clear()
    curve_lifts.cache_clear()

    def logged(group, max_len):
        log.append(((group.p, group.q, group.r), max_len))
        return enumerate_elements(group, max_len)

    monkeypatch.setattr(trigroup, "enumerate_elements", logged)
    yield log
    enumerate_elements.cache_clear()
    curve_system.cache_clear()
    curve_lifts.cache_clear()


@pytest.mark.parametrize("argv,balls", [
    (["verify", "--case", "344", "--depth", "16"], set()),
    (["tiling", "--case", "344", "--depth", "6"], {((3, 4, 4), 6)}),
    (["verify", "--case", "344", "--depth", "6"], set()),
], ids=["verify-344-d16", "tiling-344-d6", "verify-344-d6"])
def test_run_builds_no_word_ball_or_only_the_drawn_one(argv, balls, ball_log,
                                                       tmp_path):
    # The searches of a verify run (the second branch, the tube axes, the
    # disc of neighbour candidates and their witnesses, the tubes) walk the
    # tiles and stop where they end; a drawing builds one word ball, of its
    # depth, once.
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


def _first_branch_in_ball(group, axis, pt):
    # The second branch as the first match in the whole radius-4 ball, with
    # the element that carries the axis to it.
    for el in enumerate_elements(group, 4):
        img = hyp2.apply_geodesic(el.matrix, axis)
        if hyp2.same_geodesic_angles(img.angles, axis.angles, 1e-9):
            continue
        if hyp2.distance(pt, trigroup.foot_of_perpendicular(img, pt)) < 1e-9:
            return el, img
    raise AssertionError("no second branch in the radius-4 ball")


@pytest.mark.parametrize("case", (334, 344))
def test_second_branch_found_at_radius_one_is_the_ball_search_one(case,
                                                                  ball_log):
    system = curve_system(case)
    assert ball_log == []
    group = build_group(*CASE_TRIPLES[case])
    axis, second = system.base_geodesics
    crossing = trigroup.midpoint(group.P, group.Q) if case == 334 \
        else trigroup.midpoint(group.Q, group.R)
    el, expected = _first_branch_in_ball(group, axis, crossing)
    assert len(el.word) == 1
    assert _bits((second.u, second.v)) == _bits((expected.u, expected.v))
