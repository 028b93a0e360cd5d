import hashlib
import itertools
import json
import math
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbiflow import intlinalg, surgery, torusmap
from orbiflow.surgery import (AbelianGroup, SlopeCoefficient, SurgerySpec,
                              gamma1, gamma2, section_to_slope, seifert_h1,
                              surgered_h1, verify_theorem_h1)
from orbiflow.torusmap import RationalPoint


def mat_mul(A, B):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)]
            for row in A]


def det(M):
    """Exact determinant by the Leibniz formula: a sum over permutations,
    signed by their inversion count."""
    n = len(M)
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i, j in
                         itertools.combinations(range(n), 2))
        total += (-1) ** inversions * math.prod(M[i][perm[i]]
                                                for i in range(n))
    return total


def check_certificate(M):
    """The invariant factors of M, after checking the Smith normal form
    certificate: U*M*V = D diagonal, U and V unimodular, d1 | d2 | ..."""
    D, U, V = intlinalg.smith_normal_form(M)
    assert mat_mul(mat_mul(U, M), V) == D
    for i, row in enumerate(D):
        for j, v in enumerate(row):
            if i != j:
                assert v == 0
    assert abs(det(U)) == 1
    assert abs(det(V)) == 1
    factors = tuple(D[i][i] for i in range(min(len(D), len(D[0]))))
    nonzero = [f for f in factors if f != 0]
    for a, b in zip(nonzero, nonzero[1:]):
        assert b % a == 0
    return factors


def test_snf_identity():
    assert check_certificate([[1, 0], [0, 1]]) == (1, 1)


def test_snf_cat_minus_identity():
    # Hand reduction: (1,1;1,0) has unit determinant, so factors (1,1).
    assert check_certificate([[1, 1], [1, 0]]) == (1, 1)


def test_snf_diagonal_kept():
    assert check_certificate([[2, 0], [0, 4]]) == (2, 4)


def test_snf_divisibility_fixup():
    assert check_certificate([[2, 0], [0, 3]]) == (1, 6)


def test_snf_random_certificates():
    rng = random.Random(20)
    for _ in range(200):
        M = [[rng.randint(-20, 20) for _ in range(4)] for _ in range(4)]
        check_certificate(M)


def test_abelian_group_order_and_str():
    g = AbelianGroup.from_relation_rows([[2, 0], [0, 4]], 2)
    assert g.invariant_factors == (2, 4)
    assert g.order() == 8
    free = AbelianGroup.from_relation_rows([[0, 0]], 2)
    assert free.order() is None


def test_gamma_orbits():
    assert gamma1().period == 1
    g2 = gamma2()
    assert g2.period == 2
    fracs = {p.as_fractions() for p in g2.points}
    assert (Fraction(3, 5), Fraction(1, 5)) in fracs
    assert (Fraction(2, 5), Fraction(4, 5)) in fracs


@pytest.mark.parametrize("a,order", [(1, 1), (2, 2), (3, 3), (4, 4)])
def test_surgered_h1_gamma1_small(a, order):
    grp = surgered_h1(SurgerySpec(gamma1(), SlopeCoefficient(1, a)))
    assert grp.order() == order


def test_surgered_h1_order_law():
    for a in range(1, 11):
        for b in (1, -1):
            grp = surgered_h1(SurgerySpec(gamma1(), SlopeCoefficient(b, a)))
            assert grp.order() == a


def test_slope_laws_up_to_100():
    # +-1/a fillings: |H1| = a on gamma1 and 4a on gamma2, whatever the sign.
    for orbit, factor in ((gamma1(), 1), (gamma2(), 4)):
        for a in range(1, 101):
            plus = surgered_h1(SurgerySpec(orbit, SlopeCoefficient(1, a)))
            minus = surgered_h1(SurgerySpec(orbit, SlopeCoefficient(-1, a)))
            assert plus.order() == factor * a, (orbit, a)
            assert minus == plus, (orbit, a)


def test_fillings_match_golden():
    # Invariant factors of the +-1/a fillings on both orbits, a = 1..100.
    golden = json.loads((Path(__file__).parent / "data" /
                         "surgery_sweep.json").read_text())
    assert len(golden) == 400
    orbits = {"gamma1": gamma1(), "gamma2": gamma2()}
    for row in golden:
        group = surgered_h1(SurgerySpec(orbits[row["orbit"]],
                                        SlopeCoefficient(row["b"], row["a"])))
        assert list(group.invariant_factors) == row["factors"], row


def test_surgered_h1_gamma2():
    assert surgered_h1(SurgerySpec(gamma2(), SlopeCoefficient(1, 1))).order() == 4
    assert surgered_h1(SurgerySpec(gamma2(), SlopeCoefficient(1, 2))).order() == 8


def test_surgered_h1_sign_symmetry():
    for orbit in (gamma1(), gamma2()):
        for (b, a) in [(1, 1), (1, 2), (1, 3), (3, 2)]:
            plus = surgered_h1(SurgerySpec(orbit, SlopeCoefficient(b, a)))
            minus = surgered_h1(SurgerySpec(orbit, SlopeCoefficient(-b, a)))
            assert plus == minus


def test_surgered_h1_rejects_non_orbit():
    fake = torusmap.CatOrbit((RationalPoint.of(Fraction(1, 3), 0),))
    with pytest.raises(ValueError):
        surgered_h1(SurgerySpec(fake, SlopeCoefficient(1, 1)))


def test_surgered_h1_zero_surgery_recovers_mapping_torus():
    # The 1/0 filling undoes the drilling: H1 of the mapping torus of A is
    # Z (the suspension class) plus coker(A - I), trivial as det(A - I) = -1.
    grp = surgered_h1(SurgerySpec(gamma1(), SlopeCoefficient(1, 0)))
    assert grp == AbelianGroup((0,))


SEIFERT_ORDERS = {(2, 3, 7): 1, (2, 4, 5): 2, (3, 3, 4): 3,
                  (2, 4, 6): 4, (3, 4, 4): 8}


@pytest.mark.parametrize("triple,order", sorted(SEIFERT_ORDERS.items()))
def test_seifert_h1_orders(triple, order):
    grp = seifert_h1(*triple)
    assert grp.order() == order
    p, q, r = triple
    M = [[p, 0, 0, 1], [0, q, 0, 1], [0, 0, r, 1], [1, 1, 1, 1]]
    assert abs(det(M)) == order


@pytest.mark.parametrize("triple", sorted(SEIFERT_ORDERS))
def test_seifert_h1_mirror_convention(triple):
    # The orientation-reversed invariants, fibers (n, n - 1) and b0 = -2,
    # present the same homology.
    p, q, r = triple
    rows = [[p, 0, 0, p - 1], [0, q, 0, q - 1], [0, 0, r, r - 1],
            [1, 1, 1, 2]]
    assert seifert_h1(*triple) == AbelianGroup.from_relation_rows(rows, 4)


def test_seifert_rejects_euclidean():
    with pytest.raises(ValueError):
        seifert_h1(2, 3, 6)


def test_theorem_rows_all_match():
    rows = verify_theorem_h1()
    assert len(rows) == 5
    assert all(r.match for r in rows)
    orders = [r.surgered.order() for r in rows]
    assert orders == [1, 2, 3, 4, 8]


@pytest.mark.parametrize("direction,slope", [((1, 1), "1/1"), ((2, 1), "1/2"),
                                             ((3, 1), "1/3")])
def test_section_to_slope(direction, slope):
    assert str(section_to_slope(direction)) == slope


def test_section_to_slope_rejects():
    with pytest.raises(ValueError):
        section_to_slope((1, 0))
    with pytest.raises(ValueError):
        section_to_slope((1, -1))
    with pytest.raises(ValueError):
        section_to_slope((2, 2))


def test_slope_validation():
    with pytest.raises(ValueError):
        SlopeCoefficient(2, 4)
    with pytest.raises(ValueError):
        SlopeCoefficient(2, 0)


# --- Integer winding against a rational reference ---------------------------
#
# The reference runs the same crossing tests on the Fractions themselves.

def _ref_orient(a, b, c):
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _ref_cross_sign(p, q, r, s):
    d1, d2 = _ref_orient(r, s, p), _ref_orient(r, s, q)
    d3, d4 = _ref_orient(p, q, r), _ref_orient(p, q, s)
    if (d1 < 0 < d2 or d2 < 0 < d1) and (d3 < 0 < d4 or d4 < 0 < d3):
        return 1 if d1 < 0 else -1
    if d1 == 0 and d2 == 0:
        lo1, hi1 = sorted((p, q))
        lo2, hi2 = sorted((r, s))
        if max(lo1, lo2) <= min(hi1, hi2):
            raise surgery.DegenerateChoiceError("collinear overlap")
        return 0

    def on(d, x, a, b):
        return (d == 0 and min(a[0], b[0]) <= x[0] <= max(a[0], b[0])
                and min(a[1], b[1]) <= x[1] <= max(a[1], b[1]))

    if on(d1, p, r, s) or on(d2, q, r, s):
        raise surgery.DegenerateChoiceError("segment endpoint on arc")
    if on(d3, r, p, q) or on(d4, s, p, q):
        raise surgery.DegenerateChoiceError("arc endpoint on segment")
    return 0


def _ref_torus_cross(cycle, arc):
    (rx, ry), (sx, sy) = arc
    total = 0
    for p, q in zip(cycle, cycle[1:]):
        if p == q:
            continue
        xs = range(math.floor(min(p[0], q[0]) - max(rx, sx)),
                   math.floor(max(p[0], q[0]) - min(rx, sx)) + 2)
        ys = range(math.floor(min(p[1], q[1]) - max(ry, sy)),
                   math.floor(max(p[1], q[1]) - min(ry, sy)) + 2)
        for vx in xs:
            for vy in ys:
                total += _ref_cross_sign(p, q, (rx + vx, ry + vy),
                                         (sx + vx, sy + vy))
    return total


def _outcome(fn, *args):
    try:
        return fn(*args)
    except surgery.DegenerateChoiceError as err:
        return str(err)


def _fractions(lo, hi, den):
    # Fractions in [lo, hi] with denominators up to den.
    return st.builds(lambda d, n: lo + Fraction(n % ((hi - lo) * d + 1), d),
                     st.integers(1, den), st.integers(0, (hi - lo) * den))


points = st.tuples(_fractions(-3, 3, 12), _fractions(-3, 3, 12))
unit = _fractions(-1, 2, 6)


def _along(a, b, t):
    return (a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1]))


# A random segment and arc, or one of the planted degeneracies: an arc on the
# segment's line (overlapping or not), or an endpoint of either on the other.
configurations = st.one_of(
    st.tuples(points, points, points, points),
    st.builds(lambda p, q, t, u: (p, q, _along(p, q, t), _along(p, q, u)),
              points, points, unit, unit),
    st.builds(lambda r, s, p, t: (p, _along(r, s, t), r, s),
              points, points, points, unit),
    st.builds(lambda p, q, s, t: (p, q, _along(p, q, t), s),
              points, points, points, unit),
)


def _scaled(*pts):
    L = math.lcm(*(f.denominator for v in pts for f in v))
    return [(int(x * L), int(y * L)) for x, y in pts]


@given(configurations)
@settings(max_examples=300, deadline=None)
def test_integer_cross_sign_matches_rational(config):
    assert (_outcome(surgery._segment_cross_sign, *_scaled(*config))
            == _outcome(_ref_cross_sign, *config))


near_points = st.tuples(_fractions(0, 1, 12), _fractions(0, 1, 12))


@given(near_points, st.lists(near_points, min_size=1, max_size=4),
       st.tuples(st.integers(-1, 1), st.integers(-1, 1)),
       near_points, near_points, unit, unit)
@settings(max_examples=150, deadline=None)
def test_integer_torus_cross_matches_rational(start, path, shift, r, s, t, u):
    # A closed polyline mod Z^2 (it ends at an integer translate of its
    # start) against a random arc, an arc from one of its vertices, an arc
    # along the line of its first segment, and an arc from a point on it.
    cycle = [start] + path + [(start[0] + shift[0], start[1] + shift[1])]
    a, b = cycle[0], cycle[1]
    for arc in ((r, s), (b, s), (_along(a, b, t), _along(a, b, u)),
                (_along(a, b, t), s)):
        assert (_outcome(surgery._torus_cross, cycle, arc)
                == _outcome(_ref_torus_cross, cycle, arc))


def test_complements_unchanged():
    # The slope-free rows and longitude classes, as the crossing tests on
    # Fractions give them.
    F = Fraction
    assert surgery._complement(gamma1()) == (
        ((0, 0, 1, 0), (1, 1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 0)),
        (F(0), F(0), F(0), F(1)))
    assert surgery._complement(gamma2()) == (
        ((0, 0, 1, 1, 0), (1, 1, 1, 0, 0), (1, 0, 0, 0, 0), (0, 0, -1, 1, 0),
         (0, 0, 1, -1, 0)),
        (F(2), F(1), F(0), F(0), F(2)))


# --- Orbits of period 3 and more ----------------------------------------------

def _cat_orbits(max_period):
    """Every orbit of the cat map of period at most `max_period`, each from
    its least point (by denominator, then numerators), in that order."""
    cat = torusmap.CAT
    points = set()
    for n in range(1, max_period + 1):
        P = cat.power(n)
        M = [[P.a - 1, P.b], [P.c, P.d - 1]]
        points.update(RationalPoint.of(x, y) for x, y in intlinalg.solve_mod1(M))
    seen, orbits = set(), []
    for p in sorted(points, key=lambda p: (p.den, p.num_x, p.num_y)):
        if p not in seen:
            orbit = torusmap.orbit_of(cat, p)
            seen.update(orbit.points)
            orbits.append(orbit)
    return orbits


@pytest.fixture(scope="module")
def short_orbits():
    orbits = _cat_orbits(6)
    # 1 + 2 + 5 + 10 + 24 + 50 orbits of periods 1 to 6.
    assert [o.period for o in orbits].count(6) == 50 and len(orbits) == 92
    return orbits


def test_complements_of_short_orbits_unchanged(short_orbits):
    # sha256 of the rows and longitudes of all 92 orbits, as ints in JSON.
    # The pin was computed independently of the running sums: by rational
    # elimination against the crossing counts of square puncture loops.
    values = [surgery._complement(o) for o in short_orbits]
    normal = [[[list(r) for r in rows], [int(v) for v in lon]]
              for rows, lon in values]
    digest = hashlib.sha256(json.dumps(normal).encode()).hexdigest()
    assert digest == ("79c1985111f1bce8ac6c177881ed4e6bb772455b"
                      "23253c4ab348ad8c33956942")


def test_zero_filling_of_short_orbits_is_the_mapping_torus(short_orbits):
    for orbit in short_orbits:
        grp = surgered_h1(SurgerySpec(orbit, SlopeCoefficient(1, 0)))
        assert grp == AbelianGroup((0,)), orbit


def _square_loop(p, rho, s):
    # A small quadrilateral counterclockwise about p, its vertex slopes set
    # by s.
    x, y = p
    return [(x + rho, y + rho / s), (x - rho / (s + 4), y + rho),
            (x - rho, y - rho / (s + 2)), (x + rho / (s + 6), y - rho),
            (x + rho, y + rho / s)]


def _loop_pairing(p, arcs, salt):
    """Crossings with each arc of a small loop about p.  A loop with a
    vertex on an arc is degenerate, and the next size and shape is tried."""
    for t in range(8):
        loop = _square_loop(p, Fraction(1, 257 + salt + t), 7 + salt + t)
        try:
            return [surgery._torus_cross(loop, arc) for arc in arcs]
        except surgery.DegenerateChoiceError:
            pass
    raise AssertionError(f"every loop about {p} is degenerate")


def test_puncture_loops_pair_with_the_arcs_by_layout(short_orbits):
    # The loop about puncture j crosses arc j (leaving j) once from right to
    # left and arc j-1 (arriving at j) once from left to right; one
    # puncture's arc leaves and arrives at it, so its loop pairs to 0.
    for orbit in short_orbits:
        pts = [p.as_fractions() for p in orbit.points]
        c = len(pts)
        for salt in range(6):
            arcs = surgery.PuncturedTorusBasis(pts, salt).arcs
            for j, p in enumerate(pts):
                want = [0 if c == 1 else (i == j) - (i == (j - 1) % c)
                        for i in range(c)]
                assert _loop_pairing(p, arcs, salt) == want, (orbit, salt, j)


def test_open_polyline_has_no_winding_class():
    basis = surgery.PuncturedTorusBasis([(Fraction(1, 3), Fraction(2, 3))])
    path = [(Fraction(1, 5), Fraction(1, 7)), (Fraction(1, 2), Fraction(1, 7))]
    with pytest.raises(surgery.WindingError, match="does not close"):
        basis.cycle_class(path)


def test_import_surgery_loads_only_the_surgery_layer():
    # The surgery layer needs neither the hyperbolic geometry nor the
    # section combinatorics; a fresh interpreter importing it must not load them.
    src = str(Path(surgery.__file__).resolve().parents[1])
    code = ("import sys, orbiflow.surgery; "
            "print(' '.join(sorted(m for m in sys.modules if m.startswith('orbiflow'))))")
    out = subprocess.run([sys.executable, "-c", code], check=True, text=True,
                         capture_output=True, env={"PYTHONPATH": src}).stdout.split()
    assert "orbiflow.surgery" in out
    for heavy in ("orbiflow.trigroup", "orbiflow.hyp2", "orbiflow.sections"):
        assert heavy not in out
    # Its one addition is the import-free table of the paper's rows.
    assert out == ["orbiflow", "orbiflow.config", "orbiflow.intlinalg",
                   "orbiflow.surgery", "orbiflow.torusmap"]
