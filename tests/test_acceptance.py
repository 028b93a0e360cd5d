"""Acceptance suite: every verification target at its stated tolerance.

Each criterion prints one PASS/FAIL line (run pytest -s to see them all).
"""
import itertools
import json
import math
import random
import time
from fractions import Fraction

import pytest

from orbiflow import cli, hyp2, intlinalg, sections, surgery, torusmap, trigroup

CASES = trigroup.CASES


def _mat_mul(A, B):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)]
            for row in A]


def _det(M):
    # Exact Leibniz determinant: permutations signed by inversion count.
    n = len(M)
    pairs = list(itertools.combinations(range(n), 2))
    return sum((-1) ** sum(p[i] > p[j] for i, j in pairs)
               * math.prod(M[i][p[i]] for i in range(n))
               for p in itertools.permutations(range(n)))


def _criterion(num: int, description: str, ok: bool):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {num} failed: {description}"


@pytest.fixture(scope="module")
def adjacency_reports():
    out = {}
    timings = {}
    for case in CASES:
        group = trigroup.build_group(*trigroup.CASE_TRIPLES[case])
        system = trigroup.curve_system(case)
        t0 = time.monotonic()
        out[case] = trigroup.adjacency_isometries(group, system)
        timings[case] = time.monotonic() - t0
    return out, timings


def test_criterion_1_adjacency_counts(adjacency_reports):
    reports, timings = adjacency_reports
    expected = {237: (7, 5, 2), 245: (5, 3, 2), 246: (4, 3, 1),
                334: (4, 2, 2), 344: (3, 2, 1)}
    counts_ok = all(
        (reports[c].total, reports[c].elliptic, reports[c].hyperbolic)
        == expected[c] for c in CASES)
    runtime_ok = all(t < 30.0 for t in timings.values())
    _criterion(1, "adjacency counts (7,5,2) (5,3,2) (4,3,1) (4,2,2) (3,2,1), "
                  f"each case under 30 s (max {max(timings.values()):.2f} s)",
               counts_ok and runtime_ok)


def test_criterion_2_euler_characteristics():
    expected = {237: -1, 245: -1, 246: -2, 334: -1, 344: -2}
    actual = {c: sections.euler_characteristic(sections.section(c))
              for c in CASES}
    cross = all(
        actual[c] == 2 - 2 * sections.blow_down_genus(sections.section(c))
        - len(sections.boundary_components(sections.section(c)))
        for c in CASES)
    _criterion(2, "Euler characteristics (-1,-1,-2,-1,-2), cross-checked "
                  "against genus and boundary counts",
               actual == expected and cross)


def test_criterion_3_boundary_data():
    comp_counts = {}
    dirs = {}
    slopes = {}
    genus = {}
    for c in CASES:
        comps = sections.boundary_components(sections.section(c))
        comp_counts[c] = len(comps)
        dirs[c] = sorted(x.primitive for x in comps)
        slopes[c] = str(surgery.section_to_slope(comps[0].primitive))
        genus[c] = sections.blow_down_genus(sections.section(c))
    total_344 = tuple(
        sum(getattr(x, f) for x in
            sections.boundary_components(sections.section(344)))
        for f in ("a", "b"))
    ok = (comp_counts == {237: 1, 245: 1, 246: 2, 334: 1, 344: 2}
          and dirs == {237: [(1, 1)], 245: [(2, 1)], 246: [(1, 1), (1, 1)],
                       334: [(3, 1)], 344: [(2, 1), (2, 1)]}
          and total_344 == (4, 2)
          and slopes == {237: "1/1", 245: "1/2", 246: "1/1",
                         334: "1/3", 344: "1/2"}
          and all(genus[c] == 1 for c in CASES))
    _criterion(3, "boundary components (1,1,2,1,2), directions and slopes "
                  "per theorem rows, blow-down genus 1 everywhere", ok)


def test_criterion_4_turning_and_separatrices():
    t334, app334 = sections.meridional_turning(sections.section(334))
    t344, app344 = sections.meridional_turning(sections.section(344))
    sep334 = sections.separatrix_count(sections.section(334))
    sep344 = sections.separatrix_count(sections.section(344))
    ok = (app334 and t334 == -1 and app344 and t344 == -2
          and sep334 == [2] and sum(sep344) == 4)
    _criterion(4, "turning numbers -1 (334) and -2 (344); separatrix counts "
                  "2 and 4", ok)


def test_criterion_5_fixed_point_certification(adjacency_reports):
    reports, _ = adjacency_reports
    totals = {}
    splits_ok = True
    for c in CASES:
        s = sections.first_return_summary(reports[c])
        totals[c] = s.total_fixed
        boundary_fixed = s.total_fixed - s.interior_fixed == 1
        n_boundary = len(sections.boundary_components(sections.section(c)))
        if c in (237, 245, 334):
            splits_ok &= boundary_fixed and s.interior_fixed == 0
        else:
            splits_ok &= (not boundary_fixed and n_boundary == 2
                          and s.interior_fixed == 1)
    t0 = time.monotonic()
    unique = torusmap.trace3_uniqueness()
    trace3_time = time.monotonic() - t0
    ok = (all(v == 1 for v in totals.values()) and splits_ok and unique
          and trace3_time < 1.0)
    _criterion(5, "one fixed point per case with the stated boundary/interior "
                  "split; trace-3 uniqueness at every word length in "
                  f"{trace3_time:.3f} s", ok)


def test_criterion_6_cat_dynamics():
    t0 = time.monotonic()
    cat = torusmap.CAT
    det_counts = [torusmap.periodic_point_count(cat, n) for n in range(1, 5)]
    brute = []
    for n in range(1, 5):
        P = cat.power(n)
        det = abs((P.a - 1) * (P.d - 1) - P.b * P.c)
        cnt = 0
        for ix in range(det):
            for iy in range(det):
                x, y = Fraction(ix, det), Fraction(iy, det)
                if ((P.a * x + P.b * y) % 1, (P.c * x + P.d * y) % 1) == (x, y):
                    cnt += 1
        brute.append(cnt)
    o1 = torusmap.orbit_of(cat, torusmap.RationalPoint.of(Fraction(3, 5),
                                                          Fraction(1, 5)))
    o2 = torusmap.orbit_of(cat, torusmap.RationalPoint.of(Fraction(1, 5),
                                                          Fraction(2, 5)))
    elapsed = time.monotonic() - t0
    ok = (det_counts == brute and o1.period == 2 and o2.period == 2
          and not set(o1.points) & set(o2.points) and elapsed < 1.0)
    _criterion(6, f"periodic point counts match brute force for n <= 4 and "
                  f"the period-2 orbits are distinct ({elapsed:.3f} s)", ok)


def test_criterion_7_homology_cross_check():
    t0 = time.monotonic()
    rows = surgery.verify_theorem_h1()
    orders = [r.surgered.order() for r in rows]
    seifert_orders = [r.seifert.order() for r in rows]
    order_law = all(
        surgery.surgered_h1(surgery.SurgerySpec(
            surgery.gamma1(), surgery.SlopeCoefficient(b, a))).order() == a
        for a in range(1, 11) for b in (1, -1))
    signs = all(
        surgery.surgered_h1(surgery.SurgerySpec(orb, surgery.SlopeCoefficient(
            -slope.b, slope.a)))
        == surgery.surgered_h1(surgery.SurgerySpec(orb, slope))
        for orb, slope in [(surgery.gamma1(), surgery.SlopeCoefficient(1, 1)),
                           (surgery.gamma1(), surgery.SlopeCoefficient(1, 2)),
                           (surgery.gamma1(), surgery.SlopeCoefficient(1, 3)),
                           (surgery.gamma2(), surgery.SlopeCoefficient(1, 1)),
                           (surgery.gamma2(), surgery.SlopeCoefficient(1, 2))])
    elapsed = time.monotonic() - t0
    ok = (all(r.match for r in rows) and orders == [1, 2, 3, 4, 8]
          and seifert_orders == [1, 2, 3, 4, 8] and order_law and signs
          and elapsed < 1.0)
    _criterion(7, f"filling homology matches Seifert homology on all five "
                  f"rows with orders (1,2,3,4,8); |H1| = a law; slope-sign "
                  f"symmetry ({elapsed:.3f} s)", ok)


def test_criterion_8_property_suites():
    rng = random.Random(2024)

    def random_point():
        # The disc image (z - i)/(z + i) of a point z = x + iy of the upper
        # half-plane, |x| <= 3, 0.1 <= y <= 4.
        z = complex(rng.uniform(-3, 3), rng.uniform(0.1, 4))
        return (z - 1j) / (z + 1j)

    def random_isometry():
        g = hyp2.Isometry.identity()
        for _ in range(rng.randint(1, 4)):
            g = g.compose(hyp2.rotation_about(random_point(),
                                              rng.uniform(-math.pi, math.pi)))
        return g

    homo_ok = True
    dist_ok = True
    for _ in range(1000):
        g, h = random_isometry(), random_isometry()
        p, q = random_point(), random_point()
        lhs = hyp2.apply(g.compose(h), p)
        rhs = hyp2.apply(g, hyp2.apply(h, p))
        homo_ok &= hyp2.distance(lhs, rhs) < 1e-7
        dist_ok &= abs(hyp2.distance(hyp2.apply(g, p), hyp2.apply(g, q))
                       - hyp2.distance(p, q)) < 1e-7

    snf_ok = True
    for _ in range(200):
        M = [[rng.randint(-20, 20) for _ in range(4)] for _ in range(4)]
        D, U, V = intlinalg.smith_normal_form(M)
        snf_ok &= _mat_mul(_mat_mul(U, M), V) == D
        snf_ok &= all(D[i][j] == 0
                      for i in range(4) for j in range(4) if i != j)
        snf_ok &= abs(_det(U)) == 1
        snf_ok &= abs(_det(V)) == 1
        nz = [D[i][i] for i in range(4) if D[i][i] != 0]
        snf_ok &= all(b % a == 0 for a, b in zip(nz, nz[1:]))

    word = torusmap.X.power(2) * torusmap.Y * torusmap.X * torusmap.Y.power(2)
    base = torusmap.xy_normal_form(word)
    conj_ok = True
    for _ in range(100):
        P = torusmap.IDENTITY
        for _ in range(rng.randint(1, 8)):
            P = P * rng.choice([torusmap.X, torusmap.Y,
                                torusmap.X.inverse(), torusmap.Y.inverse()])
        conj_ok &= torusmap.xy_normal_form(P * word * P.inverse()) == base

    _criterion(8, "isometry-action homomorphism and distance invariance on "
                  "1000 samples (1e-7); SNF certificates on random 4x4 "
                  "matrices; word-form conjugation invariance on 100 "
                  "conjugators", homo_ok and dist_ok and snf_ok and conj_ok)


def test_criterion_9_determinism(tmp_path):
    p1, p2 = tmp_path / "run1.json", tmp_path / "run2.json"
    rc1 = cli.main(["verify", "--case", "all", "--json", str(p1)])
    rc2 = cli.main(["verify", "--case", "all", "--json", str(p2)])
    identical = p1.read_bytes() == p2.read_bytes()
    parsed = json.loads(p1.read_text())
    ok = rc1 == 0 and rc2 == 0 and identical and parsed["pass"] is True
    _criterion(9, "two full verify runs produce byte-identical passing JSON "
                  "reports", ok)
