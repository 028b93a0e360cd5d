"""Answer key taken from the paper, and the checks that compare outputs to it.

Every value here is stated in PAPER.md or follows from a statement there;
none is read from the program (``orbiflow.report.EXPECTED`` in particular).
The checks compare values, not report bytes, so a declared change of the
report layout that keeps the values does not break them.
"""
from __future__ import annotations

import math
import xml.etree.ElementTree as ET

# Per case, in the paper's order of cone triples:
#   split  - adjacency total = elliptic + hyperbolic (7=5+2, 5=3+2, 4=3+1,
#            4=2+2, 3=2+1);
#   period - period of the boundary orbit: the fixed point gamma1 for
#            237/245/334, the period-2 orbit gamma2 for 246/344.  Each orbit
#            point carries one boundary component of the genus-1 section, so
#            chi = 2 - 2*1 - period;
#   a      - the filling slope is 1/a (1/1, 1/2, 1/3 on gamma1; 1/1, 1/2 on
#            gamma2), so each boundary component runs in direction (a, 1);
#   order  - |H1| of the filling, equal to that of the unit tangent bundle
#            (orders 1, 2, 3, 4, 8 in the theorem's row order).
CASES = {
    237: {"triple": (2, 3, 7), "split": (7, 5, 2), "period": 1, "a": 1, "order": 1},
    245: {"triple": (2, 4, 5), "split": (5, 3, 2), "period": 1, "a": 2, "order": 2},
    246: {"triple": (2, 4, 6), "split": (4, 3, 1), "period": 2, "a": 1, "order": 4},
    334: {"triple": (3, 3, 4), "split": (4, 2, 2), "period": 1, "a": 3, "order": 3},
    344: {"triple": (3, 4, 4), "split": (3, 2, 1), "period": 2, "a": 2, "order": 8},
}

# Theorem rows: (orbit, slope, cone triple), in the paper's order.
THEOREM_ROWS = [
    ("gamma1", "1/1", (2, 3, 7)),
    ("gamma1", "1/2", (2, 4, 5)),
    ("gamma1", "1/3", (3, 3, 4)),
    ("gamma2", "1/1", (2, 4, 6)),
    ("gamma2", "1/2", (3, 4, 4)),
]


def case_values(case: int, key: dict = CASES) -> dict:
    """Report check id -> value the paper gives for it."""
    k = key[case]
    total, elliptic, hyperbolic = k["split"]
    c = k["period"]
    return {
        "adjacency_total": total,
        "adjacency_elliptic": elliptic,
        "adjacency_hyperbolic": hyperbolic,
        "adjacency_parabolic": 0,
        "euler_characteristic": 2 - 2 - c,
        "orientable": True,
        "boundary_component_count": c,
        "boundary_directions": [[k["a"], 1]] * c,
        "total_direction": [k["a"] * c, c],
        "blow_down_genus": 1,
        # One fixed point in every case: on the boundary for gamma1, in the
        # interior (with a boundary period-2 orbit) for gamma2.
        "interior_fixed_points": 0 if c == 1 else 1,
        "total_fixed_points": 1,
        "return_map_class": "XY",
        "section_slope": f"1/{k['a']}",
        "boundary_orbit_period": c,
        "h1_order": k["order"],
    }


def _order(factors) -> int | None:
    return None if 0 in factors else math.prod(factors)


def check_verify_report(report: dict, cases, key: dict = CASES) -> list[str]:
    """Mismatches between a ``verify --json`` report and the key."""
    errors = []
    if report.get("pass") is not True:
        errors.append("report: pass is not true")
    by_case = {c.get("case"): c for c in report.get("cases", [])}
    if sorted(by_case) != sorted(cases):
        errors.append(f"report: cases {sorted(by_case)} != {sorted(cases)}")
    for case in cases:
        rep = by_case.get(case)
        if rep is None:
            continue
        if rep.get("pass") is not True:
            errors.append(f"{case}: pass is not true")
        actual = {chk["check_id"]: chk["actual"] for chk in rep.get("checks", [])}
        for check_id, want in case_values(case, key).items():
            if check_id not in actual:
                errors.append(f"{case}: {check_id} missing")
            elif actual[check_id] != want:
                errors.append(f"{case}: {check_id} = {actual[check_id]!r}, "
                              f"paper gives {want!r}")
        factors = actual.get("h1_surgered_factors")
        if factors is None or _order(factors) != key[case]["order"]:
            errors.append(f"{case}: h1_surgered_factors {factors!r} do not "
                          f"have order {key[case]['order']}")
        if actual.get("h1_slope_sign_symmetry") != factors:
            errors.append(f"{case}: slope -1/a gives "
                          f"{actual.get('h1_slope_sign_symmetry')!r}, "
                          f"1/a gives {factors!r}")
    glob = report.get("global", {})
    if glob.get("pass") is not True:
        errors.append("global: pass is not true")
    actual = {chk["check_id"]: chk["actual"] for chk in glob.get("checks", [])}
    if actual.get("c1_surgery_order_law") != list(range(1, 11)):
        errors.append("global: |H1| = a law fails on gamma1 for a <= 10")
    if actual.get("theorem_rows_match") != [True] * len(THEOREM_ROWS):
        errors.append("global: theorem rows do not all match Seifert")
    return errors


def check_sweep(result: dict, values) -> list[str]:
    """Mismatches in the surgery-sweep output: |H1| = a on gamma1 for slope
    1/a, the same group for -1/a on both orbits, and the theorem rows."""
    errors = []
    got = {(f["orbit"], f["b"], f["a"]): f["factors"]
           for f in result.get("fillings", [])}
    for a in values:
        plus1 = got.get(("gamma1", 1, a))
        if plus1 is None or _order(plus1) != a:
            errors.append(f"gamma1 1/{a}: H1 {plus1!r} does not have order {a}")
        for orbit in ("gamma1", "gamma2"):
            plus, minus = got.get((orbit, 1, a)), got.get((orbit, -1, a))
            if plus is None or plus != minus:
                errors.append(f"{orbit} +-1/{a}: {plus!r} != {minus!r}")
    rows = result.get("theorem_rows", [])
    orders = {k["triple"]: k["order"] for k in CASES.values()}
    if [(r["orbit"], r["slope"], tuple(r["triple"])) for r in rows] != THEOREM_ROWS:
        errors.append("theorem rows differ from the paper's five rows")
    for r in rows:
        want = orders.get(tuple(r["triple"]))
        if r["surgered"] != r["seifert"] or _order(r["surgered"]) != want:
            errors.append(f"theorem row {r['orbit']} {r['slope']}: surgered "
                          f"{r['surgered']} vs Seifert {r['seifert']}, "
                          f"paper order {want}")
    return errors


def check_tiling_svg(text: str, case: int) -> list[str]:
    """The drawing parses as XML and has one dashed path per hyperbolic
    adjacency axis."""
    try:
        root = ET.fromstring(text)
    except ET.ParseError as err:
        return [f"svg does not parse: {err}"]
    axes = [el for el in root.iter() if el.tag.endswith("path")
            and el.get("stroke-dasharray") is not None]
    want = CASES[case]["split"][2]
    if len(axes) != want:
        return [f"svg has {len(axes)} hyperbolic-axis paths, paper gives {want}"]
    return []
