"""Verification chain and machine-readable report assembly.

Runs, per case: tile adjacency counts (trigroup), section invariants
(sections), fixed-point certification and conjugacy class (torusmap), and
the homology cross-check (surgery).  Every expected value is a constant
below; the report records expected/actual/pass per check.
"""
from __future__ import annotations

import time
from contextlib import contextmanager
from fractions import Fraction
from typing import Any, Optional

from . import ChainError, Record, config, sections, surgery, torusmap, trigroup

SCHEMA_VERSION = 3

# Per-case expected values: adjacency split, section invariants, fixed-point
# counts and homology orders.  A case's triple, orbit and slope are its row
# of ``config.PAPER_ROWS``.
_ROWS = {case: (triple, orbit, a)
         for case, triple, orbit, a, _, _ in config.PAPER_ROWS}
EXPECTED = {
    237: {"adjacency": (7, 5, 2), "chi": -1, "n_components": 1,
          "directions": [[1, 1]], "total_direction": [1, 1], "turning": None,
          "genus": 1, "separatrices": [2], "hyperbolic_on_boundary": 2,
          "interior_fixed": 0, "total_fixed": 1, "h1_order": 1},
    245: {"adjacency": (5, 3, 2), "chi": -1, "n_components": 1,
          "directions": [[2, 1]], "total_direction": [2, 1], "turning": None,
          "genus": 1, "separatrices": [2], "hyperbolic_on_boundary": 2,
          "interior_fixed": 0, "total_fixed": 1, "h1_order": 2},
    246: {"adjacency": (4, 3, 1), "chi": -2, "n_components": 2,
          "directions": [[1, 1], [1, 1]], "total_direction": [2, 2],
          "turning": None, "genus": 1, "separatrices": [2, 2],
          "hyperbolic_on_boundary": 0, "interior_fixed": 1, "total_fixed": 1,
          "h1_order": 4},
    334: {"adjacency": (4, 2, 2), "chi": -1, "n_components": 1,
          "directions": [[3, 1]], "total_direction": [3, 1], "turning": -1,
          "genus": 1, "separatrices": [2], "hyperbolic_on_boundary": 2,
          "interior_fixed": 0, "total_fixed": 1, "h1_order": 3},
    344: {"adjacency": (3, 2, 1), "chi": -2, "n_components": 2,
          "directions": [[2, 1], [2, 1]], "total_direction": [4, 2],
          "turning": -2, "genus": 1, "separatrices": [2, 2],
          "hyperbolic_on_boundary": 0, "interior_fixed": 1, "total_fixed": 1,
          "h1_order": 8},
}


class CheckRecord(Record):
    __slots__ = ("check_id", "expected", "actual", "passed")
    check_id: str
    expected: Any
    actual: Any
    passed: bool

    def as_dict(self) -> dict:
        return {"check_id": self.check_id, "expected": self.expected,
                "actual": self.actual, "pass": self.passed}


class CaseReport(Record):
    __slots__ = ("case", "checks", "timings")

    def __init__(self, case: int, checks: Optional[list[CheckRecord]] = None,
                 timings: Optional[dict[str, float]] = None):
        Record.__init__(self, case, [] if checks is None else checks,
                        {} if timings is None else timings)

    def check(self, check_id: str, expected, actual) -> None:
        self.checks.append(CheckRecord(check_id, expected, actual,
                                       expected == actual))

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def as_dict(self, with_timings: bool = False) -> dict:
        d = {"case": self.case, "pass": self.passed,
             "checks": [c.as_dict() for c in self.checks]}
        if with_timings:
            d["timings_s"] = {k: round(v, 3) for k, v in self.timings.items()}
        return d


def _factors(group: surgery.AbelianGroup) -> list[int]:
    return list(group.invariant_factors)


@contextmanager
def _stage(rep: CaseReport, name: str):
    """Time one stage of `rep` into its timings.  A typed failure raised in
    it (``orbiflow.ChainError``) with no stage yet gets its ``stage`` set to
    the case and the stage, "case 344, adjacency" (for the global checks,
    "global, <stage>"), which the error line of ``cli`` prints."""
    t0 = time.monotonic()
    try:
        yield
    except ChainError as err:
        if err.stage is None:
            err.stage = (f"case {rep.case}" if rep.case else "global") + f", {name}"
        raise
    rep.timings[name] = time.monotonic() - t0


def run_case(case: int, trace3_unique: bool) -> CaseReport:
    exp = EXPECTED[case]
    triple, orbit_name, a = _ROWS[case]
    rep = CaseReport(case)
    with _stage(rep, "adjacency"):
        group = trigroup.build_group(*triple)
        system = trigroup.curve_system(case)
        adjacency = trigroup.adjacency_isometries(group, system)
    rep.check("adjacency_total", exp["adjacency"][0], adjacency.total)
    rep.check("adjacency_elliptic", exp["adjacency"][1], adjacency.elliptic)
    rep.check("adjacency_hyperbolic", exp["adjacency"][2], adjacency.hyperbolic)
    rep.check("adjacency_parabolic", 0, adjacency.parabolic)
    on_bdry = sum(1 for e in adjacency.entries if e.on_boundary_curve)
    rep.check("hyperbolic_on_boundary", exp["hyperbolic_on_boundary"], on_bdry)

    with _stage(rep, "sections"):
        S = sections.section(case)
        rep.check("euler_characteristic", exp["chi"],
                  sections.euler_characteristic(S))
        rep.check("orientable", True, sections.check_orientable(S))
        comps = sections.boundary_components(S)
        rep.check("boundary_component_count", exp["n_components"], len(comps))
        dirs = sorted([list(c.primitive) for c in comps])
        rep.check("boundary_directions", sorted(exp["directions"]), dirs)
        total_dir = [sum(c.a for c in comps), sum(c.b for c in comps)]
        rep.check("total_direction", exp["total_direction"], total_dir)
        turning, applicable = sections.meridional_turning(S)
        rep.check("meridional_turning", exp["turning"],
                  int(turning) if applicable else None)
        rep.check("blow_down_genus", exp["genus"], sections.blow_down_genus(S))
        rep.check("separatrix_counts", exp["separatrices"],
                  sections.separatrix_count(S))
        summary = sections.first_return_summary(adjacency)
        rep.check("interior_fixed_points", exp["interior_fixed"],
                  summary.interior_fixed)
        rep.check("total_fixed_points", exp["total_fixed"], summary.total_fixed)

    # Conjugacy certification: one fixed point for a hyperbolic torus map
    # forces trace 3, and the trace bound pins the class to XY at every word
    # length (``torusmap``'s docstring).
    with _stage(rep, "certification"):
        certified = trace3_unique and summary.total_fixed == 1
        word = str(torusmap.xy_normal_form(torusmap.CAT)) if certified else None
        rep.check("return_map_class", "XY", word)

    with _stage(rep, "homology"):
        slope = surgery.section_to_slope(comps[0].primitive)
        rep.check("section_slope", f"1/{a}", str(slope))
        orbit = surgery.gamma1() if orbit_name == "gamma1" else surgery.gamma2()
        rep.check("boundary_orbit_period", len(comps), orbit.period)
        surgered = surgery.surgered_h1(surgery.SurgerySpec(orbit, slope))
        seifert = surgery.seifert_h1(*triple)
        rep.check("h1_surgered_factors", _factors(seifert), _factors(surgered))
        rep.check("h1_order", exp["h1_order"], surgered.order())
        neg = surgery.surgered_h1(surgery.SurgerySpec(
            orbit, surgery.SlopeCoefficient(-slope.b, slope.a)))
        rep.check("h1_slope_sign_symmetry", _factors(surgered), _factors(neg))
    return rep


def run_global_checks(rep: CaseReport, trace3_unique: bool) -> None:
    """The checks of no one case, added to `rep` (case 0)."""
    with _stage(rep, "cat_dynamics"):
        rep.check("trace3_uniqueness", True, trace3_unique)
        cat = torusmap.CAT
        fixed = torusmap.fixed_points(cat)
        rep.check("cat_fixed_points", [[0, 0, 1]],
                  [[p.num_x, p.num_y, p.den] for p in fixed])
        orb1 = torusmap.orbit_of(cat, torusmap.RationalPoint.of(Fraction(3, 5),
                                                                Fraction(1, 5)))
        orb2 = torusmap.orbit_of(cat, torusmap.RationalPoint.of(Fraction(1, 5),
                                                                Fraction(2, 5)))
        rep.check("cat_period2_orbits", [2, 2, True],
                  [orb1.period, orb2.period,
                   not set(orb1.points) & set(orb2.points)])
        det_counts = [torusmap.periodic_point_count(cat, n) for n in range(1, 5)]
        brute = [_brute_force_fix_count(cat, n) for n in range(1, 5)]
        rep.check("cat_fix_counts_n1_to_4", det_counts, brute)

    with _stage(rep, "homology_global"):
        g1 = surgery.gamma1()
        orders = [surgery.surgered_h1(surgery.SurgerySpec(
            g1, surgery.SlopeCoefficient(1, a))).order() for a in range(1, 11)]
        rep.check("c1_surgery_order_law", list(range(1, 11)), orders)
        rows = surgery.verify_theorem_h1()
        rep.check("theorem_rows_match", [True] * 5, [r.match for r in rows])


def _brute_force_fix_count(A: torusmap.TorusMatrix, n: int) -> int:
    # Every fixed point of A^n lies on the (1/det)-grid; the grid point
    # (ix, iy)/det is fixed iff A^n (ix, iy) = (ix, iy) mod det.
    P = A.power(n)
    det = abs((P.a - 1) * (P.d - 1) - P.b * P.c)
    count = 0
    for ix in range(det):
        for iy in range(det):
            if ((P.a * ix + P.b * iy) % det == ix
                    and (P.c * ix + P.d * iy) % det == iy):
                count += 1
    return count


class VerificationReport(Record):
    __slots__ = ("cases", "global_checks", "depth", "include_timings")

    def __init__(self, cases: list[CaseReport], global_checks: CaseReport,
                 depth: int, include_timings: bool = False):
        Record.__init__(self, cases, global_checks, depth, include_timings)

    @property
    def passed(self) -> bool:
        return (all(c.passed for c in self.cases)
                and self.global_checks.passed)

    def as_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "pass": self.passed,
            "config": {
                "adjacency_depth": self.depth,
                "eps_band": config.EPS_BAND,
                "eps_pt": config.EPS_PT,
            },
            "cases": [c.as_dict(self.include_timings) for c in self.cases],
            "global": self.global_checks.as_dict(self.include_timings),
        }


def run_verification(case_filter: Optional[int], depth: int,
                     include_timings: bool = False) -> VerificationReport:
    """Run the full chain for the selected cases, one after another in the
    fixed ``trigroup.CASES`` order.  The trace-3 certificate for every word
    length (``torusmap.trace3_uniqueness``) runs once, timed as the global
    ``trace3``, and feeds every case and the global checks.  `depth` is only
    recorded, as the report's ``adjacency_depth``."""
    global_rep = CaseReport(0)
    with _stage(global_rep, "trace3"):
        unique = torusmap.trace3_uniqueness()
    case_ids = trigroup.CASES if case_filter is None else (case_filter,)
    case_reports = [run_case(cid, unique) for cid in case_ids]
    run_global_checks(global_rep, unique)
    return VerificationReport(case_reports, global_rep, depth, include_timings)
