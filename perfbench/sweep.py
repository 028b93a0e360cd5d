"""The surgery-sweep workload program: Dehn fillings +-1/a on both orbits.

child.py calls main with the values of a as strings.  For every given a it
computes the first homology of the fillings 1/a and -1/a on gamma1 and
gamma2 through ``orbiflow.surgery``, then the five theorem rows, and prints
the groups as one JSON object on stdout.  It never touches
``orbiflow.trigroup``.
"""
from __future__ import annotations

import json
import sys

from orbiflow import surgery


def main(argv: list[str]) -> int:
    values = [int(x) for x in argv]
    fillings = []
    for name, orbit in (("gamma1", surgery.gamma1()),
                        ("gamma2", surgery.gamma2())):
        for a in values:
            for b in (1, -1):
                group = surgery.surgered_h1(surgery.SurgerySpec(
                    orbit, surgery.SlopeCoefficient(b, a)))
                fillings.append({"orbit": name, "b": b, "a": a,
                                 "factors": list(group.invariant_factors)})
    rows = [{"orbit": r.orbit_name, "slope": str(r.slope),
             "triple": list(r.triple),
             "surgered": list(r.surgered.invariant_factors),
             "seifert": list(r.seifert.invariant_factors)}
            for r in surgery.verify_theorem_h1()]
    json.dump({"fillings": fillings, "theorem_rows": rows}, sys.stdout)
    sys.stdout.write("\n")
    return 0
