"""Command-line front end: verify, tiling, catmap.

Exit codes: 0 all checks pass, 1 verification failure, 2 usage/config error
or a typed failure of the chain (enumeration, tangency, geometry, section
complex, torus-map family or normal form, surgery degeneracy, winding or
orbit cycle, a non-hyperbolic Seifert triple, a boundary direction with no
filling slope), printed as one ``error:`` line that names the kind and
module, the case, and for ``verify`` the stage.  Every typed failure is an
``orbiflow.ChainError`` whose class carries that label as ``kind``, so each
subcommand catches the one base; any other exception ends in a traceback.
The flags are the only configuration, and nothing is read from the
environment: ``verify --depth`` only sets the report's ``adjacency_depth``,
and ``tiling --depth`` is the word-length budget of the drawing's search
for the tiles within its disc (``trigroup.drawing_disc``).  The drawn
cells are certified only when the search is complete within the budget:
its deepest word is shorter, or one more word length adds no tile.  A
budget that cuts the search draws the cells the tiles found bound, as a
word ball did, and leaves out a cell they leave open.  The geometric
thresholds are fixed constants in ``config``, not options.

Importing this module loads ``config``, ``hyp2`` and ``trigroup``.  Each
subcommand imports the layers it runs when it runs, and no exception class
of theirs: ``verify`` imports ``report``, which loads the report stack
(``sections``, ``surgery``, ``torusmap``, ``intlinalg``), ``tiling`` only
``render``, and ``catmap`` only ``torusmap`` and ``intlinalg``.  The
record classes are plain ``__slots__`` classes on ``orbiflow.Record``,
built without generated code, so no path loads ``inspect``, ``ast``,
``dis`` or ``tokenize``.
"""
from __future__ import annotations

import argparse
import json
import sys

from . import ChainError
from . import config as cfg
from . import trigroup


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orbiflow",
        description="Certified combinatorics of the five genus-1 sections "
                    "over triangle orbifolds and their surgery homology.")
    sub = parser.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run the verification chain")
    v.add_argument("--case", default="all",
                   help="one of 237, 245, 246, 334, 344, or 'all'")
    v.add_argument("--json", dest="json_path", metavar="PATH",
                   help="write the machine-readable report to PATH")
    v.add_argument("--depth", type=int, default=cfg.DEFAULT_DEPTH,
                   help="recorded in the report as adjacency_depth; no "
                        "check reads it")
    v.add_argument("--timings", action="store_true",
                   help="include wall-clock timings in the JSON report "
                        "(omitted by default so reports are reproducible)")

    t = sub.add_parser("tiling", help="render a tiling to SVG")
    t.add_argument("--case", required=True)
    t.add_argument("--depth", type=int, default=4,
                   help="word-length budget of the search for the tiles "
                        "within the drawn disc")
    t.add_argument("--out", required=True, metavar="PATH.svg")

    c = sub.add_parser("catmap", help="periodic-orbit table of the torus map")
    c.add_argument("--period", type=int, default=2)
    return parser


def _parse_case(raw: str) -> int | None:
    if raw == "all":
        return None
    try:
        case = int(raw)
    except ValueError:
        raise ValueError(f"unknown case {raw!r}")
    if case not in trigroup.CASES:
        raise ValueError(f"unknown case {case}; choose from "
                         f"{', '.join(map(str, trigroup.CASES))} or 'all'")
    return case


def _print_checks(checks) -> None:
    for chk in checks:
        mark = "ok " if chk.passed else "FAIL"
        print(f"  [{mark}] {chk.check_id}: expected {chk.expected!r}, "
              f"got {chk.actual!r}")


def _print_text_report(rep) -> None:
    for case_rep in rep.cases:
        print(f"case {case_rep.case}:")
        _print_checks(case_rep.checks)
        timing = sum(case_rep.timings.values())
        print(f"  ({timing:.2f}s)")
    print("global checks:")
    _print_checks(rep.global_checks.checks)
    print("VERIFICATION " + ("PASSED" if rep.passed else "FAILED"))


def _typed_error(err: ChainError, where: str | None = None) -> int:
    """Print the one line of a typed failure, labelled with its class's
    ``kind``; its exit code is 2.  `where` names the case, which the messages
    of the chain do not: by default the case and stage that ``report`` marks
    a failure of ``verify`` with."""
    where = where or err.stage
    print(f"error: {err.kind}: {where + ': ' if where else ''}{err}",
          file=sys.stderr)
    return 2


def cmd_verify(args) -> int:
    try:
        case = _parse_case(args.case)
        if args.depth < 1:
            raise ValueError("depth must be >= 1")
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    from . import report
    try:
        rep = report.run_verification(case, args.depth,
                                      include_timings=args.timings)
    except ChainError as err:
        return _typed_error(err)
    _print_text_report(rep)
    if args.json_path:
        payload = json.dumps(rep.as_dict(), sort_keys=True, indent=2) + "\n"
        try:
            with open(args.json_path, "w") as fh:
                fh.write(payload)
        except OSError as err:
            print(f"error: cannot write {args.json_path}: {err}",
                  file=sys.stderr)
            return 2
    return 0 if rep.passed else 1


def cmd_tiling(args) -> int:
    try:
        case = _parse_case(args.case)
        if case is None:
            raise ValueError("tiling needs a single case, not 'all'")
        if args.depth < 1:
            raise ValueError("depth must be >= 1")
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    from . import render
    try:
        svg = render.tiling_svg(case, args.depth)
    except ChainError as err:
        return _typed_error(err, f"case {case}")
    try:
        with open(args.out, "w") as fh:
            fh.write(svg)
    except OSError as err:
        print(f"error: cannot write {args.out}: {err}", file=sys.stderr)
        return 2
    print(f"wrote {args.out}")
    return 0


def cmd_catmap(args) -> int:
    n = args.period
    if not 1 <= n <= 12:
        print("error: period must be between 1 and 12 (exact-arithmetic guard)",
              file=sys.stderr)
        return 2
    from . import intlinalg, torusmap
    cat = torusmap.CAT
    count = torusmap.periodic_point_count(cat, n)
    print(f"points of period dividing {n}: {count} = |det(A^{n} - I)|")
    power = cat.power(n)
    M = [[power.a - 1, power.b], [power.c, power.d - 1]]
    seen: set[torusmap.RationalPoint] = set()
    orbits = []
    for x, y in intlinalg.solve_mod1(M):
        p = torusmap.RationalPoint.of(x, y)
        if p in seen:
            continue
        orb = torusmap.orbit_of(cat, p)
        seen.update(orb.points)
        orbits.append(orb)
    orbits.sort(key=lambda o: (o.period, o.points[0].den, o.points[0].num_x,
                               o.points[0].num_y))
    for orb in orbits:
        pts = ", ".join(f"({p.num_x}/{p.den}, {p.num_y}/{p.den})"
                        for p in orb.points)
        print(f"  period {orb.period}: {pts}")
    total = sum(o.period for o in orbits)
    print(f"orbit check: {len(orbits)} orbits, {total} points")
    return 0 if total == count else 1


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify":
        return cmd_verify(args)
    if args.command == "tiling":
        return cmd_tiling(args)
    if args.command == "catmap":
        return cmd_catmap(args)
    parser.error(f"unknown command {args.command}")
    return 2


if __name__ == "__main__":
    sys.exit(main())
