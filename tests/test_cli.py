import hashlib
import importlib
import importlib.util
import json
import re
import subprocess
import sys
import types
from collections import Counter
from pathlib import Path

import pytest

import orbiflow
from orbiflow import ChainError, cli, render, report
from orbiflow.config import DEFAULT_DEPTH

GOLDEN = Path(__file__).parent / "data"
# sha256 of `orbiflow tiling --case C --depth D`, per case for D = 1..6,
# pinned like the report.  Each drawn cell is the image of its vertex's
# certified cell, so a depth that cuts the disc search draws fewer cells
# and lifts, never a wrong cell.  An adjacency axis, and a lift whose base
# geodesic is one (334, 344), is drawn from the repelling end of the axis
# to the attracting one.
TILING_SHA256 = {
    237: (
        "cd957e9fa9ae03b8c50054a922afc819c560f914a97c6b29f2c59adcb23e4b1c",
        "53cdd413bef24e54d92a696839bf187fb96ddf6e1c67ec97e024820355c86f28",
        "e20c12546664b0a46d10d576fb4f7cd8a5e303bf230b79f23507423fdb13328a",
        "a612930801c789ec1487d67053edd05b27e8acc4b89d8e669c483dc32ac85986",
        "b551a2638c8e7692d7532a8529b34dd8d1f2bdcd62d169e69db40d8686a8861a",
        "e03a4e20cdf012553b681696642ca428013234bceb79415a37e5bb207ec18f6e",
    ),
    245: (
        "ec0b57c44935ccb42ca77520a01d5e5914efb105bcbc072cd3c4f01e350c8b6f",
        "83c932acf6bf1b8648a6b885ce2b1a5da001fb81fb8683465a270b50ef1aeed0",
        "c77d007ed7cf9f0b70f665958609ab662e106b72203a3aa2b5261a7f0124a3f2",
        "a93d5616202391fef093a5bbd05d754ec98ace66698e83dadfe6c3f6f34b209e",
        "010ca720c2a9a5bbff5e96b77bbbad1d7bed1d88b29bd6722be555cb2d7f22b2",
        "5d99df61260decd8d420b31a3c743e6b809f7bf7c61636abeef3890e646f9f16",
    ),
    246: (
        "59ab38045b0834eeec3504c18d5c1d9afdcead1b6520220b7e9ee2851d36d757",
        "7db0409c32fcef6e176a8e77562e8ae4c3a14d67ab462e512fd309fc682b7301",
        "6c1a6165d96a964a13392361671005a577a25af8142b901a76d2fb8eba275a7c",
        "7e1c513b4e67c93db36c82a30f6f0fbe642a885a3280b10b656e67239363ccf3",
        "7e315148a60d4109b1942b28ddd2024feb7278c98fd56ad4fc8c3d711da22670",
        "295826f69110fbc3fab563e041f203fdea654d149730dee540ae245bd32e015c",
    ),
    334: (
        "0666405f6a4013cde24b25999a5a4594bf3be9808cd03b016da64f0626d911e2",
        "d035c05b23d69db6862268ff0c4b84e258383766f5d93987dc0d89dbbf7c6642",
        "4f12463327b4950b68c5ecfa51600a4be935e8c326eada5c4b00d26742e12bbe",
        "e53e9c07b80fa4f669aa4bfad5c64aa1dd7f68afc90ff594b4a477a1e732dd18",
        "dbeafb15dda14bfc7d05f15e61e01877a54a087e1b40e2c560401b1bbc007a41",
        "4c75c3431276bd4983b49f8fc9b63f4c238929a0a2db71fc308cebd0cf823e5b",
    ),
    344: (
        "b1e8edc7b4221e12233222ec5e852577b660a42565af3fc9079fed2bc8fa0453",
        "723bb7e4fcf359bb3c91f7877f642b4adedacef127c1f9de0814ded9df862aa5",
        "f30ab298988175c2080dfea920410e8b19da7a3d4ad8a6301f45b0eedfb249ee",
        "9443c93b498375cace13583addaba0593596ed078eafe316a676efe547c5effe",
        "d31c6fc3ff676e8eb36b9f673ee19f93ac41e53bfe14cbee1b70a933e664656c",
        "d31c6fc3ff676e8eb36b9f673ee19f93ac41e53bfe14cbee1b70a933e664656c",
    ),
}
# sha256 of the `orbiflow verify --case all` text output without its per-case
# timing lines.
TEXT_ALL_SHA256 = \
    "ff58a51972a358bd1da701b25023c325db12078d6007ca288e0dcf64824c6aa9"
SRC = str(Path(cli.__file__).resolve().parents[1])


def _run_fresh(code: str) -> subprocess.CompletedProcess:
    """Run `code` in a fresh interpreter that imports the package from SRC."""
    return subprocess.run([sys.executable, "-c", code], text=True,
                          capture_output=True, env={"PYTHONPATH": SRC})


def test_verify_single_case_passes(tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = cli.main(["verify", "--case", "237", "--json", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "VERIFICATION PASSED" in text
    payload = json.loads(out.read_text())
    assert payload["schema_version"] == 3
    assert payload["pass"] is True
    assert payload["cases"][0]["case"] == 237


def test_verify_unknown_case_exit_2(capsys):
    assert cli.main(["verify", "--case", "999"]) == 2
    assert "unknown case" in capsys.readouterr().err


def test_verify_bad_depth_exit_2(capsys):
    assert cli.main(["verify", "--case", "237", "--depth", "0"]) == 2


def test_verify_depth_one_gives_default_checks(tmp_path):
    # --depth is only recorded in the report: at depth 1 every check comes
    # out as in the default run.
    out = tmp_path / "d1.json"
    assert cli.main(["verify", "--case", "all", "--depth", "1",
                     "--json", str(out)]) == 0
    payload = json.loads(out.read_text())
    default = json.loads((GOLDEN / "verify_all.json").read_text())
    assert payload["config"].pop("adjacency_depth") == 1
    default["config"].pop("adjacency_depth")
    assert payload == default


def test_json_roundtrip(tmp_path):
    out = tmp_path / "r.json"
    assert cli.main(["verify", "--case", "245", "--json", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert json.loads(json.dumps(payload)) == payload
    checks = {c["check_id"]: c for c in payload["cases"][0]["checks"]}
    assert checks["adjacency_total"]["expected"] == 5
    assert checks["adjacency_total"]["pass"] is True


def test_report_deterministic_bytes(tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.main(["verify", "--case", "246", "--json", str(p1)]) == 0
    assert cli.main(["verify", "--case", "246", "--json", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_report_matches_golden_bytes(tmp_path):
    # The default report is the behavioural contract: byte-identical to the
    # pinned copy unless a change declares a schema change.
    out = tmp_path / "all.json"
    assert cli.main(["verify", "--case", "all", "--json", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / "verify_all.json").read_bytes()


def test_deep_report_matches_golden_bytes(tmp_path):
    # The deepest run the benchmark makes.  --depth is only recorded, so
    # this report is the default one but for adjacency_depth.
    out = tmp_path / "deep.json"
    assert cli.main(["verify", "--case", "344", "--depth", "16",
                     "--json", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / "verify_344_d16.json").read_bytes()


def _perfbench_key():
    """perfbench/key.py, loaded by path (perfbench is no package) and only
    read: the answer key the benchmark checks each verify sample against."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_key", Path(__file__).parent.parent / "perfbench" / "key.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("golden,cases", [
    ("verify_all.json", (237, 245, 246, 334, 344)),
    ("verify_344_d16.json", (344,)),
])
def test_golden_reports_meet_the_benchmark_key(golden, cases):
    # A schema change that drops a check the key reads would otherwise show
    # only as failed benchmark samples.
    payload = json.loads((GOLDEN / golden).read_text())
    assert _perfbench_key().check_verify_report(payload, cases) == []


def test_benchmark_key_reports_a_dropped_check():
    payload = json.loads((GOLDEN / "verify_all.json").read_text())
    checks = payload["cases"][0]["checks"]
    checks[:] = [c for c in checks if c["check_id"] != "orientable"]
    assert _perfbench_key().check_verify_report(
        payload, (237, 245, 246, 334, 344)) == ["237: orientable missing"]


# Planted faults that turn a check to FAIL, exit 1 (the mutation table): by
# check id, the patch and how often each check id fails with it over the
# five cases and the global block.
PLANTED_FAILURES = {
    # The trace-3 word search stopped one length short of its bound, at
    # tr - 2: it finds no trace-3 word, so no case's return map is certified.
    "trace3_uniqueness": (
        "words = torusmap.positive_words\n"
        "torusmap.positive_words = lambda n: words(n - 1)",
        {"trace3_uniqueness": 1, "return_map_class": 5}),
}


@pytest.mark.parametrize("check_id", sorted(PLANTED_FAILURES))
def test_planted_fault_fails_its_check(tmp_path, check_id):
    patch, failing = PLANTED_FAILURES[check_id]
    out = tmp_path / "r.json"
    run = _run_fresh("import sys\nfrom orbiflow import cli, torusmap\n"
                     f"{patch}\nsys.exit(cli.main(['verify', '--case', 'all', "
                     f"'--json', {str(out)!r}]))")
    assert run.returncode == 1, run.stderr
    assert "VERIFICATION FAILED" in run.stdout
    payload = json.loads(out.read_text())
    blocks = payload["cases"] + [payload["global"]]
    failed = Counter(c["check_id"] for block in blocks
                     for c in block["checks"] if not c["pass"])
    assert failed == Counter(failing)


@pytest.mark.parametrize("eps", ["1e-6", "1e-5", "1e-4", "1e-3"])
def test_loose_tolerance_gives_default_verdicts(tmp_path, eps):
    # The thresholded gaps are wide: with the coincidence scale raised to eps
    # and the band to max(eps, 1e-7), every check, expected and actual value
    # is the same as in the default run.  The word balls and lift sets are
    # cached for the thresholds a process starts with, so each eps runs in a
    # fresh interpreter.
    out = tmp_path / "loose.json"
    run = _run_fresh(
        f"import sys\nfrom orbiflow import cli, config\n"
        f"config.EPS_PT = {eps}\nconfig.EPS_BAND = max({eps}, 1e-7)\n"
        f"sys.exit(cli.main(['verify', '--case', 'all', '--json', "
        f"{str(out)!r}]))")
    assert run.returncode == 0, run.stderr
    payload = json.loads(out.read_text())
    default = json.loads((GOLDEN / "verify_all.json").read_text())
    assert payload["config"]["eps_pt"] == float(eps)
    assert payload["cases"] == default["cases"]
    assert payload["global"] == default["global"]


def test_flags_set_depth():
    def depth(*flags):
        return cli._build_parser().parse_args(["verify", *flags]).depth
    assert depth() == DEFAULT_DEPTH
    assert depth("--depth", "14") == 14


@pytest.mark.parametrize("flag,value", [("--depth", "0")])
def test_flag_validated(capsys, flag, value):
    assert cli.main(["verify", "--case", "237", flag, value]) == 2
    assert "must be" in capsys.readouterr().err


def test_tolerance_flag_is_a_usage_error(capsys):
    # The thresholds are constants: argparse rejects --tol as it would any
    # unknown flag.
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["verify", "--case", "237", "--tol", "1e-3"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --tol" in capsys.readouterr().err


def test_text_report_matches_golden_digest(capsys):
    # The text report prints every case's and the global checks in one
    # format; only the per-case timing lines vary from run to run.
    assert cli.main(["verify", "--case", "all"]) == 0
    lines = [line for line in capsys.readouterr().out.splitlines(keepends=True)
             if not re.fullmatch(r"  \(\d+\.\d\ds\)\n", line)]
    digest = hashlib.sha256("".join(lines).encode()).hexdigest()
    assert digest == TEXT_ALL_SHA256


def _tiling_sha256(tmp_path, case, depth):
    out = tmp_path / f"t{case}_{depth}.svg"
    assert cli.main(["tiling", "--case", str(case), "--depth", str(depth),
                     "--out", str(out)]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


def test_tiling_matches_golden_sha256(tmp_path):
    assert _tiling_sha256(tmp_path, 344, 6) == TILING_SHA256[344][5]


@pytest.mark.parametrize("case", sorted(TILING_SHA256))
def test_tiling_depth5_matches_golden_sha256(tmp_path, case):
    assert _tiling_sha256(tmp_path, case, 5) == TILING_SHA256[case][4]


@pytest.mark.parametrize("depth", (1, 2, 3, 4, 6))
@pytest.mark.parametrize("case", sorted(TILING_SHA256))
def test_tiling_matches_golden_sha256_at_each_depth(tmp_path, case, depth):
    # The drawn orbit points, the clipped cells and the on-curve test at
    # every depth up to the largest ball a drawing is timed at.
    assert _tiling_sha256(tmp_path, case, depth) == TILING_SHA256[case][depth - 1]


def _fresh_modules(code: str) -> list[str]:
    """orbiflow modules loaded after running `code` in a fresh interpreter."""
    code += ("; print(' '.join(sorted(m for m in sys.modules "
             "if m.startswith('orbiflow'))))")
    run = _run_fresh(code)
    assert run.returncode == 0, run.stderr
    return run.stdout.splitlines()[-1].split()


def test_import_cli_loads_no_subcommand_layer():
    loaded = _fresh_modules("import sys, orbiflow.cli")
    assert "orbiflow.cli" in loaded
    for name in ("report", "sections", "surgery", "torusmap", "intlinalg"):
        assert f"orbiflow.{name}" not in loaded


@pytest.mark.parametrize("imports", ["orbiflow.cli, orbiflow.report, orbiflow.render",
                                     "orbiflow.surgery"])
def test_entry_imports_skip_dataclasses_and_inspect(imports):
    # The record classes are plain __slots__ classes (orbiflow.Record): no
    # entry point loads dataclasses, nor the inspect, ast, dis and tokenize
    # modules it pulls in, at about 30 ms of every cold run.
    run = _run_fresh(f"import sys, {imports}\n"
                     "print([m for m in ('dataclasses', 'inspect') "
                     "if m in sys.modules])")
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"


@pytest.mark.parametrize("argv,layer", [
    (["tiling", "--case", "344", "--depth", "4", "--out", "{tmp}/t.svg"],
     "render"),
    (["catmap", "--period", "2"], "torusmap"),
])
def test_subcommand_loads_only_its_layers(tmp_path, argv, layer):
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    loaded = _fresh_modules(
        f"import sys; from orbiflow import cli; assert cli.main({argv!r}) == 0")
    assert f"orbiflow.{layer}" in loaded
    for name in ("report", "sections", "surgery"):
        assert f"orbiflow.{name}" not in loaded


def test_tiling_svg_written(tmp_path, capsys):
    out = tmp_path / "t.svg"
    rc = cli.main(["tiling", "--case", "237", "--depth", "4", "--out", str(out)])
    assert rc == 0
    svg = out.read_text()
    assert svg.startswith("<svg")
    # The distinguished tile is highlighted.
    assert "#ffd92f" in svg and "#fc8d62" in svg
    assert svg.count("<path") > 10


def test_tiling_depth_zero_exit_2(capsys):
    assert cli.main(["tiling", "--case", "237", "--depth", "0",
                     "--out", "/tmp/unused.svg"]) == 2


def test_tiling_case_all_rejected(capsys):
    assert cli.main(["tiling", "--case", "all", "--out", "/tmp/u.svg"]) == 2


def test_tiling_deterministic(tmp_path):
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    assert cli.main(["tiling", "--case", "334", "--depth", "4", "--out", str(a)]) == 0
    assert cli.main(["tiling", "--case", "334", "--depth", "4", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_tiling_334_has_three_families(tmp_path):
    out = tmp_path / "t334.svg"
    assert cli.main(["tiling", "--case", "334", "--depth", "5",
                     "--out", str(out)]) == 0
    svg = out.read_text()
    # Octagon family around the order-4 points plus two triangle families.
    assert "#fcbba1" in svg  # R-family fill
    assert "#c6dbef" in svg  # P-family fill
    assert "#c7e9c0" in svg  # Q-family fill


def test_catmap_period_one(capsys):
    assert cli.main(["catmap", "--period", "1"]) == 0
    out = capsys.readouterr().out
    assert "period dividing 1: 1" in out
    assert "(0/1, 0/1)" in out


def test_catmap_period_two(capsys):
    assert cli.main(["catmap", "--period", "2"]) == 0
    out = capsys.readouterr().out
    assert "period dividing 2: 5" in out
    assert "(3/5, 1/5)" in out and "(1/5, 2/5)" in out


def test_catmap_period_three_count(capsys):
    assert cli.main(["catmap", "--period", "3"]) == 0
    out = capsys.readouterr().out
    assert "period dividing 3: 16" in out


def test_catmap_out_of_range(capsys):
    assert cli.main(["catmap", "--period", "0"]) == 2
    assert cli.main(["catmap", "--period", "13"]) == 2


def test_exit_code_matches_pass_flag(tmp_path):
    out = tmp_path / "all.json"
    rc = cli.main(["verify", "--case", "334", "--json", str(out)])
    payload = json.loads(out.read_text())
    assert (rc == 0) == payload["pass"]


def test_geodesic_path_formats():
    from orbiflow.hyp2 import Geodesic
    path = render.geodesic_path(Geodesic(complex(-0.6, -0.8),
                                         complex(0.6, -0.8)))
    assert path.startswith("M ")
    assert "A" in path
    # From 1 to -1 on the circle passes through the disc center: rendered as
    # a diameter.
    diameter = render.geodesic_path(Geodesic(1.0 + 0.0j, -1.0 + 0.0j))
    assert "L" in diameter and "A" not in diameter


def test_run_verification_report_shape():
    rep = report.run_verification(237, DEFAULT_DEPTH)
    d = rep.as_dict()
    assert set(d) == {"schema_version", "pass", "config", "cases", "global"}
    assert all({"check_id", "expected", "actual", "pass"} == set(c)
               for c in d["cases"][0]["checks"])


def test_timings_account_for_trace3():
    # The one trace-3 word search is timed under the global checks, and only
    # a report asked for with timings carries any.
    rep = report.run_verification(237, DEFAULT_DEPTH, include_timings=True)
    assert "trace3" in rep.as_dict()["global"]["timings_s"]
    rep.include_timings = False
    assert "timings_s" not in rep.as_dict()["global"]


# Typed failures of the chain, planted in a fresh interpreter before
# `cli.main`: by the start of the error line each prints, the patch and the
# message the line carries.
PLANTED_FAULTS = {
    # Every crossing the primitive finds reported at angle 1e-9.
    "tangency": ("cross = trigroup.geodesic_crossing\n"
                 "def planted(*args):\n"
                 "    found = cross(*args)\n"
                 "    return found and (found[0], 1e-9)\n"
                 "trigroup.geodesic_crossing = planted", "1.00e-09"),
    "geometry": ("def fail(*args):\n"
                 "    raise hyp2.GeometryError('planted curve failure')\n"
                 "trigroup.curve_system = fail", "planted curve failure"),
    # 237's rectangle with its side x glued to itself the same way round.
    "complex (sections)": (
        "S = sections._SECTIONS[237]\n"
        "poly = tuple(('x', 1) if s == ('x', -1) else s for s in S.polygons[0])\n"
        "sections._SECTIONS[237] = sections.SectionComplex((poly,), S.boundary)",
        "edge x glued orientation-reversingly"),
    # Every generic parameter choice of the punctured-torus basis degenerate.
    "degeneracy (surgery)": (
        "def fail(*args):\n"
        "    raise surgery.DegenerateChoiceError('planted degeneracy')\n"
        "surgery.PuncturedTorusBasis = fail",
        "no generic parameter choice worked: planted degeneracy"),
    # The certification's normal form refused as out of the trace > 2 family.
    "family (torusmap)": (
        "def fail(*args):\n"
        "    raise torusmap.OutOfFamilyError('planted family failure')\n"
        "torusmap.xy_normal_form = fail", "planted family failure"),
    # The certification's normal form planted with the wrong word, whose
    # matrix has trace 4, not the trace 3 of the torus map.
    "normal form (torusmap)": (
        "torusmap._peel_positive = lambda reduced: [1, 2]",
        "normal form lost the trace"),
    # The surgery layer's torus action planted to send every point to
    # (1/2, 0): no orbit is a forward cycle any more.
    "orbit (surgery)": (
        "surgery.act = lambda A, p: torusmap.RationalPoint.of(0.5, 0)",
        "orbit is not a forward cycle"),
    # Every cell about a vertex of T read as reaching to infinity: no disc
    # certifies it, and the drawing's cells are images of those cells.
    "enumeration (trigroup)": (
        "trigroup.polygon_reach = lambda *args: float('inf')",
        "no cell about a vertex certified"),
    # One crossing too many with every cut arc: the arc crossings of a closed
    # cycle no longer sum to zero.
    "winding (surgery)": (
        "cross = surgery._torus_cross\n"
        "surgery._torus_cross = lambda *args: cross(*args) + 1",
        "inconsistent winding system"),
    # Every boundary component of the section given the direction (2, 4),
    # which is not primitive and so names no filling slope.
    "slope (surgery)": (
        "bound = sections.boundary_components\n"
        "sections.boundary_components = lambda S: [\n"
        "    sections.BoundaryComponent(c.edges, c.a, c.b, (2, 4))"
        " for c in bound(S)]",
        "direction (2, 4) is not primitive"),
    # The Seifert side of the case's row read with the Euclidean triple.
    "hyperbolicity (surgery)": (
        "seifert = surgery.seifert_h1\n"
        "surgery.seifert_h1 = lambda *triple: seifert(2, 3, 6)",
        "(2,3,6) is not hyperbolic"),
}


# The stage of ``verify --case 237`` that each planted fault stops.
PLANTED_STAGES = {"tangency": "adjacency", "geometry": "adjacency",
                  "complex (sections)": "sections",
                  "family (torusmap)": "certification",
                  "normal form (torusmap)": "certification",
                  "orbit (surgery)": "homology",
                  "degeneracy (surgery)": "homology",
                  "winding (surgery)": "homology",
                  "slope (surgery)": "homology",
                  "hyperbolicity (surgery)": "homology"}


def test_non_hyperbolic_row_exits_2_with_one_error_line():
    # A Euclidean triple planted for 237 before import: any verify run stops
    # in the global homology stage, where ``surgery.seifert_h1`` reads it.
    run = _run_fresh("import sys\nfrom orbiflow import config\n"
                     "config.PAPER_ROWS = ((237, (2, 3, 6), 'gamma1', 1, "
                     "('RQp',), 'R'),)"
                     " + config.PAPER_ROWS[1:]\n"
                     "from orbiflow import cli\n"
                     "sys.exit(cli.main(['verify', '--case', '344']))")
    assert run.returncode == 2
    assert run.stderr == ("error: hyperbolicity (surgery): global, "
                          "homology_global: (2,3,6) is not hyperbolic\n")


@pytest.mark.parametrize("kind,argv", [
    ("tangency", ["verify", "--case", "237"]),
    ("tangency", ["tiling", "--case", "237", "--depth", "3",
                  "--out", "{tmp}/t.svg"]),
    ("geometry", ["verify", "--case", "237"]),
    ("complex (sections)", ["verify", "--case", "237"]),
    ("degeneracy (surgery)", ["verify", "--case", "237"]),
    ("winding (surgery)", ["verify", "--case", "237"]),
    ("geometry", ["tiling", "--case", "237", "--depth", "3",
                  "--out", "{tmp}/t.svg"]),
    ("family (torusmap)", ["verify", "--case", "237"]),
    ("normal form (torusmap)", ["verify", "--case", "237"]),
    ("orbit (surgery)", ["verify", "--case", "237"]),
    ("enumeration (trigroup)", ["tiling", "--case", "237",
                                "--out", "{tmp}/t.svg"]),
    ("slope (surgery)", ["verify", "--case", "237"]),
    ("hyperbolicity (surgery)", ["verify", "--case", "237"]),
])
def test_numerics_failure_exits_2_with_one_error_line(tmp_path, kind, argv):
    # Exit 1 means a verification check failed; a typed failure is exit 2
    # with one line naming its kind and message, and no traceback.
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    patch, message = PLANTED_FAULTS[kind]
    run = _run_fresh("import sys\n"
                     "from orbiflow import (cli, hyp2, sections, surgery, torusmap,\n"
                     "                      trigroup)\n"
                     f"{patch}\nsys.exit(cli.main({argv!r}))")
    assert run.returncode == 2
    assert "Traceback" not in run.stderr
    [line] = run.stderr.splitlines()
    assert line.startswith(f"error: {kind}") and message in line
    # The line names the case once, and for verify the stage that failed.
    assert line.count("case 237") == 1
    if argv[0] == "verify":
        assert f": case 237, {PLANTED_STAGES[kind]}: " in line


def test_elliptic_curve_word_exits_2_with_one_error_line():
    # A curve word planted before import that is no hyperbolic element: the
    # half-turn P for 245 has no axis, and the adjacency stage that builds
    # the curve says so.
    run = _run_fresh("import sys\nfrom orbiflow import config\n"
                     "config.PAPER_ROWS = tuple(row[:4] + (('P',), row[5])\n"
                     "    if row[0] == 245 else row for row in config.PAPER_ROWS)\n"
                     "from orbiflow import cli\n"
                     "sys.exit(cli.main(['verify', '--case', '245']))")
    assert run.returncode == 2
    assert run.stderr == ("error: geometry (trigroup): case 245, adjacency: "
                          "axis requested for elliptic isometry\n")


def _error_classes(modules):
    """(qualified name, class) of each exception class `modules` define."""
    for module in modules:
        for name, cls in vars(module).items():
            if (isinstance(cls, type) and issubclass(cls, BaseException)
                    and cls.__module__ == module.__name__):
                yield f"{module.__name__}.{name}", cls


def _untyped_errors(modules) -> list[str]:
    """The exception classes `modules` define that no ``error:`` line can
    label: not an ``orbiflow.ChainError``, or with no ``kind``."""
    return [name for name, cls in _error_classes(modules)
            if cls is not ChainError
            and not (issubclass(cls, ChainError) and cls.kind)]


def _package_modules() -> list[types.ModuleType]:
    package = Path(orbiflow.__file__).parent
    return [orbiflow] + [importlib.import_module(f"orbiflow.{path.stem}")
                         for path in sorted(package.glob("*.py"))
                         if path.stem != "__init__"]


def _chain_errors() -> set[type]:
    out, todo = set(), [ChainError]
    while todo:
        for sub in todo.pop().__subclasses__():
            todo.append(sub)
            out.add(sub)
    return out


def test_every_error_class_is_typed_and_planted():
    # A typed failure ends in one ``error:`` line labelled with its class's
    # kind; any other exception ends in a traceback.  The scan must see every
    # ChainError subclass (12 at this writing), or it passes without looking.
    modules = _package_modules()
    assert _untyped_errors(modules) == []
    errors = _chain_errors()
    assert {cls for _, cls in _error_classes(modules)} == errors | {ChainError}
    # Each kind has a planted fault above, whose name starts its error line.
    unplanted = {cls.kind for cls in errors
                 if not any(cls.kind.startswith(row) for row in PLANTED_FAULTS)}
    assert not unplanted, f"kinds with no planted fault: {unplanted}"


def test_error_guard_reports_a_planted_untyped_class():
    planted = types.ModuleType("orbiflow.planted")
    exec("class FooError(RuntimeError):\n    pass\n", vars(planted))
    assert (_untyped_errors(_package_modules() + [planted])
            == ["orbiflow.planted.FooError"])
