"""Inventory of the small float literals of the geometric modules: every
float in (0, 1e-3] written in ``hyp2``, ``trigroup`` and ``render``, counted
by the top-level function, method or module-level statement that holds it.
Each one is a threshold, margin or scale that a float decision reads, so a
new one fails this test until it is added here on purpose.  The named
thresholds ``config.EPS_PT`` and ``config.EPS_BAND`` are not literals; their
readers are pinned in a second inventory, ``READERS``, which the ``config``
docstring must name."""
import ast
from collections import Counter
from pathlib import Path

import orbiflow
from orbiflow import config

PACKAGE = Path(orbiflow.__file__).parent

SURVIVORS = {
    "hyp2": {},
    "trigroup": {
        ("<module>", 1e-3): 1,  # _CELL, the dedup grid's cell width
        ("_clusters", 1e-5): 2,
        ("_disc_candidates", 1e-9): 2,
        ("_lift_reach", 1e-9): 1,
        ("_meetings", 1e-7): 1,
        ("_meetings", 1e-6): 1,
        ("_orbit", 1e-9): 1,
        ("_orbit_lifts", 1e-9): 1,
        ("_tiles", 1e-9): 1,
        ("canonical_neighbors", 1e-9): 2,
        ("cell_polygon", 1e-12): 2,
        ("cell_polygon", 1e-9): 1,
        ("cell_tiling", 1e-6): 1,
        ("drawing_disc", 1e-9): 1,
        ("on_curve", 1e-7): 1,
        ("on_curve", 1e-6): 1,
    },
    "render": {
        ("geodesic_path", 1e-9): 1,
    },
}

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _holders(tree: ast.Module):
    """(name, node) of each top-level function, of each statement in a
    top-level class (a method by "Class.method"), and of each other
    module-level statement ("<module>")."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                name = (f"{node.name}.{sub.name}"
                        if isinstance(sub, _FUNCTIONS) else node.name)
                yield name, sub
        elif isinstance(node, _FUNCTIONS):
            yield node.name, node
        else:
            yield "<module>", node


def small_floats(source: str) -> Counter:
    """The multiset of (holder, literal) over the float literals of
    `source` in (0, 1e-3]; a negated literal counts as its magnitude."""
    out = Counter()
    for name, node in _holders(ast.parse(source)):
        for sub in ast.walk(node):
            if (isinstance(sub, ast.Constant) and type(sub.value) is float
                    and 0.0 < sub.value <= 1e-3):
                out[name, sub.value] += 1
    return out


def test_small_float_literals_are_the_listed_survivors():
    for module, expected in SURVIVORS.items():
        found = small_floats((PACKAGE / f"{module}.py").read_text())
        assert found == Counter(expected), module


def test_a_planted_threshold_fails_the_inventory():
    source = (PACKAGE / "trigroup.py").read_text()
    planted = source + "\n\ndef _near(a, b):\n    return abs(a - b) < 1e-8\n"
    assert small_floats(planted) - small_floats(source) == \
        Counter({("_near", 1e-8): 1})
    assert small_floats(planted) != Counter(SURVIVORS["trigroup"])


# Every function of the package that reads a named threshold, by module and
# holder as above.
READERS = {
    "EPS_PT": {
        "hyp2.geodesic_through", "hyp2.geodesic_crossing", "hyp2.is_identity",
        "trigroup._disc_candidates", "trigroup.adjacency_isometries",
        "report.VerificationReport.as_dict",
    },
    "EPS_BAND": {
        "hyp2.classify", "trigroup._coset_repeat",
        "report.VerificationReport.as_dict",
    },
}


def threshold_readers(sources: dict[str, str]) -> dict[str, set[str]]:
    """{threshold: the "module.holder" of each holder that names it}, over
    `sources` ({module: source}): as an attribute (``config.EPS_PT``) or as
    a name imported from ``config``."""
    out: dict[str, set[str]] = {name: set() for name in READERS}
    for module, source in sources.items():
        for holder, node in _holders(ast.parse(source)):
            for sub in ast.walk(node):
                name = (sub.attr if isinstance(sub, ast.Attribute)
                        else sub.name if isinstance(sub, ast.alias) else None)
                if name in out:
                    out[name].add(f"{module}.{holder}")
    return out


def _package_sources() -> dict[str, str]:
    return {path.stem: path.read_text()
            for path in sorted(PACKAGE.glob("*.py"))
            if path.stem != "config"}


def _undocumented(readers: dict[str, set[str]]) -> list[str]:
    """The readers that the config docstring does not list under their
    threshold: the EPS_PT list precedes the EPS_BAND one."""
    doc = config.__doc__
    cut = doc.index("``EPS_BAND`` is")
    lists = {"EPS_PT": doc[doc.index("``EPS_PT`` is"):cut],
             "EPS_BAND": doc[cut:]}
    return sorted(f"{name}: {reader}" for name, found in readers.items()
                  for reader in found if f"``{reader}``" not in lists[name])


def test_threshold_readers_are_pinned_and_documented():
    readers = threshold_readers(_package_sources())
    assert readers == READERS
    assert _undocumented(readers) == []


def test_a_planted_threshold_reader_fails_the_inventory():
    sources = _package_sources()
    sources["trigroup"] += ("\n\ndef _near(a, b):\n"
                            "    return abs(a - b) < config.EPS_BAND\n")
    readers = threshold_readers(sources)
    assert readers["EPS_BAND"] - READERS["EPS_BAND"] == {"trigroup._near"}
    assert _undocumented(readers) == ["EPS_BAND: trigroup._near"]
