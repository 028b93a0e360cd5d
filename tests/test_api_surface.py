"""Guard against regrowth of the public surface: every public top-level
function and class of ``orbiflow``, and every public method of such a class,
is named somewhere in the package besides its own definition.  A function
whose only caller is a test belongs in the test.  Dunders are exempt.  Every
field of a record class (``orbiflow.Record``) is read as an attribute in the
package or in perfbench, and every function and parameter the perfbench
tracer reads by name exists."""
import ast
import importlib
import importlib.util
import inspect
from collections import Counter
from pathlib import Path

import orbiflow

PACKAGE = Path(orbiflow.__file__).parent
PERFBENCH = Path(__file__).parent.parent / "perfbench"


def _names(node: ast.AST) -> Counter:
    """Every name the code under `node` mentions: bare names, attributes and
    imported names."""
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            out[sub.name.rsplit(".", 1)[-1]] += 1
    return out


def _public_definitions(tree: ast.Module):
    """(qualified name, node) of each public top-level function and class,
    and of each public method of a top-level class."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs) and not node.name.startswith("_"):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, defs) and not sub.name.startswith("_"):
                    yield f"{node.name}.{sub.name}", sub


def test_every_public_name_has_a_caller_in_the_package():
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))}
    mentions = sum((_names(tree) for tree in trees.values()), Counter())
    orphans = []
    for module, tree in trees.items():
        for qualname, node in _public_definitions(tree):
            name = node.name
            if mentions[name] - _names(node)[name] <= 0:
                orphans.append(f"{module}.{qualname}")
    assert not orphans, f"public names with no caller in the package: {orphans}"


def _record_fields(tree: ast.Module):
    """(class name, field names) of each top-level class that derives from
    ``Record`` or ``Value``: its fields are the ``__slots__`` names without a
    leading underscore."""
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        bases = {b.id if isinstance(b, ast.Name) else getattr(b, "attr", None)
                 for b in node.bases}
        if not bases & {"Record", "Value"}:
            continue
        for sub in node.body:
            if (isinstance(sub, ast.Assign) and len(sub.targets) == 1
                    and getattr(sub.targets[0], "id", None) == "__slots__"):
                names = ast.literal_eval(sub.value)
                yield node.name, [n for n in names if not n.startswith("_")]


def _unread_fields(sources: dict[str, str], readers: list[str]):
    """The record fields of `sources` (module name -> code) that no code in
    `readers` reads as an attribute, and the classes examined."""
    reads = set()
    for code in readers:
        reads.update(sub.attr for sub in ast.walk(ast.parse(code))
                     if isinstance(sub, ast.Attribute)
                     and isinstance(sub.ctx, ast.Load))
    unread, examined = [], []
    for module, code in sources.items():
        for name, fields in _record_fields(ast.parse(code)):
            examined.append(name)
            unread += [f"{module}.{name}.{f}" for f in fields if f not in reads]
    return unread, examined


def _package_sources() -> dict[str, str]:
    return {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}


def _perfbench_sources() -> list[str]:
    return [path.read_text() for path in sorted(PERFBENCH.glob("*.py"))]


def _record_classes() -> set[str]:
    """Names of the record classes the package defines, found at run time."""
    for path in PACKAGE.glob("*.py"):
        importlib.import_module(f"orbiflow.{path.stem}")
    out, todo = set(), [orbiflow.Record]
    while todo:
        for sub in todo.pop().__subclasses__():
            todo.append(sub)
            out.add(sub.__name__)
    return out


def test_every_dataclass_field_is_read():
    # A field that no code reads as an attribute is data built for nothing.
    # perfbench counts as a reader: the surgery-sweep workload prints
    # fields of the theorem rows.  The guard must see every subclass of
    # Record (Value and the 24 record classes at this writing), or it passes
    # without looking.
    sources = _package_sources()
    unread, examined = _unread_fields(
        sources, list(sources.values()) + _perfbench_sources())
    assert not unread, f"record fields nothing reads: {unread}"
    assert sorted(examined) == sorted(_record_classes())


def test_field_guard_reports_a_planted_unread_field():
    sources = _package_sources()
    sources["planted"] = ("class Planted(Value):\n"
                          "    __slots__ = ('case', 'never_read', '_cache')\n")
    unread, examined = _unread_fields(
        sources, list(sources.values()) + _perfbench_sources())
    assert unread == ["planted.Planted.never_read"]
    assert "Planted" in examined


def _perfbench_tracer():
    """perfbench/tracer.py, loaded by path: perfbench is no package."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# The parameters each observer of perfbench/tracer.py reads by name.
OBSERVED_PARAMETERS = {"trigroup.enumerate_elements": {"group", "max_len"},
                       "trigroup.adjacency_isometries": {"system"}}


def test_perfbench_reads_what_the_package_defines():
    # The traced benchmark binds its observers to spans by name and reads
    # their arguments by name, and counts the calls of
    # ``hyp2.Isometry.compose``; a renamed function, method or parameter
    # would break it outside the test paths.  perfbench/child.py reads the
    # ball cache.
    tracer = _perfbench_tracer()
    spans = tracer.Observers().by_span_name()
    assert set(OBSERVED_PARAMETERS) <= set(spans)
    for span in spans:
        modname, name = span.split(".")
        module = importlib.import_module(f"orbiflow.{modname}")
        functions = dict(tracer.public_functions(module))
        assert name in functions, f"{span} is no traced function"
        params = inspect.signature(functions[name]).parameters
        assert OBSERVED_PARAMETERS.get(span, set()) <= set(params), span
    trigroup = importlib.import_module("orbiflow.trigroup")
    assert callable(trigroup.enumerate_elements.cache_info)
    hyp2 = importlib.import_module("orbiflow.hyp2")
    assert inspect.isfunction(vars(hyp2.Isometry).get("compose"))
