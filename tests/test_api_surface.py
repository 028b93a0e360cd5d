"""Guard against regrowth of the public surface: every public top-level
function and class of ``orbiflow``, and every public method of such a class,
is named somewhere in the package besides its own definition.  A function
whose only caller is a test belongs in the test.  Dunders are exempt.  Every
dataclass field is read as an attribute in the package or in perfbench."""
import ast
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


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def test_every_dataclass_field_is_read():
    # A field that no code reads as an attribute is data built for nothing.
    # perfbench counts as a reader: the surgery-sweep workload prints
    # fields of the theorem rows.
    paths = sorted(PACKAGE.glob("*.py")) + sorted(PERFBENCH.glob("*.py"))
    reads = set()
    for path in paths:
        reads.update(sub.attr for sub in ast.walk(ast.parse(path.read_text()))
                     if isinstance(sub, ast.Attribute)
                     and isinstance(sub.ctx, ast.Load))
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                unread += [f"{path.stem}.{node.name}.{sub.target.id}"
                           for sub in node.body
                           if isinstance(sub, ast.AnnAssign)
                           and isinstance(sub.target, ast.Name)
                           and sub.target.id not in reads]
    assert not unread, f"dataclass fields nothing reads: {unread}"
