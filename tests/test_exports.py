"""Every name the package exports has a caller in the package or the benchmark."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "bouex"

# exported names that no module or benchmark workload calls yet, kept open:
# the covariance for the exact finite-t targets, the genealogy readers and
# the single-spine sampler until a check reads them or they go
OPEN = {"pair_covariance", "extremal_measure", "variable_speed_view", "sample_spine"}


def _exports():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def _references(tree, name):
    """Uses of `name` in tree as a name or an attribute, outside its own def."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name:
            continue
        if isinstance(node, ast.Name) and node.id == name or \
                isinstance(node, ast.Attribute) and node.attr == name:
            return True
        stack.extend(ast.iter_child_nodes(node))
    return False


def _unreferenced(names):
    files = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    trees = [ast.parse(p.read_text()) for p in files + sorted((ROOT / "perfbench").glob("*.py"))]
    return {name for name in names if not any(_references(t, name) for t in trees)}


def test_every_export_has_a_caller_but_the_open_ones():
    exports = _exports()
    assert OPEN <= exports
    assert _unreferenced(exports) == OPEN


def test_an_export_only_its_own_definition_uses_is_found():
    # a recursive function that nothing else calls has no caller
    tree = ast.parse("def f(n):\n    return f(n - 1) if n else 0\n\ny = g()\n")
    assert not _references(tree, "f") and _references(tree, "g")
