"""Every public name of the package has a caller in the package or the
benchmark, and every public field a reader (see `FIELDS_OPEN` below).

The public names are what `bouex/__init__.py` imports, every module-level
function and class in `src/bouex/*.py` whose name has no leading underscore,
and every such method or property of those classes.  A caller is a use by
name outside the name's own definition; a property is used only by an
attribute read that is not called, so `array.max()` does not use a `max`
property.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "bouex"

# public names that no module or benchmark workload calls yet, kept open:
# the covariance for the exact finite-t targets
OPEN = {"pair_covariance"}


def _exports():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def _is_property(node):
    return any(ast.unparse(d).endswith("property") for d in node.decorator_list)


def _public(tree):
    """{name: is a property} of tree's public functions and classes, and of
    the public methods and properties of those classes."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            names[node.name] = False
            if isinstance(node, ast.ClassDef):
                names.update((item.name, _is_property(item)) for item in node.body
                             if isinstance(item, ast.FunctionDef)
                             and not item.name.startswith("_"))
    return names


def _references(tree, name, is_property=False):
    """Uses of `name` in tree outside its own def: as a name or an attribute,
    or for a property as an attribute that is not called."""
    called = {id(node.func) for node in ast.walk(tree)
              if isinstance(node, ast.Call)} if is_property else set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name:
            continue
        if isinstance(node, ast.Name) and node.id == name and not is_property or \
                isinstance(node, ast.Attribute) and node.attr == name and \
                id(node) not in called:
            return True
        stack.extend(ast.iter_child_nodes(node))
    return False


def _unreferenced(names):
    """The names of {name: is a property} with no use in the package or the benchmark."""
    files = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    trees = [ast.parse(p.read_text()) for p in files + sorted((ROOT / "perfbench").glob("*.py"))]
    return {name for name, prop in names.items()
            if not any(_references(t, name, prop) for t in trees)}


def test_every_export_has_a_caller_but_the_open_ones():
    names = dict.fromkeys(_exports(), False)
    for path in PACKAGE.glob("*.py"):
        names.update(_public(ast.parse(path.read_text())))
    assert OPEN <= names.keys()
    assert _unreferenced(names) == OPEN


def test_an_export_only_its_own_definition_uses_is_found():
    # a recursive function that nothing else calls has no caller
    tree = ast.parse("def f(n):\n    return f(n - 1) if n else 0\n\ny = g()\n")
    assert not _references(tree, "f") and _references(tree, "g")


def test_an_unreferenced_method_or_property_is_found():
    source = ("class A:\n"
              "    def used(self):\n        return self.width\n"
              "    def unused(self):\n        return self.used()\n"
              "    @property\n    def top(self):\n        return 0\n"
              "    @property\n    def width(self):\n        return 1\n"
              "    def _private(self):\n        pass\n"
              "\n\nA().used()\nxs.top()\n")
    tree = ast.parse(source)
    names = _public(tree)
    assert names == {"A": False, "used": False, "unused": False, "top": True,
                     "width": True}
    # `xs.top()` calls some other `top`; a property is read, not called
    assert {n for n, prop in names.items() if not _references(tree, n, prop)} == \
        {"unused", "top"}


# Fields.  A public field is a dataclass field (not a ClassVar) or an
# attribute a method assigns on `self`, of a public class in src/bouex.  It
# is used when src/bouex or perfbench reads it as an attribute; the class's
# own methods count (`Forest.positions_for` reads `self.horizon_t`), while an
# assignment or a keyword at construction does not.  The rule goes by name,
# so it cannot see a field whose name collides with another read: the
# removed `Forest.mu` and `GammaConstants.gamma` passed it, since `args.mu`
# and `args.gamma` are read in the CLI.
#
# public fields that nothing reads as an attribute, kept open:
FIELDS_OPEN = {
    # the benchmark's tracer reads it by name, with getattr
    "Forest.t_end",
    # perfbench/test_perfbench.py constructs CollectedAtoms with it
    "CollectedAtoms.stopped",
}


def _fields(tree):
    """{name: "Class.name"} of the public fields of tree's public classes."""
    fields = {}
    for cls in tree.body:
        if not isinstance(cls, ast.ClassDef) or cls.name.startswith("_"):
            continue
        for item in cls.body:
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name) and \
                    not ast.unparse(item.annotation).startswith("ClassVar"):
                fields[item.target.id] = f"{cls.name}.{item.target.id}"
        for node in ast.walk(cls):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store) and \
                    isinstance(node.value, ast.Name) and node.value.id == "self":
                fields[node.attr] = f"{cls.name}.{node.attr}"
    return {name: owner for name, owner in fields.items() if not name.startswith("_")}


def _unread_fields(package, readers):
    """The "Class.name" of every public field of package that no reader reads."""
    fields = {}
    for path in package.glob("*.py"):
        fields.update(_fields(ast.parse(path.read_text())))
    read = {node.attr for path in readers for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return {owner for name, owner in fields.items() if name not in read}


def test_every_field_is_read_but_the_open_ones():
    readers = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    assert _unread_fields(PACKAGE, readers) == FIELDS_OPEN


def test_an_unread_field_is_found(tmp_path):
    (tmp_path / "m.py").write_text(
        "from dataclasses import dataclass\nfrom typing import ClassVar\n\n\n"
        "@dataclass\nclass A:\n    kept: int\n    unread: int\n    limit: ClassVar[int] = 3\n\n"
        "    def total(self):\n        return self.kept + self.limit\n\n\n"
        "class E(Exception):\n    def __init__(self, stored):\n        self.stored = stored\n"
        "\n\nclass _P:\n    hidden: int\n")
    # only `A.kept` is read; E's attribute is assigned, never read
    assert _unread_fields(tmp_path, [tmp_path / "m.py"]) == {"A.unread", "E.stored"}
