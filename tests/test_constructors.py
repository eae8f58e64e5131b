"""Terms and shapes are built only by ``var``, ``app``, ``pvar`` and
``papp``, which intern them.  A node built any other way would be a second
copy of an interned node and compare unequal to it, so no kernel module calls
a node class, or ``interned``, outside those four constructors.  Each sorts
the family it is given, so the order of a family never makes a second node."""

import ast
from pathlib import Path

import computads
from computads.plex import papp, pvar
from computads.terms import app, var

NODE_CLASSES = {"Var", "App", "PVar", "PApp"}
CONSTRUCTORS = {("terms.py", "var"), ("terms.py", "app"), ("plex.py", "pvar"), ("plex.py", "papp")}


class _Builds(ast.NodeVisitor):
    """(outermost function or None, called name, line) for each call of a
    node class or of ``interned``."""

    def __init__(self):
        self.functions: list[str] = []
        self.found: list[tuple[str | None, str, int]] = []

    def visit_FunctionDef(self, node):
        self.functions.append(node.name)
        self.generic_visit(node)
        self.functions.pop()

    def visit_Call(self, node):
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name in NODE_CLASSES or name == "interned":
            where = self.functions[0] if self.functions else None
            self.found.append((where, name, node.lineno))
        self.generic_visit(node)


def test_nodes_are_built_only_by_the_four_constructors():
    package = Path(computads.__file__).parent
    stray = []
    for path in sorted(package.glob("*.py")):
        visitor = _Builds()
        visitor.visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        for where, name, line in visitor.found:
            if name in NODE_CLASSES or (path.name, where) not in CONSTRUCTORS:
                stray.append((path.name, where, name, line))
    assert stray == []


def test_a_family_in_any_order_builds_the_one_node():
    x, y = var("x"), var("y")
    built = app("plus", {"plus.*0": x, "plus.*1": y})
    assert app("plus", {"plus.*1": y, "plus.*0": x}) is built
    assert built.args == (("plus.*0", x), ("plus.*1", y))
    point, line = pvar("o", {}), pvar("o", {"z": pvar("o", {})})
    shape = papp("a", "f", {"x": point, "y": line})
    assert papp("a", "f", {"y": line, "x": point}) is shape
    assert shape.args == (("x", point), ("y", line))
