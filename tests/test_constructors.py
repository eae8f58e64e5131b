"""Terms and shapes are built only by ``var``, ``app``, ``pvar`` and
``papp``, which intern them.  A node built any other way would be a second
copy of an interned node and compare unequal to it, so no kernel module calls
a node class, or ``interned``, outside those four constructors.  Each sorts
the family it is given, so the order of a family never makes a second node.

Input is checked once, where it enters: the checked constructors of
categories, presheaves, signatures, computads and morphisms are called only
by the JSON decoders and by the public constructions that take caller
input (``CHECKED``, each site with its reason).  The kernel's own
constructions, the example packs included, build their results directly,
and ``test_trusted.py`` re-checks them."""

import ast
from pathlib import Path

import computads
from computads.plex import papp, pvar
from computads.terms import app, var

NODE_CLASSES = {"Var", "App", "PVar", "PApp"}
CONSTRUCTORS = {("terms.py", "var"), ("terms.py", "app"), ("plex.py", "pvar"), ("plex.py", "papp")}

DECODER = "a JSON decoder"
CHECKED = {
    ("presheaf.py", "validate_presheaf", "validate_category"): DECODER,
    ("presheaf.py", "validate_presheaf", "make_presheaf"): DECODER,
    ("signature.py", "validate_signature", "validate_category"): DECODER,
    ("signature.py", "validate_signature", "build_signature"): DECODER,
    ("io_json.py", "computad_from_json", "make_computad"): DECODER,
    ("io_json.py", "morphism_from_json", "make_morphism"): DECODER,
    ("io_json.py", "algebra_from_json", "validate_category"): DECODER,
    ("io_json.py", "KINDS", "validate_category"): "the decoder of a category document",
    ("packs.py", "discrete_signature", "make_presheaf"): "caller input: sorts and arities",
    ("packs.py", "discrete_signature", "build_signature"): "caller input: sorts and arities",
    ("packs.py", "horn", "make_presheaf"): "caller input: any category",
    ("factorization.py", "coherence", "extend_signature"): "caller input: the sides",
    ("computad.py", "var_to_var_morphism", "make_morphism"): "caller input: a generator map",
    ("cofibrant.py", "classify_term", "make_morphism"): "caller input: a term",
    ("cofibrant.py", "classify_type", "make_morphism"): "caller input: a boundary family",
    ("monad.py", "untranspose", "make_morphism"): "caller input: an argument family",
}


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


def _uses(tree: ast.Module, names: set[str]):
    """(outermost function or module-level assignment, name) for each read
    of one of ``names``, bare or as an attribute."""
    for top in tree.body:
        if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
            where = top.name
        elif isinstance(top, (ast.Assign, ast.AnnAssign)):
            target = top.targets[0] if isinstance(top, ast.Assign) else top.target
            where = getattr(target, "id", None)
        else:
            where = None
        for node in ast.walk(top):
            name = getattr(node, "id", None) or getattr(node, "attr", None)
            if name in names and isinstance(getattr(node, "ctx", None), ast.Load):
                yield where, name


def test_checked_constructors_are_called_only_on_input():
    package = Path(computads.__file__).parent
    names = {
        "validate_category",
        "make_presheaf",
        "build_signature",
        "extend_signature",
        "make_computad",
        "make_morphism",
    }
    found = set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found |= {(path.name, where, name) for where, name in _uses(tree, names)}
    assert sorted(found - CHECKED.keys()) == []
    assert sorted(CHECKED.keys() - found) == []


def test_a_family_in_any_order_builds_the_one_node():
    x, y = var("x"), var("y")
    built = app("plus", {"plus.*0": x, "plus.*1": y})
    assert app("plus", {"plus.*1": y, "plus.*0": x}) is built
    assert built.args == (("plus.*0", x), ("plus.*1", y))
    point, line = pvar("o", {}), pvar("o", {"z": pvar("o", {})})
    shape = papp("a", "f", {"x": point, "y": line})
    assert papp("a", "f", {"y": line, "x": point}) is shape
    assert shape.args == (("x", point), ("y", line))
