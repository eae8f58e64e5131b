import sys

import pytest

from computads import signature
from computads.cubical import cube_category, grid_composite
from computads.errors import (
    ArityDimensionViolation,
    BoundaryIllTyped,
    CocycleFailure,
)
from computads.globular import globe_category, parse_tree, tree_composite, tree_dim
from computads.packs import sigma_kan
from computads.presheaf import make_presheaf
from computads.signature import (
    build_signature,
    restrict_signature,
    signature_to_json,
    validate_signature,
)
from computads.terms import var

from fixtures import arrow_arity, arrow_category, comp_signature


def test_comp_signature_valid():
    sig = comp_signature()
    comp = sig.symbol("comp")
    assert comp.sort == "a"
    assert comp.boundary["s"] == var("x")
    assert comp.boundary["t"] == var("z")


def test_boundary_ill_typed():
    cat = arrow_category()
    arity = arrow_arity(cat)
    with pytest.raises(BoundaryIllTyped):
        build_signature(cat, [("comp", "a", arity, {"s": var("f"), "t": var("z")})])


def test_missing_boundary_rejected():
    cat = arrow_category()
    arity = arrow_arity(cat)
    with pytest.raises(BoundaryIllTyped):
        build_signature(cat, [("comp", "a", arity, {"s": var("x")})])


def test_arity_dimension_violation():
    cat = arrow_category()
    arity = arrow_arity(cat)
    with pytest.raises(ArityDimensionViolation):
        build_signature(cat, [("pick", "o", arity, {})])


def test_group_signature_shape():
    from computads.packs import group_signature

    sig = group_signature()
    assert {s: len(sig.symbol(s).arity.cells_at("*")) for s in sig.symbols} == {
        "plus": 2,
        "zero": 0,
        "neg": 1,
    }


def test_restrict_signature():
    sig = comp_signature()
    r0 = restrict_signature(sig, 0)
    assert not r0.symbols
    assert r0.base.sorts == ("o",)
    assert restrict_signature(sig, 1) == sig
    assert restrict_signature(restrict_signature(sig, 1), 0) == r0


def test_cocycle_checked_on_composite_faces():
    # Base with a composite face c = f then g; boundary terms must restrict
    # consistently along it.
    cat_raw = {
        "sorts": [{"id": "x", "dim": 0}, {"id": "y", "dim": 1}, {"id": "z", "dim": 2}],
        "faces": [
            {"id": "f", "src": "x", "dst": "y"},
            {"id": "g", "src": "y", "dst": "z"},
            {"id": "c", "src": "x", "dst": "z"},
        ],
        "compose": [{"first": "f", "second": "g", "result": "c"}],
    }
    from computads.base import validate_category

    cat = validate_category(cat_raw)
    arity = make_presheaf(
        cat,
        {"x": ("a", "b"), "y": ("e",)},
        {("f", "e"): "a"},
    )
    sig = build_signature(
        cat, [("w", "z", arity, {"g": var("e"), "c": var("a")})]
    )
    assert sig.symbol("w").boundary["c"] == var("a")
    # Derivation fills the composite when omitted.
    sig2 = build_signature(cat, [("w", "z", arity, {"g": var("e")})])
    assert sig2.symbol("w").boundary["c"] == var("a")
    with pytest.raises(CocycleFailure):
        build_signature(cat, [("w", "z", arity, {"g": var("e"), "c": var("b")})])


def test_signature_json_roundtrip():
    sig = comp_signature()
    raw = signature_to_json(sig)
    again = validate_signature(raw)
    assert again == sig


def _grid(*counts):
    return grid_composite(cube_category(len(counts) - 1), dict(enumerate(counts)))[0]


def _tree(text):
    tree = parse_tree(text)
    return tree_composite(globe_category(max(tree_dim(tree), 1)), tree)[0]


PACKS = {
    "kan1": lambda: sigma_kan(1),
    "kan2": lambda: sigma_kan(2),
    "kan3": lambda: sigma_kan(3),
    "grid2": lambda: _grid(2),
    "grid21": lambda: _grid(2, 1),
    "grid111": lambda: _grid(1, 1, 1),
    "grid221": lambda: _grid(2, 2, 1),
    "tree[[],[]]": lambda: _tree("[[],[]]"),
    "tree[[[]],[]]": lambda: _tree("[[[]],[]]"),
    "tree-chain6": lambda: _tree("[" * 6 + "]" * 6),
}


@pytest.mark.parametrize("name", PACKS)
def test_a_pack_signature_passes_full_validation_unchanged(name):
    """A pack builds its signature unchecked; full validation of its
    document, the reference check, gives it back."""
    sig = PACKS[name]()
    assert validate_signature(signature_to_json(sig)) == sig


@pytest.mark.parametrize("name", ["tree-chain6", "grid111", "grid221", "kan3"])
def test_a_pack_builds_each_symbol_once_without_a_check(monkeypatch, name):
    """A pack builds its category and symbols from its own rules: each
    symbol once, and no category, declaration or coherence check on the way,
    in whatever module the check is bound.  The tests re-check what it
    builds: full validation above, and ``test_trusted.py``."""

    def refuse(*args, **kwargs):
        raise AssertionError("a pack called a checked constructor")

    built, symbol = [], signature.FunctionSymbol

    def counting(symbol_id, *rest):
        built.append(symbol_id)
        return symbol(symbol_id, *rest)

    modules = [m for n, m in sorted(sys.modules.items()) if n.startswith("computads.")]
    for module in modules:
        for checked in ("validate_category", "check_declaration", "coherence"):
            if hasattr(module, checked):
                monkeypatch.setattr(module, checked, refuse)
        if hasattr(module, "FunctionSymbol"):
            monkeypatch.setattr(module, "FunctionSymbol", counting)
    sig = PACKS[name]()
    assert sorted(built) == sorted(sig.symbols)
