import pytest

from computads.errors import IncompatibleArgs, SortMismatch
from computads.presheaf import boundary_representable
from computads.terms import (
    app,
    boundary,
    boundary_along,
    canonical_sort,
    check_family,
    check_term,
    serialize,
    subst,
    term_sort,
    var,
)

from fixtures import comp_uv, globe2, walk2


def test_var_sorts():
    c = walk2()
    u = var("u")
    assert check_term(c, u) == "a"
    assert term_sort(c, u) == "a"
    assert u.depth == 0


def test_comp_uv_well_formed():
    c = walk2()
    t = comp_uv()
    assert check_term(c, t) == "a"
    assert t.depth == 1
    built = app(
        "comp",
        {"x": var("p"), "y": var("q"), "z": var("r"), "f": var("u"), "g": var("v")},
    )
    assert check_term(c, built) == "a"
    assert built == t


def test_incompatible_family_rejected():
    c = walk2()
    bad = app(
        "comp",
        {"x": var("p"), "y": var("r"), "z": var("r"), "f": var("u"), "g": var("v")},
    )
    with pytest.raises(IncompatibleArgs):
        check_term(c, bad)


def test_check_family_over_an_arity():
    c = walk2()
    arity = c.symbol("comp").arity
    args = {"x": var("p"), "y": var("q"), "z": var("r"), "f": var("u"), "g": var("v")}
    check_family(c, arity, args, "comp")
    with pytest.raises(IncompatibleArgs):  # f ends at q, not at y
        check_family(c, arity, dict(args, y=var("r"), z=var("r")), "comp")
    with pytest.raises(SortMismatch):
        check_family(c, arity, dict(args, x=var("u")), "comp")
    with pytest.raises(IncompatibleArgs):
        check_family(c, arity, {k: t for k, t in args.items() if k != "g"}, "comp")
    with pytest.raises(IncompatibleArgs):
        check_family(c, arity, dict(args, w=var("p")), "comp")


def test_check_family_over_a_representable_boundary():
    # a gluing family of a 2-globe: cells of the boundary of the representable
    # are the faces into g2, acted on by composition
    c = globe2()
    sphere = boundary_representable(c.base, "g2")
    family = {"s1:2": var("f"), "t1:2": var("g"), "s0:2": var("x"), "t0:2": var("y")}
    check_family(c, sphere, family, "al")
    with pytest.raises(IncompatibleArgs):  # the source of f is x, not y
        check_family(c, sphere, dict(family, **{"s0:2": var("y")}), "al")
    with pytest.raises(SortMismatch):
        check_family(c, sphere, dict(family, **{"s1:2": var("x")}), "al")


def test_boundary_of_var_is_gluing():
    c = walk2()
    assert boundary(c, "s", var("u")) == var("p")
    assert boundary(c, "t", var("v")) == var("r")


def test_boundary_of_app_unfolds_boundary_term():
    c = walk2()
    t = comp_uv()
    assert boundary_along(c, "s", t) == var("p")
    assert boundary_along(c, "t", t) == var("r")
    with pytest.raises(SortMismatch):
        boundary_along(c, "s", var("p"))


def test_subst_is_structural():
    t = comp_uv()
    relabel = {g: var(g.upper()) for g in ("p", "q", "r", "u", "v")}
    s = subst(t, relabel)
    expected = app(
        "comp",
        {"x": var("P"), "y": var("Q"), "z": var("R"), "f": var("U"), "g": var("V")},
    )
    assert s == expected
    assert serialize(s) != serialize(t)


def test_depth_law():
    c = walk2()
    t = comp_uv()
    nested = app(
        "comp",
        {"x": var("p"), "y": var("q"), "z": var("r"), "f": var("u"), "g": var("v")},
    )
    assert nested.depth == 1
    assert app("comp", {"x": var("p"), "y": var("r"), "z": var("r"), "f": t, "g": t}).depth == 2


def test_canonical_key_orders_by_depth_then_structure():
    c = walk2()
    ts = [comp_uv(), var("u"), var("v")]
    ordered, names = canonical_sort(ts)
    assert ordered == [var("u"), var("v"), comp_uv()]
    assert names == [serialize(t) for t in ordered]
