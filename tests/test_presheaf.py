import random

import pytest

from computads.errors import FunctorialityFailure, MissingAction
from computads.packs import discrete_category
from computads.presheaf import (
    boundary_representable,
    check_morphism,
    enumerate_hom,
    make_presheaf,
    presheaf_to_json,
    representable,
    skeleton_presheaf,
    truncate_presheaf,
    validate_presheaf,
)

from fixtures import arrow_arity, arrow_category, random_presheaf


def test_arrow_arity_valid():
    b = arrow_arity()
    assert b.size() == {"o": 3, "a": 2}
    assert b.act("t", "f") == "y"


def test_missing_action():
    cat = arrow_category()
    with pytest.raises(MissingAction):
        make_presheaf(cat, {"o": ("x",), "a": ("f",)}, {("s", "f"): "x"})


def test_action_out_of_range():
    cat = arrow_category()
    with pytest.raises(FunctorialityFailure):
        make_presheaf(
            cat,
            {"o": ("x",), "a": ("f",)},
            {("s", "f"): "f", ("t", "f"): "x"},
        )


def test_empty_presheaf_valid():
    p = make_presheaf(arrow_category(), {}, {})
    assert p.is_empty()


def test_hom_yoneda_at_zero_sort():
    cat = arrow_category()
    do = representable(cat, "o")
    b = arrow_arity(cat)
    homs = enumerate_hom(do, b)
    assert sorted(h.component["id_o"] for h in homs) == ["x", "y", "z"]


def test_hom_identity_present():
    b = arrow_arity()
    homs = enumerate_hom(b, b)
    ident = {c: c for cs in b.cells.values() for c in cs}
    assert ident in [h.component for h in homs]


def test_hom_boundary_sphere_count():
    # Two free 0-cells mapping anywhere into the two endpoints of an interval.
    cat = arrow_category()
    sub, _ = boundary_representable(cat, "a")
    da = representable(cat, "a")
    assert len(enumerate_hom(sub, da)) == 4


def test_hom_naturality_enforced():
    cat = arrow_category()
    da = representable(cat, "a")
    b = arrow_arity(cat)
    homs = enumerate_hom(da, b)
    # id_a can land on f or g; endpoints are then forced.
    assert len(homs) == 2
    for h in homs:
        check_morphism(h)


def _brute_force_homs(x, y):
    # product over all componentwise choices, filtered by naturality, in the
    # order itertools.product lists them
    import itertools

    cells = [c for s in x.base.sorts for c in x.cells_at(s)]
    choices = [y.cells_at(x.sort_of(c)) for c in cells]
    homs = []
    for values in itertools.product(*choices):
        comp = dict(zip(cells, values))
        if all(
            comp[x.act(face, c)] == y.act(face, comp[c])
            for c in cells
            for face in x.base.faces_into(x.sort_of(c))
        ):
            homs.append(comp)
    return homs


def test_hom_count_matches_brute_force():
    cat = arrow_category()
    rng = random.Random(19)
    for _ in range(15):
        x = random_presheaf(cat, rng, tag="x")
        y = random_presheaf(cat, rng, tag="y")
        assert [h.component for h in enumerate_hom(x, y)] == _brute_force_homs(x, y)


def test_hom_from_large_presheaf_does_not_recurse():
    # one search step per cell: far more cells than the recursion limit
    cat = discrete_category(["o"])
    x = make_presheaf(cat, {"o": tuple(f"x{i}" for i in range(1200))}, {})
    y = make_presheaf(cat, {"o": ("y",)}, {})
    homs = enumerate_hom(x, y)
    assert len(homs) == 1
    assert set(homs[0].component.values()) == {"y"}


def test_truncate_skeleton_roundtrip():
    b = arrow_arity()
    t0 = truncate_presheaf(b, 0)
    assert t0.cells_at("o") == ("x", "y", "z")
    sk = skeleton_presheaf(t0, b.base)
    assert sk.cells_at("a") == ()
    assert truncate_presheaf(sk, 0).cells == t0.cells


def test_truncate_skeleton_property_random():
    cat = arrow_category()
    rng = random.Random(7)
    for _ in range(20):
        p = random_presheaf(cat, rng)
        sk = skeleton_presheaf(truncate_presheaf(p, 0), cat)
        assert truncate_presheaf(sk, 0).cells == truncate_presheaf(p, 0).cells


def test_presheaf_json_roundtrip():
    b = arrow_arity()
    raw = presheaf_to_json(b)
    again = validate_presheaf(raw)
    assert again.cells == b.cells
    assert again.action == b.action
