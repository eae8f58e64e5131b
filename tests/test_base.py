import pytest

from computads.base import category_from_faces, truncate_category, validate_category
from computads.errors import (
    AssociativityFailure,
    CompositionGap,
    DimensionViolation,
    UnknownFace,
    UnknownSort,
)
from computads.presheaf import PresheafMorphism, boundary_representable, check_morphism, representable

from fixtures import arrow_category


def test_arrow_category_valid():
    cat = arrow_category()
    assert cat.sorts == ("o", "a")
    assert cat.hom("o", "a") == ("s", "t")
    assert cat.composable_into("a") == []


def test_dimension_violation():
    with pytest.raises(DimensionViolation):
        validate_category(
            {
                "sorts": [{"id": "o", "dim": 0}, {"id": "a", "dim": 1}],
                "faces": [{"id": "bad", "src": "a", "dst": "o"}],
                "compose": [],
            }
        )


def test_missing_composite_detected():
    raw = {
        "sorts": [{"id": "x", "dim": 0}, {"id": "y", "dim": 1}, {"id": "z", "dim": 2}],
        "faces": [
            {"id": "f", "src": "x", "dst": "y"},
            {"id": "g", "src": "y", "dst": "z"},
            {"id": "h", "src": "x", "dst": "z"},
        ],
        "compose": [],
    }
    with pytest.raises(CompositionGap):
        validate_category(raw)
    raw["compose"] = [{"first": "f", "second": "g", "result": "h"}]
    cat = validate_category(raw)
    assert cat.compose("f", "g") == "h"


@pytest.mark.parametrize(
    "faces, first_gap",
    [
        # two faces that lack a composite with g, the later one first by id
        ([("g", "y", "z"), ("p", "x", "y"), ("n", "x", "y")], ("p", "g")),
        # one face that lacks a composite with two, the later one first by id
        ([("f", "x", "y"), ("v", "y", "z"), ("u", "y", "z")], ("f", "v")),
    ],
)
def test_the_first_missing_composite_in_document_order_is_named(faces, first_gap):
    raw = {
        "sorts": [{"id": "x", "dim": 0}, {"id": "y", "dim": 1}, {"id": "z", "dim": 2}],
        "faces": [{"id": f, "src": s, "dst": t} for f, s, t in faces]
        + [{"id": "h", "src": "x", "dst": "z"}],
        "compose": [],
    }
    with pytest.raises(CompositionGap) as exc:
        validate_category(raw)
    assert str(exc.value) == "missing composite of {!r} then {!r}".format(*first_gap)


def test_associativity_checked():
    # Two parallel composable chains x -> y -> z -> w with an inconsistent table.
    raw = {
        "sorts": [
            {"id": "x", "dim": 0},
            {"id": "y", "dim": 1},
            {"id": "z", "dim": 2},
            {"id": "w", "dim": 3},
        ],
        "faces": [
            {"id": "f", "src": "x", "dst": "y"},
            {"id": "g", "src": "y", "dst": "z"},
            {"id": "h", "src": "z", "dst": "w"},
            {"id": "gf", "src": "x", "dst": "z"},
            {"id": "hg", "src": "y", "dst": "w"},
            {"id": "k1", "src": "x", "dst": "w"},
            {"id": "k2", "src": "x", "dst": "w"},
        ],
        "compose": [
            {"first": "f", "second": "g", "result": "gf"},
            {"first": "g", "second": "h", "result": "hg"},
            {"first": "gf", "second": "h", "result": "k1"},
            {"first": "f", "second": "hg", "result": "k2"},
        ],
    }
    with pytest.raises(AssociativityFailure):
        validate_category(raw)
    raw["compose"][3]["result"] = "k1"
    cat = validate_category(raw)
    assert cat.compose("gf", "h") == cat.compose("f", "hg") == "k1"


def test_truncate_category():
    cat = arrow_category()
    tr0 = truncate_category(cat, 0)
    assert tr0.sorts == ("o",)
    assert not tr0.faces
    assert truncate_category(cat, 1).dims == cat.dims
    # idempotence
    assert truncate_category(tr0, 0).dims == tr0.dims


def test_representable_arrow():
    cat = arrow_category()
    da = representable(cat, "a")
    assert da.cells_at("a") == ("id_a",)
    assert set(da.cells_at("o")) == {"s", "t"}
    assert da.act("s", "id_a") == "s"
    do = representable(cat, "o")
    assert do.cells_at("o") == ("id_o",)
    assert do.cells_at("a") == ()
    with pytest.raises(UnknownSort):
        representable(cat, "zz")


def test_boundary_representable_arrow():
    cat = arrow_category()
    sub = boundary_representable(cat, "a")
    assert sub.cells_at("a") == ()
    assert set(sub.cells_at("o")) == {"s", "t"}
    incl = PresheafMorphism(sub, representable(cat, "a"), {"s": "s", "t": "t"})
    check_morphism(incl)
    empty = boundary_representable(cat, "o")
    assert empty.is_empty()


def test_sorts_are_computed_once_in_dimension_then_id_order():
    raw = {
        "sorts": [
            {"id": "z", "dim": 0},
            {"id": "b", "dim": 2},
            {"id": "y", "dim": 1},
            {"id": "a", "dim": 0},
            {"id": "x", "dim": 1},
        ],
        "faces": [],
        "compose": [],
    }
    cat = validate_category(raw)
    assert cat.sorts == ("a", "z", "x", "y", "b")
    assert cat.sorts is cat.sorts
    tr = truncate_category(cat, 1)
    assert tr.sorts == ("a", "z", "x", "y")
    assert tr.sorts is tr.sorts


def test_category_from_faces_rejects_repeated_ids():
    from computads.packs import discrete_category

    with pytest.raises(UnknownSort, match="duplicate sort id 'a'"):
        discrete_category(["a", "a"])
    dims = [("a", 0), ("b", 1)]
    faces = [("f", ("a", "b", None)), ("f", ("a", "b", None))]
    with pytest.raises(UnknownFace, match="duplicate face id 'f'"):
        category_from_faces(dims, faces)
