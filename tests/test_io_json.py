import copy
import json

import pytest

from computads.base import category_to_json, validate_category
from computads.errors import (
    BaseMismatch,
    BoundaryIllTyped,
    CompositionGap,
    FunctorialityFailure,
    GluingIllTyped,
    KernelError,
    MissingAction,
    PartialTable,
    UnknownGenerator,
)
from computads.globular import globe_category
from computads.io_json import (
    algebra_from_json,
    algebra_morphism_from_json,
    algebra_to_json,
    computad_from_json,
    computad_to_json,
    detect_kind,
    morphism_from_json,
    morphism_to_json,
    polyplex_from_json,
    polyplex_to_json,
)
from computads.computad import identity_morphism
from computads.plex import classify
from computads.signature import term_from_json, term_to_json
from computads.terms import var

from fixtures import comp_uv, pathcat_algebra, walk2


def test_computad_roundtrip():
    c = walk2()
    raw = json.loads(json.dumps(computad_to_json(c)))
    again = computad_from_json(raw)
    assert again.gens == c.gens
    assert again.glue == c.glue


def test_morphism_roundtrip():
    m = identity_morphism(walk2())
    raw = json.loads(json.dumps(morphism_to_json(m)))
    again = morphism_from_json(raw)
    assert again.assign == m.assign


def test_algebra_roundtrip_preserves_tables():
    alg = pathcat_algebra()
    raw = json.loads(json.dumps(algebra_to_json(alg)))
    again = algebra_from_json(raw)
    row = {"x": "A", "y": "B", "z": "C", "f": "e1", "g": "e2"}
    assert again.interpret("comp", row) == alg.interpret("comp", row)
    assert again.carrier.cells == alg.carrier.cells


def test_algebra_carrier_over_another_category_is_rejected():
    raw = algebra_to_json(pathcat_algebra())
    # the carrier's category must be the signature's, not just validate
    raw["carrier"]["category"]["faces"].reverse()
    assert algebra_from_json(raw).carrier.base.faces.keys() == {"s", "t"}
    for mutate in (
        lambda cat: cat["sorts"].append({"id": "b", "dim": 2}),
        lambda cat: cat["faces"][0].update(id="u"),
        lambda cat: cat["faces"].append({"id": "u", "src": "o", "dst": "a"}),
    ):
        bad = algebra_to_json(pathcat_algebra())
        mutate(bad["carrier"]["category"])
        with pytest.raises(BaseMismatch):
            algebra_from_json(bad)


def test_polyplex_roundtrip():
    c = walk2()
    for t in (var("p"), var("u"), comp_uv()):
        p = classify(c, t)
        raw = json.loads(json.dumps(polyplex_to_json(p)))
        assert polyplex_from_json(raw) == p


def test_detect_kind():
    assert detect_kind(computad_to_json(walk2())) == "computad"
    assert detect_kind(morphism_to_json(identity_morphism(walk2()))) == "morphism"
    assert detect_kind(algebra_to_json(pathcat_algebra())) == "algebra"


@pytest.mark.parametrize(
    "raw",
    [
        5,
        {"shape": {}},
        {"pvar": []},
        {"pvar": {"sort": "o", "boundary": [5]}},
        {"pvar": {"boundary": []}},
        {"pvar": {"sort": 5}},
        {"papp": {"sort": "a", "args": []}},
        {"papp": {"sort": "a", "symbol": "comp", "args": {"x": {}}}},
        {"papp": {"sort": "a", "symbol": "comp", "args": [{"cell": "x"}]}},
        {"papp": {"sort": "a", "symbol": "comp", "args": [{"polyplex": {}}]}},
        {"papp": {"sort": "a", "symbol": "comp", "args": [{"cell": "x", "polyplex": 5}]}},
    ],
)
def test_malformed_polyplex_documents_are_kernel_errors(raw):
    with pytest.raises(KernelError):
        polyplex_from_json(raw)


def _algebra_morphism_doc() -> dict:
    alg = algebra_to_json(pathcat_algebra())
    cells = [c for cs in alg["carrier"]["cells"].values() for c in cs]
    return {"src": alg, "dst": alg, "components": [{"from": c, "to": c} for c in cells]}


# per list whose entries are keyed: a document holding it, the path to it,
# the decoder and the decoder's error
KEYED_LISTS = {
    "compose": (
        lambda: category_to_json(globe_category(2)), ("compose",), validate_category,
        CompositionGap,
    ),
    "action": (
        lambda: computad_to_json(walk2()), ("signature", "symbols", 0, "arity", "action"),
        computad_from_json, FunctorialityFailure,
    ),
    "boundary": (
        lambda: computad_to_json(walk2()), ("signature", "symbols", 0, "boundary"),
        computad_from_json, BoundaryIllTyped,
    ),
    "gluing": (lambda: computad_to_json(walk2()), ("gluing",), computad_from_json, GluingIllTyped),
    "args": (lambda: term_to_json(comp_uv()), ("app", "args"), term_from_json, BoundaryIllTyped),
    "assign": (
        lambda: morphism_to_json(identity_morphism(walk2())), ("assign",), morphism_from_json,
        UnknownGenerator,
    ),
    "interpretations": (
        lambda: algebra_to_json(pathcat_algebra()), ("interpretations",), algebra_from_json,
        PartialTable,
    ),
    "rows": (
        lambda: algebra_to_json(pathcat_algebra()), ("interpretations", 0, "rows"),
        algebra_from_json, PartialTable,
    ),
    "hom": (
        lambda: algebra_to_json(pathcat_algebra()), ("interpretations", 0, "rows", 0, "hom"),
        algebra_from_json, PartialTable,
    ),
    "components": (_algebra_morphism_doc, ("components",), algebra_morphism_from_json, MissingAction),
    "polyplex args": (
        lambda: polyplex_to_json(classify(walk2(), comp_uv())), ("papp", "args"),
        polyplex_from_json, KernelError,
    ),
}


@pytest.mark.parametrize("name", sorted(KEYED_LISTS))
def test_a_key_listed_twice_is_a_typed_error(name):
    make, path, decode, error = KEYED_LISTS[name]
    doc = make()
    decode(doc)  # the document as made is valid
    entries = doc
    for key in path:
        entries = entries[key]
    entries.append(copy.deepcopy(entries[0]))  # the first entry, listed again
    with pytest.raises(error, match="twice"):
        decode(doc)


def test_rows_with_one_hom_in_two_orders_are_one_row_listed_twice():
    doc = algebra_to_json(pathcat_algebra())
    rows = doc["interpretations"][0]["rows"]
    twin = copy.deepcopy(rows[0])
    twin["hom"].reverse()
    twin["value"] = rows[1]["value"]
    rows.append(twin)
    with pytest.raises(PartialTable, match="twice"):
        algebra_from_json(doc)
