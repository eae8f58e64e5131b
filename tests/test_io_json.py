import json

import pytest

from computads.errors import BaseMismatch, KernelError
from computads.io_json import (
    algebra_from_json,
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
