"""Terms and shapes far deeper than the recursion limit.

Equal nodes are one interned object, so comparing and hashing them never
walks a tree, and every walk over a tree is an explicit-stack fold.  The
walks run here on a 3,000-deep ``neg`` chain at the interpreter's default
recursion limit of 1,000.  The enumerators build their ranks bottom-up, so
they list terms and shapes of any depth at that limit too.
"""

import gc
import json
import sys

import pytest

from computads import terms
from computads.algebra import eval_in_env, eval_term
from computads.cli import main
from computads.computad import apply_morphism, make_computad
from computads.factorization import support
from computads.io_json import computad_to_json, polyplex_from_json, polyplex_to_json
from computads.monad import enumerate_terms
from computads.packs import group_signature
from computads.plex import (
    classify,
    classifying_morphism,
    enumerate_polyplexes,
    papp,
    pboundary,
    polyplex_computad,
    pvar,
)
from computads.presheaf import make_presheaf
from computads.signature import build_signature, term_from_json, term_to_json
from computads.terms import app, check_term, rename, serialize, spellings, subst, var

from fixtures import arrow_category, z5_algebra

DEPTH = 3000
REP_DEPTH = 600
# Every rank's list is built in full, so listing the chains to ENUM_DEPTH
# builds ENUM_DEPTH**2 / 2 nodes: about 1 s on 2 vCPUs, and some 15 s at DEPTH.
ENUM_DEPTH = 1000


def neg_chain(depth: int, leaf: str = "x"):
    t = var(leaf)
    for _ in range(depth):
        t = app("neg", {"neg.*0": t})
    return t


@pytest.fixture
def default_recursion_limit():
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        yield
    finally:
        sys.setrecursionlimit(limit)


def test_separately_built_deep_chains_are_one_object(default_recursion_limit):
    a, b = neg_chain(DEPTH), neg_chain(DEPTH)
    assert a == b
    assert a is b
    assert {a: 1}[b] == 1
    assert a.depth == DEPTH
    assert neg_chain(DEPTH, "y") != a


def test_every_walk_takes_a_deep_chain(default_recursion_limit):
    c = make_computad(group_signature(), {"*": ("x", "y")}, {})
    t, renamed = neg_chain(DEPTH), neg_chain(DEPTH, "y")
    assert serialize(t) == "neg[neg.*0=" * DEPTH + "v(x)" + "]" * DEPTH
    assert spellings([t, renamed])[1].endswith("v(y)" + "]" * DEPTH)
    assert subst(t, {"x": var("y")}) is renamed
    assert rename(t, {"x": "y"}) is renamed
    assert check_term(c, t, expected_sort="*") == "*"
    assert term_from_json(term_to_json(t)) is t
    assert support(c, t) == {"*": {"x"}}

    p = classify(c, t)
    assert p.weight == DEPTH
    assert polyplex_from_json(polyplex_to_json(p)) is p
    z5 = z5_algebra()
    assert eval_term(z5, neg_chain(DEPTH + 1, "2")) == "3"
    assert eval_in_env(z5, t, {"x": "2"}) == "2"


def test_classifying_morphism_of_a_deep_chain(default_recursion_limit):
    # |p| for a chain of depth n holds the universal terms of depths 1..n, each
    # over a generator whose colimit name grows with its depth, so it costs
    # O(n^2); REP_DEPTH levels already need more frames than the limit allows
    # a recursive construction.
    c = make_computad(group_signature(), {"*": ("x",)}, {})
    t = neg_chain(REP_DEPTH)
    rep = polyplex_computad(c.signature, classify(c, t))
    m = classifying_morphism(c, t)
    assert m.src is rep.computad
    assert apply_morphism(m, rep.universal) is t


def test_boundary_shape_of_a_deep_boundary_term(default_recursion_limit):
    # f : x -> x with source boundary e^DEPTH(x), for a unary e on objects
    cat = arrow_category()
    point = make_presheaf(cat, {"o": ("x",), "a": ()}, {})
    source = var("x")
    for _ in range(DEPTH):
        source = app("e", {"x": source})
    sig = build_signature(
        cat, [("e", "o", point, {}), ("f", "a", point, {"s": source, "t": var("x")})]
    )
    low = pboundary(sig, "s", papp("a", "f", {"x": pvar("o", {})}))
    assert low.weight == DEPTH
    assert pboundary(sig, "t", papp("a", "f", {"x": pvar("o", {})})) is pvar("o", {})


def test_support_of_a_deeper_chain_after_a_shallower_one(default_recursion_limit):
    # the second walk meets the first chain's subterms in the support table
    c = make_computad(group_signature(), {"*": ("x",)}, {})
    assert support(c, neg_chain(200)) == {"*": {"x"}}
    assert support(c, neg_chain(400)) == {"*": {"x"}}


def test_shape_of_a_deeper_chain_after_a_shallower_one(default_recursion_limit):
    # the second walk meets the first chain's subterms in the shape table
    c = make_computad(group_signature(), {"*": ("x",)}, {})
    assert classify(c, neg_chain(200)).weight == 200
    deeper = classify(c, neg_chain(400))
    assert deeper.weight == 400
    assert deeper.args[0][1].args[0][1] is classify(c, neg_chain(398))


def test_the_intern_table_pins_no_dead_node():
    def build_and_drop() -> int:
        ts = [app("plus", {"plus.*0": var(f"g{i}"), "plus.*1": var("x")}) for i in range(2500)]
        ps = [papp("*", "neg", {"neg.*0": pvar(f"s{i}", {})}) for i in range(2500)]
        return len(terms._table) - len(ts) - len(ps)

    gc.collect()
    before = len(terms._table)
    assert build_and_drop() >= before + 5000  # each term and shape has a leaf
    gc.collect()
    assert len(terms._table) == before


def _neg_only():
    """A computad over the one symbol ``neg``, whose chains are its terms."""
    group = group_signature()
    sig = build_signature(group.base, [("neg", "*", group.symbol("neg").arity, {})])
    return make_computad(sig, {"*": ("x",)}, {})


def test_enumerations_deeper_than_the_recursion_limit(default_recursion_limit):
    c = _neg_only()
    ts = enumerate_terms(c, "*", ENUM_DEPTH)
    assert len(ts) == ENUM_DEPTH + 1
    assert ts[-1] is neg_chain(ENUM_DEPTH)
    ps = enumerate_polyplexes(c.signature, "*", ENUM_DEPTH)
    assert len(ps) == ENUM_DEPTH + 1
    assert ps[-1] is classify(c, ts[-1])


def test_cli_prints_no_answer_deeper_than_a_document_may_be(tmp_path, capsys):
    # the chains up to neg^250(x) nest 1,002 levels deep as JSON, beyond what
    # the CLI reads, and their indented text would take some 250 MB
    path = tmp_path / "neg.json"
    path.write_text(json.dumps(computad_to_json(_neg_only())), encoding="utf-8")
    assert main(["enumerate", "--computad", str(path), "--sort", "*", "--depth", "250"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "DocumentTooDeep: the answer nests 1002 levels deep, beyond the limit of 1000\n"
    )
