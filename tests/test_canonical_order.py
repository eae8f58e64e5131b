"""The canonical orders of terms and shapes, against from-scratch reference
spellings, and applications read back from JSON as the node built."""

import pytest

from computads.computad import make_computad
from computads.monad import enumerate_terms, term_presheaf
from computads.packs import group_signature, module_signature, sigma_kan
from computads.plex import enumerate_polyplexes
from computads.signature import term_from_json, term_to_json
from computads.terms import App, app, serialize, var

from fixtures import comp_signature, walk_n
from oracles import plex_key, spell_plex, spell_term, term_key


def _nodes(tree):
    """Every node of a term or shape, with repetition."""
    stack = [tree]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(child for _, child in node.args)


def _shares_subtrees(trees) -> bool:
    nodes = [n for t in trees for n in _nodes(t)]
    return len({id(n) for n in nodes}) < len(nodes)


TERM_CASES = {
    "walk": (lambda: walk_n(comp_signature(), 3), "a", 2),
    "group": (lambda: make_computad(group_signature(), {"*": ("x", "y")}, {}), "*", 2),
    "module": (
        lambda: make_computad(module_signature(), {"R": ("r",), "V": ("u",)}, {}),
        "V",
        2,
    ),
}


@pytest.mark.parametrize("case", sorted(TERM_CASES))
def test_enumerated_terms_follow_the_reference_order(case):
    make, sort, depth = TERM_CASES[case]
    c = make()
    ts = enumerate_terms(c, sort, depth)
    assert _shares_subtrees(ts)
    assert ts == sorted(ts, key=term_key)
    assert [serialize(t) for t in ts] == [spell_term(t) for t in ts]
    view = term_presheaf(c, 1)
    for s in c.base.sorts:
        cells = view.presheaf.cells_at(s)
        ordered = [view.decode[n] for n in cells]
        assert list(cells) == [spell_term(t) for t in ordered]
        assert ordered == sorted(ordered, key=term_key)


SHAPE_CASES = {
    "comp.a.w3": (comp_signature, "a", 3),
    "kan2.[1].w2": (lambda: sigma_kan(2), "[1]", 2),
    "kan2.[2].w1": (lambda: sigma_kan(2), "[2]", 1),
}


@pytest.mark.parametrize("case", sorted(SHAPE_CASES))
def test_enumerated_shapes_follow_the_reference_order(case):
    make, sort, weight = SHAPE_CASES[case]
    ps = enumerate_polyplexes(make(), sort, weight)
    assert _shares_subtrees(ps)
    assert ps == sorted(ps, key=plex_key)
    assert [serialize(p) for p in ps] == [spell_plex(p) for p in ps]


def test_app_read_from_json_equals_and_hashes_as_built():
    ts = enumerate_terms(walk_n(comp_signature(), 3), "a", 2)
    for t in ts:
        read = term_from_json(term_to_json(t))
        rebuilt = _rebuild(t)
        assert read == t == rebuilt
        assert hash(read) == hash(t) == hash(rebuilt)
    assert any(isinstance(t, App) for t in ts)


def _rebuild(t):
    if isinstance(t, App):
        return app(t.symbol, {c: _rebuild(u) for c, u in t.args})
    return var(t.gen)
