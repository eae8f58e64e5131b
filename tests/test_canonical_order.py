"""The canonical orders of terms and shapes, against from-scratch reference
spellings, and applications read back from JSON as the node built.

The enumerators order by integer keys, which are exact when no head of a
sort is a prefix of another; the cases below take that path, with names
full of brackets, and one owner whose generators clash falls back to
spelling."""

import pytest

from computads import terms
from computads.computad import make_computad
from computads.cubical import cube_category, grid_composite
from computads.globular import globe_category, tree_composite
from computads.monad import TERMS, enumerate_terms, head_order, term_presheaf
from computads.packs import group_signature, module_signature, sigma_kan
from computads.plex import SHAPES, PVar, enumerate_polyplexes
from computads.signature import build_signature, term_from_json, term_to_json
from computads.terms import App, Var, app, serialize, var

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


def _globe():
    """A loop of two arrows over the signature of the composite of two
    globular arrows, whose one symbol is ``coh[[],[]]``."""
    sig, _ = tree_composite(globe_category(2), [[], []])
    glue = {("f", "s0:1"): "x", ("f", "t0:1"): "y", ("g", "s0:1"): "y", ("g", "t0:1"): "x"}
    return make_computad(sig, {"g0": ("x", "y"), "g1": ("f", "g")}, _vars(glue))


def _cube():
    """The same loop over the signature of a cubical grid of two squares,
    whose symbol is ``coh(0:2)`` over sorts named like ``{0,1}``."""
    sig, _ = grid_composite(cube_category(1), {0: 2})
    s, t = "e[0:0]>{0}", "e[0:1]>{0}"
    glue = {("f", s): "x", ("f", t): "y", ("g", s): "y", ("g", t): "x"}
    return make_computad(sig, {"{}": ("x", "y"), "{0}": ("f", "g")}, _vars(glue))


def _vars(glue: dict) -> dict:
    return {key: var(gen) for key, gen in glue.items()}


def _clash():
    """Generators ``a`` and ``a)!``: ``v(a)`` is a prefix of ``v(a)!)``."""
    group = group_signature()
    sig = build_signature(group.base, [("neg", "*", group.symbol("neg").arity, {})])
    return make_computad(sig, {"*": ("a", "a)!")}, {})


TERM_CASES = {
    "walk": (lambda: walk_n(comp_signature(), 3), "a", 2),
    "globe": (_globe, "g1", 3),
    "cube": (_cube, "{0}", 3),
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
    assert head_order(c, TERMS) is not None
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
    "globe.g2.w2": (lambda: tree_composite(globe_category(2), [[], []])[0], "g2", 2),
    "cube.{0,1}.w2": (lambda: grid_composite(cube_category(1), {0: 2})[0], "{0,1}", 2),
}


@pytest.mark.parametrize("case", sorted(SHAPE_CASES))
def test_enumerated_shapes_follow_the_reference_order(case):
    make, sort, weight = SHAPE_CASES[case]
    sig = make()
    ps = enumerate_polyplexes(sig, sort, weight)
    assert head_order(sig, SHAPES) is not None
    assert _shares_subtrees(ps)
    assert ps == sorted(ps, key=plex_key)
    assert [serialize(p) for p in ps] == [spell_plex(p) for p in ps]


def test_a_head_that_prefixes_another_falls_back_to_spelling():
    c = _clash()
    assert head_order(c, TERMS) is None
    ts = enumerate_terms(c, "*", 1)
    assert ts == sorted(ts, key=term_key)
    # "!" sorts before "]", so a)! comes first one level up; keys alone,
    # with v(a) before v(a)!), would put it second
    assert [spell_term(t) for t in ts] == [
        "v(a)",
        "v(a)!)",
        "neg[neg.*0=v(a)!)]",
        "neg[neg.*0=v(a)]",
    ]


def _count_spelling(monkeypatch) -> list:
    """Count every call of ``terms.spellings`` and of a node's ``spell``."""
    calls = []

    def counted(fn):
        def wrapper(*args):
            calls.append(fn.__name__)
            return fn(*args)

        return wrapper

    monkeypatch.setattr(terms, "spellings", counted(terms.spellings))
    for cls in (terms.Node, Var, PVar):
        monkeypatch.setattr(cls, "spell", counted(cls.spell))
    return calls


def test_the_enumerators_spell_nothing_when_heads_are_prefix_free(monkeypatch):
    calls = _count_spelling(monkeypatch)
    for make, sort, depth in TERM_CASES.values():
        assert enumerate_terms(make(), sort, depth)
    for make, sort, weight in SHAPE_CASES.values():
        assert enumerate_polyplexes(make(), sort, weight)
    assert calls == []
    # the counter sees the spelling that the fallback does
    enumerate_terms(_clash(), "*", 1)
    assert "spellings" in calls


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
