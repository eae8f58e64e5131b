"""Shared desk-scale fixtures: the arrow base, the composition signature,
walking computads, and small algebras."""

from __future__ import annotations

import functools
import random

from computads.base import DirectCategory, validate_category
from computads.computad import Computad, make_computad
from computads.presheaf import Presheaf, make_presheaf
from computads.signature import Signature, build_signature
from computads.terms import Term, app, rename, var


def arrow_category() -> DirectCategory:
    """Sorts o (dim 0) and a (dim 1) with faces s, t : o -> a."""
    return validate_category(
        {
            "sorts": [{"id": "o", "dim": 0}, {"id": "a", "dim": 1}],
            "faces": [
                {"id": "s", "src": "o", "dst": "a"},
                {"id": "t", "src": "o", "dst": "a"},
            ],
            "compose": [],
        }
    )


def arrow_arity(cat: DirectCategory | None = None) -> Presheaf:
    """The walking composable pair: cells x, y, z at o and f, g at a."""
    cat = cat or arrow_category()
    return make_presheaf(
        cat,
        {"o": ("x", "y", "z"), "a": ("f", "g")},
        {
            ("s", "f"): "x",
            ("t", "f"): "y",
            ("s", "g"): "y",
            ("t", "g"): "z",
        },
    )


def comp_signature() -> Signature:
    """One binary composition symbol over the arrow base."""
    cat = arrow_category()
    arity = arrow_arity(cat)
    return build_signature(
        cat,
        [("comp", "a", arity, {"s": var("x"), "t": var("z")})],
    )


def walk2(sig: Signature | None = None) -> Computad:
    """Two composable generator arrows u : p -> q and v : q -> r."""
    sig = sig or comp_signature()
    return make_computad(
        sig,
        {"o": ("p", "q", "r"), "a": ("u", "v")},
        {
            ("u", "s"): var("p"),
            ("u", "t"): var("q"),
            ("v", "s"): var("q"),
            ("v", "t"): var("r"),
        },
    )


def comp_uv() -> Term:
    return app(
        "comp",
        {"x": var("p"), "y": var("q"), "z": var("r"), "f": var("u"), "g": var("v")},
    )


def globe2_glue() -> dict:
    """Gluings of two parallel arrows f, g : x -> y and a 2-cell al : f => g
    over the 2-globes."""
    glue = {("f", "s0:1"): var("x"), ("f", "t0:1"): var("y")}
    glue.update({("g", "s0:1"): var("x"), ("g", "t0:1"): var("y")})
    glue.update({("al", "s1:2"): var("f"), ("al", "t1:2"): var("g")})
    glue.update({("al", "s0:2"): var("x"), ("al", "t0:2"): var("y")})
    return glue


def globe2(glue: dict | None = None) -> Computad:
    """The computad of ``globe2_glue`` (or of ``glue``) over the 2-globes,
    with no function symbols."""
    from computads.globular import globe_category

    sig = Signature(base=globe_category(2), symbols={})
    gens = {"g0": ("x", "y"), "g1": ("f", "g"), "g2": ("al",)}
    return make_computad(sig, gens, glue or globe2_glue())


def walk_n(sig: Signature, n: int) -> Computad:
    """A chain of n composable generator arrows over the comp signature."""
    gens_o = tuple(f"o{i}" for i in range(n + 1))
    gens_a = tuple(f"e{i}" for i in range(n))
    glue = {}
    for i in range(n):
        glue[(f"e{i}", "s")] = var(f"o{i}")
        glue[(f"e{i}", "t")] = var(f"o{i+1}")
    return make_computad(sig, {"o": gens_o, "a": gens_a}, glue)


def relabelling(c: Computad, rng: random.Random) -> tuple[Computad, dict[str, str]]:
    """A copy of ``c`` with fresh generator names, listed in shuffled order,
    and the renaming from ``c`` to it."""
    gens = [g for _, g in c.all_generators()]
    names = dict(zip(gens, rng.sample([f"R{i}" for i in range(len(gens))], len(gens))))
    new_gens = {
        s: tuple(rng.sample([names[g] for g in gs], len(gs))) for s, gs in c.gens.items()
    }
    glue = {(names[g], f): rename(t, names) for (g, f), t in c.glue.items()}
    return make_computad(c.signature, new_gens, glue), names


def relabelled(c: Computad, rng: random.Random) -> Computad:
    """A copy of ``c`` with fresh generator names, listed in shuffled order."""
    return relabelling(c, rng)[0]


# -- algebras -------------------------------------------------------------------

PATH_ENDPOINTS = {
    "iA": ("A", "A"),
    "iB": ("B", "B"),
    "iC": ("C", "C"),
    "e1": ("A", "B"),
    "e2": ("B", "C"),
    "e12": ("A", "C"),
}


def pathcat_carrier(cat: DirectCategory | None = None) -> Presheaf:
    """Paths of length <= 2 in the quiver A -> B -> C, as an arrow presheaf."""
    cat = cat or arrow_category()
    action = {}
    for p, (src, dst) in PATH_ENDPOINTS.items():
        action[("s", p)] = src
        action[("t", p)] = dst
    return make_presheaf(
        cat,
        {"o": ("A", "B", "C"), "a": tuple(sorted(PATH_ENDPOINTS))},
        action,
    )


def concat_paths(p1: str, p2: str) -> str:
    a, b = PATH_ENDPOINTS[p1], PATH_ENDPOINTS[p2]
    assert a[1] == b[0]
    if p1.startswith("i"):
        return p2
    if p2.startswith("i"):
        return p1
    assert (p1, p2) == ("e1", "e2")
    return "e12"


def pathcat_algebra():
    from computads.algebra import algebra_from_callbacks

    sig = comp_signature()
    carrier = pathcat_carrier(sig.base)

    def comp_interp(env: dict[str, str]) -> str:
        return concat_paths(env["f"], env["g"])

    return algebra_from_callbacks(sig, carrier, {"comp": comp_interp})


# -- discrete group signature and Z5 ---------------------------------------------

def group_base() -> DirectCategory:
    return validate_category({"sorts": [{"id": "*", "dim": 0}], "faces": [], "compose": []})


def group_signature_fixture() -> Signature:
    from computads.packs import group_signature

    return group_signature()


def zn_algebra(n: int):
    """Z/n as an algebra of the group signature."""
    from computads.algebra import algebra_from_callbacks
    from computads.packs import group_signature

    sig = group_signature()
    carrier = make_presheaf(sig.base, {"*": tuple(str(k) for k in range(n))}, {})

    def plus(env):
        return str((int(env["plus.*0"]) + int(env["plus.*1"])) % n)

    def zero(env):
        return "0"

    def neg(env):
        return str((-int(env["neg.*0"])) % n)

    return algebra_from_callbacks(sig, carrier, {"plus": plus, "zero": zero, "neg": neg})


def z5_algebra():
    return zn_algebra(5)


def zero_algebra(n: int = 5):
    """The cells of Z/n as an algebra of the one-sort signature whose only
    symbol is the constant ``zero``: the category of ``zn_algebra``, and
    another signature."""
    from computads.algebra import algebra_from_callbacks
    from computads.packs import discrete_signature

    sig = discrete_signature(["*"], [("zero", "*", {})])
    carrier = make_presheaf(sig.base, {"*": tuple(str(k) for k in range(n))}, {})
    return algebra_from_callbacks(sig, carrier, {"zero": lambda env: "0"})


def chain_algebra(k: int):
    """The path category of the chain c0 -> ... -> c{k-1}, as an algebra of
    the comp signature: one arrow ``c{i}c{j}`` per pair i <= j, composed by
    concatenation."""
    from computads.algebra import algebra_from_callbacks

    sig = comp_signature()
    objs = [f"c{i}" for i in range(k)]
    arrows = {objs[i] + objs[j]: (objs[i], objs[j]) for i in range(k) for j in range(i, k)}
    action = {(face, a): end for a, ends in arrows.items() for face, end in zip("st", ends)}
    carrier = make_presheaf(sig.base, {"o": tuple(objs), "a": tuple(sorted(arrows))}, action)

    def comp(env):
        return env["x"] + env["z"]

    return algebra_from_callbacks(sig, carrier, {"comp": comp})


def kan_nerve(n: int):
    """The nerve of Z/n truncated at [2], as an algebra of ``sigma_kan(2)``:
    one vertex ``*``, an edge ``e<a>`` per element and a triangle
    ``t<a>,<b>`` per pair, with faces d01 -> e<a>, d12 -> e<b> and
    d02 -> e<a+b>.  A 2-dimensional horn is filled by its one triangle, and
    a 1-dimensional one by ``e0``."""
    from computads.algebra import algebra_from_callbacks
    from computads.packs import delta_face, face_symbol, filler_symbol, sigma_kan

    sig = sigma_kan(2)
    edges = {f"e{a}": a for a in range(n)}
    triangles = {f"t{a},{b}": (a, b) for a in range(n) for b in range(n)}
    sides = ("d01:1>2", "d12:1>2", "d02:1>2")
    action = {}
    for cell in (*edges, *triangles):
        for face in sig.base.faces_into("[1]" if cell in edges else "[2]"):
            action[(face, cell)] = "*"
    for cell, (a, b) in triangles.items():
        for face, k in zip(sides, (a, b, (a + b) % n)):
            action[(face, cell)] = f"e{k}"
    cells = {"[0]": ("*",), "[1]": tuple(edges), "[2]": tuple(triangles)}
    carrier = make_presheaf(sig.base, cells, action)

    def fill(env: dict[str, str]) -> str:
        """The triangle on a horn: two of its sides give the third."""
        a, b, c = (edges.get(env.get(face)) for face in sides)
        if a is None:
            a = (c - b) % n
        if b is None:
            b = (c - a) % n
        return f"t{a},{b}"

    def face_2(k: int, env: dict[str, str]) -> str:
        return action[(delta_face(2, k), fill(env))]

    callbacks = {}
    for k in range(2):
        callbacks[face_symbol(k, 1)] = lambda env: "*"
        callbacks[filler_symbol(k, 1)] = lambda env: "e0"
    for k in range(3):
        callbacks[face_symbol(k, 2)] = functools.partial(face_2, k)
        callbacks[filler_symbol(k, 2)] = fill
    return algebra_from_callbacks(sig, carrier, callbacks)


# -- random generators ------------------------------------------------------------

def random_presheaf(
    cat: DirectCategory, rng: random.Random, max_cells: int = 3, tag: str = "c"
) -> Presheaf:
    """Random finite presheaf; supports composite-free bases only, where the
    face values of a cell can be drawn independently."""
    assert not cat.table, "random_presheaf needs a composite-free base"
    cells: dict[str, tuple[str, ...]] = {}
    action: dict[tuple[str, str], str] = {}
    counter = 0
    for sort in cat.sorts:
        n = rng.randrange(max_cells + 1)
        if any(not cells.get(cat.face(f).src) for f in cat.faces_into(sort)):
            n = 0
        names = tuple(f"{tag}{counter + i}" for i in range(n))
        counter += n
        cells[sort] = names
        for cell in names:
            for face in cat.faces_into(sort):
                action[(face, cell)] = rng.choice(cells[cat.face(face).src])
    return make_presheaf(cat, cells, action)


def random_computad_comp(
    sig: Signature, rng: random.Random, max_obj: int = 4, max_arr: int = 3, tag: str = ""
) -> Computad:
    """A random computad over the comp signature: generator objects plus
    generator arrows glued to random endpoint objects."""
    n_obj = rng.randint(1, max_obj)
    n_arr = rng.randrange(max_arr + 1)
    gens_o = tuple(f"{tag}P{i}" for i in range(n_obj))
    gens_a = tuple(f"{tag}U{i}" for i in range(n_arr))
    glue = {}
    for g in gens_a:
        glue[(g, "s")] = var(rng.choice(gens_o))
        glue[(g, "t")] = var(rng.choice(gens_o))
    return make_computad(sig, {"o": gens_o, "a": gens_a}, glue)


def random_computad(
    sig: Signature, rng: random.Random, max_gens: int = 2, depth: int = 1
) -> Computad:
    """A random computad over ``sig``: per sort, in increasing dimension, up to
    ``max_gens`` generators, each glued along a family drawn from the
    cocycle-satisfying families of terms of depth at most ``depth`` over the
    generators of lower dimension.  The families are the maps from the
    boundary of the representable into those terms, found by ``homs`` (the
    enumerator's own family search) and listed in product order, one term per
    face, as ``oracles.product_random_computad`` lists them by brute force."""
    from functools import partial

    from computads.monad import enumerate_terms
    from computads.presheaf import action_spine, boundary_representable, homs
    from computads.terms import boundary

    cat = sig.base
    gens: dict[str, tuple[str, ...]] = {}
    glue: dict = {}
    for sort in cat.sorts:
        lower = Computad(sig, gens, glue)
        faces = cat.faces_into(sort)
        terms = {cat.face(f).src: enumerate_terms(lower, cat.face(f).src, depth) for f in faces}
        order = {s: {t: i for i, t in enumerate(ts)} for s, ts in terms.items()}
        spine = action_spine(partial(boundary, lower))
        cells, found = homs(boundary_representable(cat, sort), terms.__getitem__, spine)
        families = sorted(
            (dict(zip(cells, family)) for family in found),
            key=lambda fam: [order[cat.face(f).src][fam[f]] for f in faces],
        )
        names = []
        for _ in range(rng.randint(0, max_gens) if families else 0):
            name = f"G{sum(map(len, gens.values())) + len(names)}"
            names.append(name)
            glue.update({(name, f): t for f, t in rng.choice(families).items()})
        gens[sort] = tuple(names)
    return make_computad(sig, gens, glue)


def random_families() -> list[Computad]:
    """Seeded random computads over comp, sigma_kan(1), sigma_kan(2), the
    globe-2 tree composite and a grid composite over the 1-cube.  There are
    two draws over sigma_kan(2), whose seed reaches a 2-simplex."""
    from computads.cubical import cube_category, grid_composite
    from computads.globular import globe_category, tree_composite
    from computads.packs import sigma_kan

    rng = random.Random(41)
    cs = [random_computad_comp(comp_signature(), rng) for _ in range(8)]
    draws = [
        (sigma_kan(1), 3, 6, 1),
        (sigma_kan(2), 2, 2, 0),
        (tree_composite(globe_category(2), [[], []])[0], 3, 6, 6),
        (grid_composite(cube_category(1), {0: 2})[0], 3, 6, 3),
    ]
    for sig, max_gens, count, seed in draws:
        rng = random.Random(seed)
        cs += [random_computad(sig, rng, max_gens) for _ in range(count)]
    return cs


def law_families() -> list[Computad]:
    """``random_families`` and relabelled walks of 1 to 11 arrows, the
    computads the kernel's laws run over."""
    sig = comp_signature()
    walks = [relabelled(walk_n(sig, n), random.Random(n)) for n in range(1, 12)]
    return random_families() + walks


def classifying_morphisms(c: Computad, sort: str, count: int = 4) -> list:
    """The classifying morphisms, out of the representable computad on
    ``sort``, of the first ``count`` terms of ``sort`` of depth at most 1."""
    from computads.cofibrant import classify_term
    from computads.monad import enumerate_terms

    return [classify_term(c, t, sort) for t in enumerate_terms(c, sort, 1)[:count]]


def random_morphism_comp(sig, src, dst, rng: random.Random, depth: int = 2):
    """A random morphism between comp computads, or None when the random
    endpoint choices leave an arrow with no candidate image."""
    from computads.computad import make_morphism
    from computads.monad import enumerate_terms
    from computads.terms import boundary

    if not dst.generators_at("o"):
        return None
    assign = {}
    for g in src.generators_at("o"):
        assign[g] = var(rng.choice(dst.generators_at("o")))
    for g in src.generators_at("a"):
        want = (assign[src.gluing(g, "s").gen], assign[src.gluing(g, "t").gen])
        candidates = [
            t
            for t in enumerate_terms(dst, "a", depth)
            if (boundary(dst, "s", t), boundary(dst, "t", t)) == want
        ]
        if not candidates:
            return None
        assign[g] = rng.choice(candidates)
    return make_morphism(src, dst, assign)


# -- documents over nearly equal bases ----------------------------------------------

def _fork_signature_doc(target: str) -> dict:
    """The empty signature over sorts o, a, b and one face f : o -> ``target``."""
    sorts = [{"id": "o", "dim": 0}, {"id": "a", "dim": 1}, {"id": "b", "dim": 1}]
    faces = [{"id": "f", "src": "o", "dst": target}]
    return {"category": {"sorts": sorts, "faces": faces, "compose": []}, "symbols": []}


def _fork_cell(target: str) -> str:
    return {"a": "x", "b": "y"}[target]


def fork_algebra_doc(target: str) -> dict:
    """An algebra document for the empty signature of ``_fork_signature_doc``,
    with carrier cells p at o, x at a and y at b; the face f acts on the cell
    at ``target``.  The two choices of ``target`` give the same sorts and
    face ids, and different categories."""
    sig = _fork_signature_doc(target)
    cells = {"o": ["p"], "a": ["x"], "b": ["y"]}
    action = [{"face": "f", "from": _fork_cell(target), "to": "p"}]
    carrier = {"category": sig["category"], "cells": cells, "action": action}
    return {"signature": sig, "carrier": carrier, "interpretations": []}


def fork_computad_doc(target: str) -> dict:
    """A computad document over the signature of ``fork_algebra_doc``, with
    generators named as that algebra's cells."""
    gluing = [{"gen": _fork_cell(target), "face": "f", "term": {"var": "p"}}]
    generators = {"o": ["p"], "a": ["x"], "b": ["y"]}
    return {"signature": _fork_signature_doc(target), "generators": generators, "gluing": gluing}


def pointed_algebra_doc(constant: bool) -> dict:
    """An algebra document on one cell p for the one-sort signature with a
    constant ``e``, or for the empty signature over the same sort."""
    point = {"sorts": [{"id": "o", "dim": 0}], "faces": [], "compose": []}
    e = {"id": "e", "sort": "o", "arity": {"cells": {}, "action": []}, "boundary": []}
    rows = [{"symbol": "e", "rows": [{"hom": [], "value": "p"}]}]
    return {
        "signature": {"category": point, "symbols": [e] if constant else []},
        "carrier": {"category": point, "cells": {"o": ["p"]}, "action": []},
        "interpretations": rows if constant else [],
    }
