"""Seeded generator of the JSON documents the benchmark feeds to the kernel.

Every function here returns plain JSON data (dicts, lists, strings), built
without the kernel except where a document is the output of one of the
kernel's example packs (`pack_signature`).  Randomness always comes from a
`random.Random` that the caller passes in, so a document is a pure function
of the generator's seed.

Most documents live over the arrow base (sorts `o` < `a`, faces `s`, `t`)
with one binary composition symbol `comp`: walks, random computads,
bracketed composite terms and morphisms between them.  Algebras are the path
category of a chain `c0 -> ... -> c{k-1}` (one arrow `a{i}_{j}` per i <= j)
and the cyclic groups Z/n on the discrete one-sorted group signature.
"""

from __future__ import annotations

import random

ARROW_CATEGORY = {
    "sorts": [{"id": "o", "dim": 0}, {"id": "a", "dim": 1}],
    "faces": [{"id": "s", "src": "o", "dst": "a"}, {"id": "t", "src": "o", "dst": "a"}],
    "compose": [],
}

COMP_SIGNATURE = {
    "category": ARROW_CATEGORY,
    "symbols": [
        {
            "id": "comp",
            "sort": "a",
            "arity": {
                "cells": {"o": ["x", "y", "z"], "a": ["f", "g"]},
                "action": [
                    {"face": "s", "from": "f", "to": "x"},
                    {"face": "t", "from": "f", "to": "y"},
                    {"face": "s", "from": "g", "to": "y"},
                    {"face": "t", "from": "g", "to": "z"},
                ],
            },
            "boundary": [
                {"face": "s", "term": {"var": "x"}},
                {"face": "t", "term": {"var": "z"}},
            ],
        }
    ],
}


def var(gen: str) -> dict:
    return {"var": gen}


def comp(f: dict, g: dict, x: str, y: str, z: str) -> dict:
    """The composite of ``f : x -> y`` and ``g : y -> z``."""
    args = {"f": f, "g": g, "x": var(x), "y": var(y), "z": var(z)}
    return {
        "app": {
            "symbol": "comp",
            "args": [{"cell": c, "term": args[c]} for c in sorted(args)],
        }
    }


# -- computads over the arrow base ------------------------------------------------

class Quiver:
    """A computad over the comp signature: objects, and arrows with endpoints."""

    def __init__(self, objects: list[str], arrows: dict[str, tuple[str, str]]):
        self.objects = objects
        self.arrows = arrows

    def doc(self, sort_names: bool = True) -> dict:
        """The computad document; generators are listed by name, or with
        ``sort_names=False`` in the order they were given."""
        order = sorted if sort_names else list
        gluing = []
        for a, (s, t) in self.arrows.items():
            gluing.append({"gen": a, "face": "s", "term": var(s)})
            gluing.append({"gen": a, "face": "t", "term": var(t)})
        gens = {"o": order(self.objects)}
        if self.arrows:
            gens["a"] = order(self.arrows)
        return {"signature": COMP_SIGNATURE, "generators": gens, "gluing": gluing}


def walk(n: int, rng: random.Random | None = None) -> tuple[Quiver, list[str], list[str]]:
    """A chain of ``n`` composable arrows.

    Without ``rng`` the names are ``o0..on`` and ``e0..e{n-1}``.  With it, the
    objects and arrows get shuffled names ``v<k>`` and ``w<k>``, so the sorted
    generator lists no longer follow the chain.  Returns the quiver with its
    objects and arrows in chain order.
    """
    if rng is None:
        objs = [f"o{i}" for i in range(n + 1)]
        arrs = [f"e{i}" for i in range(n)]
    else:
        perm_o = list(range(n + 1))
        perm_a = list(range(n))
        rng.shuffle(perm_o)
        rng.shuffle(perm_a)
        objs = [f"v{k}" for k in perm_o]
        arrs = [f"w{k}" for k in perm_a]
    arrows = {arrs[i]: (objs[i], objs[i + 1]) for i in range(n)}
    return Quiver(objs, arrows), objs, arrs


def broken_walk(n: int, rng: random.Random) -> Quiver:
    """A computad with the generator counts of a walk of ``n`` arrows that is
    not isomorphic to one: the last arrow is glued back onto the first object,
    closing a cycle."""
    q, objs, arrs = walk(n, rng)
    q.arrows[arrs[-1]] = (objs[-2], objs[0])
    return q


def random_quiver(rng: random.Random, n_obj: int, n_arr: int) -> Quiver:
    objs = [f"P{i}" for i in range(n_obj)]
    arrows = {f"U{i}": (rng.choice(objs), rng.choice(objs)) for i in range(n_arr)}
    return Quiver(objs, arrows)


def bracketing(objs: list[str], arrs: list[str], i: int, j: int, rng: random.Random) -> dict:
    """A random bracketing of the composite of ``arrs[i:j]`` along a chain
    whose ``k``-th arrow runs from ``objs[k]`` to ``objs[k + 1]``."""
    if j - i == 1:
        return var(arrs[i])
    k = rng.randrange(i + 1, j)
    return comp(
        bracketing(objs, arrs, i, k, rng),
        bracketing(objs, arrs, k, j, rng),
        objs[i],
        objs[k],
        objs[j],
    )


def walk_term(n: int, rng: random.Random) -> dict:
    """A term document: a shuffled walk with a random composite of a random
    sub-path."""
    q, objs, arrs = walk(n, rng)
    i = rng.randrange(n)
    j = rng.randrange(i + 1, n + 1)
    return {"computad": q.doc(), "term": bracketing(objs, arrs, i, j, rng)}


def path_morphism(rng: random.Random, target, n_src_obj: int, n_src_arr: int) -> dict:
    """A morphism from a random computad into the walk ``target`` (as
    returned by :func:`walk`).

    Each source object lands on a walk object; each source arrow runs between
    two objects whose images are strictly ordered along the walk and lands on
    a random bracketing of the path between them.
    """
    dst, objs, arrs = target
    index = {f"P{i}": rng.randrange(len(objs)) for i in range(n_src_obj)}
    names = sorted(index)
    arrows: dict[str, tuple[str, str]] = {}
    assign = [{"gen": p, "term": var(objs[index[p]])} for p in names]
    for k in range(n_src_arr):
        a, b = rng.sample(names, 2) if len(names) > 1 else (names[0], names[0])
        if index[a] == index[b]:
            continue
        if index[a] > index[b]:
            a, b = b, a
        name = f"U{k}"
        arrows[name] = (a, b)
        assign.append({"gen": name, "term": bracketing(objs, arrs, index[a], index[b], rng)})
    src = Quiver(names, arrows)
    return {"src": src.doc(), "dst": dst.doc(), "assign": assign}


def mono_and_map(rng: random.Random, target) -> tuple[dict, dict]:
    """A sub-walk inclusion ``rho`` into the walk ``target`` and a morphism
    ``sigma`` into the same walk, for lifting ``sigma`` through ``rho``."""
    dst, objs, arrs = target
    n = len(arrs)
    lo = rng.randrange(n)
    hi = rng.randrange(lo + 1, n + 1)
    sub = Quiver(objs[lo : hi + 1], {arrs[k]: (objs[k], objs[k + 1]) for k in range(lo, hi)})
    rho = {
        "src": sub.doc(),
        "dst": dst.doc(),
        "assign": [{"gen": g, "term": var(g)} for g in sub.objects + list(sub.arrows)],
    }
    i = rng.randrange(n)
    j = rng.randrange(i + 1, n + 1)
    src = Quiver(["P0", "P1"], {"U0": ("P0", "P1")})
    sigma = {
        "src": src.doc(),
        "dst": dst.doc(),
        "assign": [
            {"gen": "P0", "term": var(objs[i])},
            {"gen": "P1", "term": var(objs[j])},
            {"gen": "U0", "term": bracketing(objs, arrs, i, j, rng)},
        ],
    }
    return rho, sigma


def idempotent(rng: random.Random, n: int) -> dict:
    """A non-identity idempotent endomorphism: a walk of ``n`` arrows with one
    extra shortcut arrow, which is sent to a composite of the path it spans
    while every walk generator is fixed."""
    q, objs, arrs = walk(n, rng)
    i = rng.randrange(n - 1)
    j = rng.randrange(i + 2, n + 1)
    q.arrows["h"] = (objs[i], objs[j])
    assign = [{"gen": g, "term": var(g)} for g in objs + arrs]
    assign.append({"gen": "h", "term": bracketing(objs, arrs, i, j, rng)})
    doc = q.doc()
    return {"src": doc, "dst": doc, "assign": assign}


# -- algebras ---------------------------------------------------------------------

def chain_carrier(k: int) -> tuple[list[str], dict[tuple[int, int], str]]:
    objs = [f"c{i}" for i in range(k)]
    arrows = {(i, j): f"a{i}_{j}" for i in range(k) for j in range(i, k)}
    return objs, arrows


def chain_algebra(k: int) -> dict:
    """The path category of the chain c0 -> ... -> c{k-1}, as an algebra of
    the comp signature: one arrow per pair i <= j, composed by concatenation."""
    objs, arrows = chain_carrier(k)
    action = []
    for (i, j), name in sorted(arrows.items(), key=lambda kv: kv[1]):
        action.append({"face": "s", "from": name, "to": objs[i]})
        action.append({"face": "t", "from": name, "to": objs[j]})
    rows = []
    for (i, j), f in sorted(arrows.items()):
        for (j2, m), g in sorted(arrows.items()):
            if j2 != j:
                continue
            hom = {"x": objs[i], "y": objs[j], "z": objs[m], "f": f, "g": g}
            rows.append(
                {
                    "hom": [{"cell": c, "value": hom[c]} for c in sorted(hom)],
                    "value": arrows[(i, m)],
                }
            )
    return {
        "signature": COMP_SIGNATURE,
        "carrier": {
            "category": ARROW_CATEGORY,
            "cells": {"o": objs, "a": sorted(arrows.values())},
            "action": action,
        },
        "interpretations": [{"symbol": "comp", "rows": rows}],
    }


def chain_term(k: int, rng: random.Random, length: int) -> tuple[dict, str]:
    """A random composite of ``length`` composable carrier arrows of the
    chain algebra, with the value it must evaluate to."""
    objs, arrows = chain_carrier(k)
    stops = sorted(rng.randrange(k) for _ in range(length + 1))
    names = [arrows[(stops[p], stops[p + 1])] for p in range(length)]
    path_objs = [objs[s] for s in stops]
    return bracketing(path_objs, names, 0, length, rng), arrows[(stops[0], stops[-1])]


GROUP_CATEGORY = {"sorts": [{"id": "*", "dim": 0}], "faces": [], "compose": []}


def group_signature() -> dict:
    def symbol(name: str, n_args: int) -> dict:
        return {
            "id": name,
            "sort": "*",
            "arity": {"cells": {"*": [f"{name}.*{i}" for i in range(n_args)]}, "action": []},
            "boundary": [],
        }

    return {
        "category": GROUP_CATEGORY,
        "symbols": [symbol("neg", 1), symbol("plus", 2), symbol("zero", 0)],
    }


def cyclic_group(n: int) -> dict:
    """Z/n as an algebra of the group signature."""
    elems = [str(k) for k in range(n)]

    def row(assign: dict[str, int], value: int) -> dict:
        return {
            "hom": [{"cell": c, "value": str(assign[c])} for c in sorted(assign)],
            "value": str(value % n),
        }

    return {
        "signature": group_signature(),
        "carrier": {"category": GROUP_CATEGORY, "cells": {"*": elems}, "action": []},
        "interpretations": [
            {"symbol": "neg", "rows": [row({"neg.*0": a}, -a) for a in range(n)]},
            {
                "symbol": "plus",
                "rows": [
                    row({"plus.*0": a, "plus.*1": b}, a + b)
                    for a in range(n)
                    for b in range(n)
                ],
            },
            {"symbol": "zero", "rows": [row({}, 0)]},
        ],
    }


def identity_components(alg: dict) -> list[dict]:
    cells = [c for cs in alg["carrier"]["cells"].values() for c in cs]
    return [{"from": c, "to": c} for c in cells]


def discrete_computad(sig: dict, gens: dict[str, list[str]]) -> dict:
    """A computad with generators only at dimension-0 sorts."""
    return {"signature": sig, "generators": gens, "gluing": []}


def module_signature() -> dict:
    sorts = ["R", "V"]
    decls = [
        ("negR", "R", {"R": 1}),
        ("negV", "V", {"V": 1}),
        ("oneR", "R", {}),
        ("plusR", "R", {"R": 2}),
        ("plusV", "V", {"V": 2}),
        ("scale", "V", {"R": 1, "V": 1}),
        ("timesR", "R", {"R": 2}),
        ("zeroR", "R", {}),
        ("zeroV", "V", {}),
    ]
    symbols = []
    for name, out, counts in decls:
        cells = {s: [f"{name}.{s}{i}" for i in range(counts.get(s, 0))] for s in sorts}
        symbols.append(
            {"id": name, "sort": out, "arity": {"cells": cells, "action": []}, "boundary": []}
        )
    return {
        "category": {"sorts": [{"id": s, "dim": 0} for s in sorts], "faces": [], "compose": []},
        "symbols": symbols,
    }


# -- example-pack signatures ------------------------------------------------------

def pack_signature(which: str, arg=None) -> dict:
    """The signature document the kernel's example packs build, as
    ``computads example`` prints it."""
    from computads.signature import signature_to_json

    if which == "kan":
        from computads.packs import sigma_kan

        return signature_to_json(sigma_kan(arg))
    if which == "grid":
        from computads.cubical import cube_category, grid_composite

        cat = cube_category(max(len(arg) - 1, 0))
        sig, _ = grid_composite(cat, dict(enumerate(arg)))
        return signature_to_json(sig)
    if which == "cat":
        from computads.globular import globe_category, parse_tree, tree_composite, tree_dim

        tree = parse_tree(arg)
        sig, _ = tree_composite(globe_category(max(tree_dim(tree), 1)), tree)
        return signature_to_json(sig)
    raise ValueError(which)
