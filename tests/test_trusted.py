"""Oracle for the constructions the kernel builds without checking.

Colimits, image factorisations, lifts through monos, counits, representing
computads, replayed filtrations and their attaching maps, underlying
computads, representable presheaves and their boundaries, term presheaves,
tabulated algebras, and the example packs (their categories, grid and tree
positions and inclusions, and the coherence symbols of grid and tree
composites) are well formed by construction, so the kernel builds them
unchecked.  This test re-runs the checked constructors on every category,
presheaf, computad, morphism and algebra they return, and rebuilds each
coherence symbol of a composite through the public checked constructor
from its lower signature and its sides.  The packs' whole signatures, the
Kan signature included, pass full validation in ``test_signature.py``.
"""

import itertools
import random

import pytest

from computads.algebra import (
    Algebra,
    algebra_from_interpretations,
    hom_key,
    morphism_from_generators,
    rows,
    tabulate,
)
from computads.base import DirectCategory, category_to_json, validate_category
from computads.cofibrant import (
    boundary_inclusion,
    replay_filtration,
    skeletal_filtration,
    underlying_computad,
)
from computads.computad import (
    Computad,
    coproduct,
    free_computad,
    enumerate_var_to_var,
    identity_morphism,
    make_computad,
    make_morphism,
    pushout,
    skeleton_counit,
    var_to_var_morphism,
)
from computads.cubical import (
    coherence_symbol_name,
    cube_category,
    cube_face_id,
    grid_coherence,
    grid_composite,
    grid_inclusion,
    grid_positions,
)
from computads.factorization import image_factorize, lift_through_mono
from computads.globular import (
    boundary_tree,
    globe_category,
    globe_coherence,
    globe_face,
    parse_tree,
    tree_boundary_inclusion,
    tree_composite,
    tree_dim,
    tree_presheaf,
    tree_symbol_name,
)
from computads.monad import counit, enumerate_terms, term_presheaf
from computads.packs import boundary_simplex, delta_plus, discrete_category, sigma_kan
from computads.plex import (
    classifying_morphism,
    enumerate_polyplexes,
    polyplex_computad,
    reconstruct_from_nerve,
)
from computads.presheaf import (
    Presheaf,
    PresheafMorphism,
    boundary_representable,
    check_morphism,
    make_presheaf,
    representable,
)
from computads.signature import Signature
from computads.terms import var

from fixtures import (
    comp_signature,
    comp_uv,
    kan_nerve,
    pathcat_algebra,
    random_computad_comp,
    random_morphism_comp,
    walk2,
    walk_n,
    z5_algebra,
)


def _computads(seed: int, count: int = 6):
    sig = comp_signature()
    rng = random.Random(seed)
    return [walk2(sig), walk_n(sig, 3)] + [
        random_computad_comp(sig, rng, tag=f"c{i}") for i in range(count)
    ]


def _random_morphisms(seed: int, count: int = 8):
    sig = comp_signature()
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        src = random_computad_comp(sig, rng, tag="a")
        dst = random_computad_comp(sig, rng, tag="b")
        m = random_morphism_comp(sig, src, dst, rng)
        if m is not None:
            out.append(m)
    return out


def _legs(nodes, colim):
    """Each leg of a colimit, a generator map, checked as a morphism."""
    legs = colim.legs.items()
    return [var_to_var_morphism(nodes[key], colim.computad, leg) for key, leg in legs]


def _colimits():
    sig = comp_signature()
    cs = _computads(1)
    out = []
    colims = [
        ({f"n{i}": c for i, c in enumerate(part)}, coproduct(part)) for part in (cs[:3], cs[3:])
    ]

    def span(left, right):
        return {"a": left.src, "b": left.dst, "c": right.dst}, pushout(left, right)

    rng = random.Random(2)
    for _ in range(6):
        a, b, d = (random_computad_comp(sig, rng, tag=t) for t in "abd")
        left, right = enumerate_var_to_var(a, b), enumerate_var_to_var(a, d)
        if left and right:
            colims.append(span(rng.choice(left), rng.choice(right)))
    for c in (walk2(sig), walk_n(sig, 2)):
        # quotients of c by its own endomorphisms
        for m in enumerate_var_to_var(c, c)[:4]:
            colims.append(span(m, identity_morphism(c)))
    for nodes, colim in colims:
        out.append(colim.computad)
        out += _legs(nodes, colim)
    return out


def _skeleton_counits():
    return [skeleton_counit(c, n) for c in _computads(3) for n in (0, 1)]


def _counits():
    sig = comp_signature()
    return [counit(walk2(sig), 1), counit(walk_n(sig, 3), 0)] + [
        counit(c, 1) for c in _computads(4, 3)
    ]


def _factorizations():
    out = []
    for sigma in _random_morphisms(5):
        pi, middle, iota = image_factorize(sigma)
        out += [pi, middle, iota]
    return out


def _lifts():
    out = []
    for sigma in _random_morphisms(6):
        _, _, iota = image_factorize(sigma)
        lift = lift_through_mono(iota, sigma)
        assert lift is not None
        out.append(lift)
    return out


def _representing_computads():
    out = []
    for sig, sorts in ((comp_signature(), ("o", "a")), (sigma_kan(2), ("[1]",))):
        for sort in sorts:
            for p in enumerate_polyplexes(sig, sort, 2):
                rep = polyplex_computad(sig, p)
                out += [rep.computad, classifying_morphism(rep.computad, rep.universal)]
                if rep.colimit is not None:
                    nodes = {cell: polyplex_computad(sig, q).computad for cell, q in p.args}
                    out += _legs(nodes, rep.colimit)
    return out


def _classifying_morphisms():
    out = []
    for c in _computads(7):
        terms = [var(g) for _, g in c.all_generators()] + enumerate_terms(c, "a", 1)
        out += [classifying_morphism(c, t) for t in terms]
        out.append(reconstruct_from_nerve(c))
    out.append(classifying_morphism(walk2(), comp_uv()))
    return out


def _filtrations():
    sig = comp_signature()
    out = [boundary_inclusion(sig, s) for s in sig.base.sorts]
    for c in _computads(8):
        filt = skeletal_filtration(c)
        out.append(replay_filtration(filt))
        out += filt.inclusions()
        out += [att.phi for stage in filt.stages for att in stage.attachments]
    return out


def _underlying():
    out = []
    cases = ((z5_algebra(), 2), (pathcat_algebra(), 2), (pathcat_algebra(), 1), (kan_nerve(2), 1))
    for alg, depth in cases:
        und = underlying_computad(alg, depth)
        morphism_from_generators(und.computad, alg, und.r_assign)
        out.append(und.computad)
    return out


def _representables():
    out = []
    for cat in (delta_plus(3), cube_category(2), globe_category(3)):
        for sort in cat.sorts:
            sphere, disk = boundary_representable(cat, sort), representable(cat, sort)
            faces = {c: c for cs in sphere.cells.values() for c in cs}
            out += [disk, sphere, PresheafMorphism(sphere, disk, faces)]
    return out


def _pack_inclusions():
    out = []
    cat = cube_category(2)
    grids = ({0: 2}, {0: 1, 1: 1}, {0: 3, 1: 2}, {0: 0, 1: 2}, {0: 1, 1: 2, 2: 1})
    for grid in grids:
        for size in range(len(grid) + 1):
            for forgotten in itertools.combinations(sorted(grid), size):
                for sides in itertools.product((0, 1), repeat=size):
                    out.append(grid_inclusion(cat, grid, dict(zip(forgotten, sides))))
    cat = globe_category(3)
    trees = ("[]", "[[]]", "[[],[]]", "[[[]],[]]", "[[[],[]],[[]]]", "[[[[]]],[[],[]]]")
    for text in trees:
        tree = parse_tree(text)
        for n in range(tree_dim(tree) + 1):
            for flavor in ("s", "t"):
                out.append(tree_boundary_inclusion(cat, tree, n, flavor))
    return out


def _grid_positions():
    cat = cube_category(3)
    grids = ({}, {0: 2}, {1: 0}, {0: 1, 1: 1}, {0: 3, 2: 2}, {0: 1, 1: 2, 2: 1})
    out = [grid_positions(cat, grid) for grid in grids]
    # one presheaf per category and grid, however the grid is written
    assert grid_positions(cat, {2: 2, 0: 3}) is out[4]
    assert grid_positions(cube_category(3), {0: 2}) is not out[1]
    return out


def _tree_positions():
    cat = globe_category(5)
    trees = ("[]", "[[]]", "[[],[],[]]", "[[[],[]],[[]]]", "[[[[[[]]]]]]", "[[[[]],[]],[[],[[]]],[]]")
    out = [tree_presheaf(cat, parse_tree(text)) for text in trees]
    # one presheaf per category and tree, however the tree is written
    assert tree_presheaf(cat, [[[], []], [[]]]) is out[3]
    assert tree_presheaf(globe_category(5), [[]]) is not out[1]
    return out


def _pack_categories():
    return (
        [discrete_category([]), discrete_category(["R", "V", "*"])]
        + [delta_plus(n) for n in range(5)]
        + [cube_category(n) for n in range(4)]
        + [globe_category(n) for n in range(11)]
    )


def _term_presheaves():
    sig = comp_signature()
    kan = sigma_kan(2)
    cases = [(walk2(sig), 2), (walk_n(sig, 3), 1)] + [(c, 1) for c in _computads(9, 3)]
    cases.append((free_computad(boundary_simplex(kan.base, 2), kan), 1))
    return [term_presheaf(c, depth).carrier for c, depth in cases]


def _tabulated():
    return [tabulate(alg) for alg in (pathcat_algebra(), z5_algebra())]


def _recheck(obj) -> None:
    if isinstance(obj, Algebra):
        _recheck(obj.carrier)
        tables = {s: {} for s in obj.signature.symbols}
        for symbol_id, env, value in rows(obj):
            tables[symbol_id][hom_key(env)] = value
        checked = algebra_from_interpretations(obj.signature, obj.carrier, tables)
        assert rows(checked) == rows(obj)
    elif isinstance(obj, DirectCategory):
        assert validate_category(category_to_json(obj)) == obj
    elif isinstance(obj, Presheaf):
        assert make_presheaf(obj.base, obj.cells, obj.action) == obj
    elif isinstance(obj, PresheafMorphism):
        _recheck(obj.src)
        _recheck(obj.dst)
        check_morphism(obj)
    elif isinstance(obj, Computad):
        assert make_computad(obj.signature, obj.gens, obj.glue) == obj
    else:
        _recheck(obj.src)
        _recheck(obj.dst)
        assert make_morphism(obj.src, obj.dst, obj.assign) == obj


@pytest.mark.parametrize(
    "construct",
    [
        _colimits,
        _skeleton_counits,
        _counits,
        _factorizations,
        _lifts,
        _representing_computads,
        _classifying_morphisms,
        _filtrations,
        _underlying,
        _representables,
        _pack_categories,
        _term_presheaves,
        _pack_inclusions,
        _grid_positions,
        _tree_positions,
        _tabulated,
    ],
    ids=lambda f: f.__name__.lstrip("_"),
)
def test_unchecked_constructions_pass_the_checked_constructors(construct):
    results = construct()
    assert results
    for obj in results:
        _recheck(obj)


def _lower(sig: Signature, sort: str) -> Signature:
    """The symbols of ``sig`` below the dimension of ``sort``."""
    d = sig.base.dim(sort)
    below = {k: v for k, v in sig.symbols.items() if sig.base.dim(v.sort) < d}
    return Signature(base=sig.base, symbols=below)


def _random_tree(rng: random.Random, depth: int):
    return [_random_tree(rng, depth - 1) for _ in range(rng.randint(0, 3) if depth else 0)]


TREES = ["[[],[]]", "[[[]],[]]", "[" * 6 + "]" * 6]


@pytest.mark.parametrize("tree", TREES + [f"seed{i}" for i in range(5)])
def test_tree_composite_symbols_pass_the_checked_coherence(tree):
    rng = random.Random(tree)
    tree = parse_tree(tree) if tree in TREES else [_random_tree(rng, 3) for _ in "ab"]
    cat = globe_category(max(tree_dim(tree), 1))
    sig, _ = tree_composite(cat, tree)
    names = []
    for h in range(1, tree_dim(tree) + 1):
        cut = boundary_tree(tree, h)
        sym = sig.symbol(tree_symbol_name(cut))
        source, target = (sym.boundary[globe_face(f, h - 1, h)] for f in "st")
        rebuilt = globe_coherence(_lower(sig, sym.sort), cut, h, source, target)
        assert rebuilt.symbols[sym.id] == sym
        names.append(sym.id)
    assert sorted(names) == sorted(sig.symbols)


@pytest.mark.parametrize("grid", [{0: 2}, {0: 2, 1: 1}, {0: 1, 1: 1, 2: 1}, {0: 2, 1: 2, 2: 1}])
def test_grid_composite_symbols_pass_the_checked_coherence(grid):
    sig, _ = grid_composite(cube_category(len(grid) - 1), grid)
    names = []
    for size in range(1, len(grid) + 1):
        for kept in itertools.combinations(sorted(grid), size):
            sub = {i: grid[i] for i in kept}
            sym = sig.symbol(coherence_symbol_name(sub))
            sides = {(i, a): sym.boundary[cube_face_id(kept, {i: a})] for i in kept for a in (0, 1)}
            rebuilt = grid_coherence(_lower(sig, sym.sort), sub, sides)
            assert rebuilt.symbols[sym.id] == sym
            names.append(sym.id)
    assert sorted(names) == sorted(sig.symbols)
