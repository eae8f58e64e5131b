"""Independent brute-force enumeration of terms by the two increasing
families of sets: terms stratified by boundary type, and argument tuples of
bounded recursion rank, iterated jointly to a fixed point.

This is deliberately a separate implementation from the library's
enumerator: it builds depth-indexed tables keyed by boundary profiles and
grows them rank by rank, rather than recursing per call.

Also here: from-scratch spellings of terms and shapes, the classifying
morphism of a term read off the colimit presentation of its shape, the
nerve's realisation with its plex maps found by search, the filtration's
stage pushouts compared by isomorphism search, the underlying computad of
an algebra found by scanning every carrier cell against every boundary
type, random computads glued along families found by brute force, and the
positions of a pasting tree, their faces and the boundary inclusions of its
cuts found by recursion through the tree.
"""

from __future__ import annotations

import functools
import itertools
import random

from computads.algebra import eval_in_env
from computads.cofibrant import (
    SkeletalStage,
    UndResult,
    _und_gen_name,
    boundary_inclusion,
    disk_computad,
)
from computads.computad import (
    Computad,
    ComputadMorphism,
    apply_morphism,
    colimit_var,
    enumerate_var_to_var,
    isomorphic,
    make_computad,
)
from computads.errors import BadIndex
from computads.globular import (
    Tree,
    boundary_tree,
    globe_face,
    globe_sort,
    position_name,
)
from computads.monad import enumerate_terms, terms_saturated
from computads.plex import (
    PVar,
    Polyplex,
    classify,
    classifying_morphism,
    nerve,
    polyplex_computad,
)
from computads.presheaf import (
    Presheaf,
    PresheafMorphism,
    action_spine,
    boundary_representable,
    homs,
    make_presheaf,
)
from computads.signature import Signature
from computads.terms import Term, Var, app, boundary, canonical_sort, parts, var


def spell_term(t: Term) -> str:
    """From-scratch recursive spelling of a term: the reference for
    ``terms.serialize`` and, with the depth, for the canonical term order."""
    if isinstance(t, Var):
        return "v(" + t.gen + ")"
    return t.symbol + "[" + ",".join(c + "=" + spell_term(u) for c, u in t.args) + "]"


def term_key(t: Term) -> tuple:
    return (t.depth, spell_term(t))


def spell_plex(p: Polyplex) -> str:
    """From-scratch recursive spelling of a shape: the reference for
    ``terms.serialize``."""
    if isinstance(p, PVar):
        inner = ",".join(f + ":" + spell_plex(q) for f, q in p.btype)
        return "<" + p.sort + "|" + inner + ">"
    return p.symbol + "[" + ",".join(c + "=" + spell_plex(q) for c, q in p.args) + "]"


def plex_key(p: Polyplex) -> tuple:
    return (p.weight, spell_plex(p))


def _profile(c: Computad, t: Term, sort: str) -> tuple:
    return tuple(boundary(c, f, t) for f in c.base.faces_into(sort))


def fixpoint_tables(c: Computad, max_depth: int):
    """tables[(sort, depth)] maps a boundary profile to the sorted tuple of
    terms of that sort with that profile and depth at most ``depth``."""
    cat = c.base
    tables: dict[tuple[str, int], dict[tuple, list[Term]]] = {}
    dims = sorted({cat.dim(s) for s in cat.sorts})
    for d in dims:
        level_sorts = [s for s in cat.sorts if cat.dim(s) == d]
        # rank 0: generators only, keyed by their gluing profile
        for sort in level_sorts:
            table: dict[tuple, list[Term]] = {}
            for g in c.generators_at(sort):
                table.setdefault(_profile(c, var(g), sort), []).append(var(g))
            tables[(sort, 0)] = table
        # rank gamma: generators plus applications with rank gamma - 1 tuples
        for gamma in range(1, max_depth + 1):
            for sort in level_sorts:
                table = {
                    prof: list(ts) for prof, ts in tables[(sort, 0)].items()
                }
                for sym in c.signature.symbols_at(sort):
                    for args in _argument_tuples(c, tables, sym.arity, gamma - 1):
                        t = app(sym.id, args)
                        table.setdefault(_profile(c, t, sort), []).append(t)
                tables[(sort, gamma)] = {
                    prof: sorted(set(ts), key=term_key)
                    for prof, ts in table.items()
                }
        # ranks above were only built up to max_depth; lower-dimensional
        # tables are complete before any higher dimension starts
    return tables


def _argument_tuples(c, tables, arity, rank):
    """All compatible assignments of table entries to the arity cells, with
    each member of bounded rank; profiles of higher cells are forced by the
    assignment below them."""
    cells = [
        (s, cell)
        for s in arity.base.sorts
        for cell in arity.cells_at(s)
    ]
    partial = [{}]
    for sort, cell in cells:
        faces = arity.base.faces_into(sort)
        table = tables.get((sort, rank), {})
        grown = []
        for fam in partial:
            required = tuple(fam[arity.act(f, cell)] for f in faces)
            for t in table.get(required, ()):
                ext = dict(fam)
                ext[cell] = t
                grown.append(ext)
        partial = grown
        if not partial:
            break
    return partial


def fixpoint_terms(c: Computad, sort: str, max_depth: int) -> list[Term]:
    """All terms of the sort with depth at most ``max_depth``, via the
    fixed-point tables."""
    tables = fixpoint_tables(c, max_depth)
    out: list[Term] = []
    for terms in tables[(sort, max_depth)].values():
        out.extend(terms)
    return sorted(set(out), key=term_key)


def mediated_classifying_morphism(c: Computad, t: Term) -> ComputadMorphism:
    """The classifying morphism |classify(t)| -> c by the universal property
    of the colimit that builds |p|: the classifying morphisms of the parts
    of ``t`` form a cocone, whose mediating map is the morphism, with the
    fresh generator of a generator shape sent to ``t``.  The reference for
    ``plex.classifying_morphism``."""
    rep = polyplex_computad(c.signature, classify(c, t))
    assign: dict[str, Term] = {}
    if rep.colimit is not None:
        legs = {cell: mediated_classifying_morphism(c, u) for cell, u in parts(c, t)}
        assign = rep.colimit.mediate(legs).assign
    if isinstance(rep.universal, Var):
        assign[rep.universal.gen] = t
    return ComputadMorphism(rep.computad, c, assign)


def searched_reconstruction(c: Computad) -> Computad:
    """The nerve's realisation with every plex map |q| -> |p| between its
    shapes found by ``enumerate_var_to_var`` and applied to the universal
    term, per ordered pair of shapes.  The reference for
    ``plex.reconstruct_from_nerve``."""
    sig = c.signature
    fibres = nerve(c)
    shapes = canonical_sort(fibres)[0]
    nodes: dict[str, Computad] = {
        gen: polyplex_computad(sig, p).computad for p, gens in fibres.items() for gen in gens
    }
    edges: list[tuple[str, str, dict[str, str]]] = []
    for p, gens in fibres.items():
        rep_p = polyplex_computad(sig, p)
        # each plex morphism m into p with the image of its source's universal
        # term, found once per pair of shapes: neither depends on the generator
        maps = []
        for q in shapes:
            rep_q = polyplex_computad(sig, q)
            for m in enumerate_var_to_var(rep_q.computad, rep_p.computad):
                maps.append((m, apply_morphism(m, rep_q.universal)))
        for gen in gens:
            sigma = classifying_morphism(c, var(gen))
            for m, moved in maps:
                # the restriction action of the nerve along the plex morphism
                # m: sigma . m classifies a generator, its universal image
                restricted = apply_morphism(sigma, moved)
                assert isinstance(restricted, Var)
                edges.append((restricted.gen, gen, m.gen_map()))
    if not nodes:
        return Computad(sig, {}, {})
    return colimit_var(nodes, edges).computad


def searched_stage_pushout(
    stage: SkeletalStage, next_computad: Computad
) -> bool | None:
    """Check the attaching square against an actual computad pushout.

    The next stage is the pushout of the stage along the coproduct of the
    boundary inclusions of its attachments, which is one colimit: the stage,
    and per attachment a sphere node with two legs, ``phi`` into the stage
    and the boundary inclusion into a disk node.  Only applies when every
    attaching morphism is variable-to-variable (the computad colimit
    machinery requires generator-preserving legs); returns None otherwise.
    The colimit is compared with ``next_computad`` by an isomorphism search,
    so any pushout, under any names, reads True.  The reference for
    ``cofibrant.verify_stage_pushout``.
    """
    if not all(att.phi.is_var_to_var() for att in stage.attachments):
        return None
    sig = stage.computad.signature
    nodes = {"stage": stage.computad}
    edges: list[tuple[str, str, dict[str, str]]] = []
    for att in stage.attachments:
        sphere, disk = f"sphere:{att.gen}", f"disk:{att.gen}"
        nodes[sphere] = att.phi.src
        nodes[disk] = disk_computad(sig, att.sort)
        edges.append((sphere, "stage", att.phi.gen_map()))
        edges.append((sphere, disk, boundary_inclusion(sig, att.sort).gen_map()))
    return isomorphic(colimit_var(nodes, edges).computad, next_computad)


def scanned_underlying_computad(alg, depth_bound: int) -> UndResult:
    """The underlying computad with every carrier cell of a sort scanned
    against every boundary type, each face term evaluated afresh per cell.
    The reference for ``cofibrant.underlying_computad``."""
    sig = alg.signature
    cat = sig.base
    gens: dict[str, tuple[str, ...]] = {s: () for s in cat.sorts}
    glue: dict = {}
    r_assign: dict[str, str] = {}
    relevant: set[str] = set()
    for sort in cat.sorts:
        if alg.cells_at(sort):
            relevant |= {cat.face(f).src for f in cat.faces_into(sort)}
    for _, layer in itertools.groupby(cat.sorts, cat.dim):
        lower = Computad(sig, gens, glue)
        evaluate = functools.partial(eval_in_env, alg, env=r_assign)
        for sort in layer:
            sphere = boundary_representable(cat, sort)
            spine = action_spine(functools.partial(boundary, lower))
            families = homs(sphere, lambda s: enumerate_terms(lower, s, depth_bound), spine)
            names = []
            for family in families:
                for cell in alg.cells_at(sort):
                    if all(
                        evaluate(family[face]) == alg.act(face, cell)
                        for face in cat.faces_into(sort)
                    ):
                        name = _und_gen_name(family, cell)
                        names.append(name)
                        r_assign[name] = cell
                        for face, t in family.items():
                            glue[(name, face)] = t
            gens[sort] = tuple(sorted(names))
    computad = Computad(sig, gens, glue)
    exact = all(terms_saturated(computad, s, depth_bound) for s in sorted(relevant))
    return UndResult(computad=computad, r_assign=r_assign, exact=exact)


def product_random_computad(
    sig: Signature, rng: random.Random, max_gens: int = 2, depth: int = 1
) -> Computad:
    """A random computad over ``sig``: per sort, in increasing dimension, up to
    ``max_gens`` generators, each glued along a family drawn from the
    cocycle-satisfying families of terms of depth at most ``depth`` over the
    generators of lower dimension.  The families are found by brute force:
    every product of terms, one per face, filtered by ``check_family``.  The
    reference for ``fixtures.random_computad``."""
    from computads.errors import IncompatibleArgs
    from computads.terms import check_family

    cat = sig.base
    gens: dict[str, tuple[str, ...]] = {}
    glue: dict = {}
    for sort in cat.sorts:
        lower = Computad(sig, gens, glue)
        faces = cat.faces_into(sort)
        sphere = boundary_representable(cat, sort)
        families = []
        for terms in itertools.product(
            *[enumerate_terms(lower, cat.face(f).src, depth) for f in faces]
        ):
            family = dict(zip(faces, terms))
            try:
                check_family(lower, sphere, family, "gluing")
            except IncompatibleArgs:
                continue
            families.append(family)
        names = []
        for _ in range(rng.randint(0, max_gens) if families else 0):
            name = f"G{sum(map(len, gens.values())) + len(names)}"
            names.append(name)
            glue.update({(name, f): t for f, t in rng.choice(families).items()})
        gens[sort] = tuple(names)
    return make_computad(sig, gens, glue)


# -- pasting trees by recursion: the reference for ``globular`` ---------------------

def tree_dim(tree: Tree) -> int:
    return 0 if not tree else 1 + max(tree_dim(sub) for sub in tree)


def tree_positions(tree: Tree, dim: int) -> list[tuple[int, ...]]:
    """Positions of dimension ``dim``: paths of subtree indices ending in an
    object index of the innermost subtree."""
    if dim == 0:
        return [(j,) for j in range(len(tree) + 1)]
    out = []
    for i, sub in enumerate(tree):
        out.extend((i,) + path for path in tree_positions(sub, dim - 1))
    return out


def _position_source(tree: Tree, path: tuple[int, ...]) -> tuple[int, ...]:
    """The source of a positive-dimensional position, one dimension down."""
    if len(path) == 2:
        return (path[0],)  # arrows from subtree i run from object i ...
    return (path[0],) + _position_source(tree[path[0]], path[1:])


def _position_target(tree: Tree, path: tuple[int, ...]) -> tuple[int, ...]:
    if len(path) == 2:
        return (path[0] + 1,)  # ... to object i + 1
    return (path[0],) + _position_target(tree[path[0]], path[1:])


def _tree_presheaf(cat, tree: Tree) -> Presheaf:
    """The positions of a tree, each face found by recursion and the whole
    checked by ``make_presheaf``; not memoised, so every call builds anew."""
    d = tree_dim(tree)
    if globe_sort(d) not in cat.dims:
        raise BadIndex(f"tree of dimension {d} exceeds the globe category")
    cells = {}
    paths: dict[int, list[tuple[int, ...]]] = {}
    for m in range(d + 1):
        paths[m] = tree_positions(tree, m)
        cells[globe_sort(m)] = tuple(sorted(position_name(p) for p in paths[m]))
    action = {}
    for m in range(d + 1):
        for path in paths[m]:
            # the k-source iterates one-step sources; the k-target iterates
            # sources except for the final step
            src_chain: dict[int, tuple[int, ...]] = {m: path}
            for k in range(m - 1, -1, -1):
                src_chain[k] = _position_source(tree, src_chain[k + 1])
            for k in range(m):
                tgt = _position_target(tree, src_chain[k + 1])
                action[(globe_face("s", k, m), position_name(path))] = position_name(
                    src_chain[k]
                )
                action[(globe_face("t", k, m), position_name(path))] = position_name(
                    tgt
                )
    return make_presheaf(cat, cells, action)


def _boundary_path(tree: Tree, path: tuple[int, ...], n: int, flavor: str) -> tuple[int, ...]:
    """Image of a position of the cut tree inside the whole tree."""
    if len(path) - 1 < n:
        return path
    if n == 0:
        return (0,) if flavor == "s" else (len(tree),)
    return (path[0],) + _boundary_path(tree[path[0]], path[1:], n - 1, flavor)


def tree_boundary_inclusion(cat, tree: Tree, n: int, flavor: str) -> PresheafMorphism:
    """The source (flavor 's') or target ('t') inclusion of the cut tree,
    each position's image found by recursion, between the presheaves of
    ``_tree_presheaf``."""
    cut = boundary_tree(tree, n)
    component = {}
    for m in range(tree_dim(cut) + 1):
        for path in tree_positions(cut, m):
            component[position_name(path)] = position_name(
                _boundary_path(tree, path, n, flavor)
            )
    src, dst = _tree_presheaf(cat, cut), _tree_presheaf(cat, tree)
    return PresheafMorphism(src=src, dst=dst, component=component)
