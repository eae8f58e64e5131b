"""Independent brute-force enumeration of terms by the two increasing
families of sets: terms stratified by boundary type, and argument tuples of
bounded recursion rank, iterated jointly to a fixed point.

This is deliberately a separate implementation from the library's
enumerator: it builds depth-indexed tables keyed by boundary profiles and
grows them rank by rank, rather than recursing per call.

Also here: from-scratch spellings of terms and shapes, the classifying
morphism of a term read off the colimit presentation of its shape, and the
nerve's realisation with its plex maps found by search.
"""

from __future__ import annotations

from computads.computad import (
    Computad,
    ComputadMorphism,
    apply_morphism,
    colimit_var,
    enumerate_var_to_var,
)
from computads.plex import (
    PVar,
    Polyplex,
    classify,
    classifying_morphism,
    nerve,
    polyplex_computad,
)
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
    if rep.star is not None:
        assign[rep.star] = t
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
    edges: list[tuple[str, str, ComputadMorphism]] = []
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
                edges.append((restricted.gen, gen, m))
    if not nodes:
        return Computad(sig, {}, {})
    return colimit_var(nodes, edges).computad
