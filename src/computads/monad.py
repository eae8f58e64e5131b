"""Depth-bounded term enumeration and the free-algebra adjunction data.

Terms of a fixed sort are enumerated by depth.  An argument family for a
symbol assigns terms to the arity cells: it is a presheaf morphism from the
arity into terms, found by ``presheaf.search``, whose docstring gives the
forced-boundary-profile argument that keeps the enumeration from guessing.
"""

from __future__ import annotations

from dataclasses import dataclass

from .base import SortRef, memoized
from .computad import Computad, ComputadMorphism, free_computad, make_morphism
from .presheaf import Presheaf, PresheafMorphism, hom_families, make_presheaf, search
from .signature import Signature
from .terms import Term, Var, app, boundary, canonical_sort, subst


def argument_families(
    c: Computad, arity: Presheaf, max_depth: int
) -> list[dict[str, Term]]:
    """All presheaf morphisms from ``arity`` into terms of depth <= max_depth."""
    return list(
        search(
            hom_families(
                arity,
                lambda s: enumerate_terms(c, s, max_depth),
                lambda f, t: boundary(c, f, t),
            )
        )
    )


@memoized("_terms_by_depth")
def enumerate_terms(c: Computad, sort: SortRef, max_depth: int) -> list[Term]:
    """The terms of ``sort`` of depth at most ``max_depth``, canonically
    ordered (by depth, then serialisation) and duplicate-free."""
    terms: list[Term] = [Var(g) for g in c.generators_at(sort)]
    if max_depth >= 1:
        for sym in c.signature.symbols_at(sort):
            for fam in argument_families(c, sym.arity, max_depth - 1):
                terms.append(app(sym.id, fam))
    return canonical_sort(terms)[0]


def terms_saturated(c: Computad, sort: SortRef, max_depth: int) -> bool:
    """True when no new term of ``sort`` appears at depth max_depth + 1,
    which (by induction on depth) pins the whole term set."""
    return len(enumerate_terms(c, sort, max_depth)) == len(
        enumerate_terms(c, sort, max_depth + 1)
    )


# -- the term presheaf of a computad --------------------------------------------

@dataclass
class TermPresheafView:
    """A finite boundary-closed family of terms of a computad, presented as a
    presheaf whose cells name the terms."""

    computad: Computad
    depth: int
    presheaf: Presheaf
    encode: dict[Term, str]
    decode: dict[str, Term]


def term_presheaf(c: Computad, max_depth: int) -> TermPresheafView:
    """All terms of depth <= max_depth, closed under boundaries.

    Boundaries of a bounded-depth term can exceed the bound (a symbol's
    boundary term is substituted into), so the cell set is the closure.
    """
    by_sort: dict[SortRef, set[Term]] = {
        s: set(enumerate_terms(c, s, max_depth)) for s in c.base.sorts
    }
    # Close under the boundary action.  Boundaries land at strictly lower
    # sorts, so one sweep from high sorts downwards suffices.
    for s in reversed(c.base.sorts):
        for t in list(by_sort[s]):
            for face in c.base.faces_into(s):
                b = boundary(c, face, t)
                by_sort[c.base.face(face).src].add(b)

    cells: dict[SortRef, tuple[str, ...]] = {}
    encode: dict[Term, str] = {}
    decode: dict[str, Term] = {}
    for s in c.base.sorts:
        ordered, names = canonical_sort(by_sort[s])
        cells[s] = tuple(names)
        for t, n in zip(ordered, names):
            encode[t] = n
            decode[n] = t
    action = {}
    for s in c.base.sorts:
        for t in by_sort[s]:
            for face in c.base.faces_into(s):
                action[(face, encode[t])] = encode[boundary(c, face, t)]
    p = make_presheaf(c.base, cells, action)
    return TermPresheafView(
        computad=c, depth=max_depth, presheaf=p, encode=encode, decode=decode
    )


# -- adjunction data -------------------------------------------------------------

def unit(x: Presheaf, signature: Signature, depth: int = 0) -> PresheafMorphism:
    """The unit at a presheaf: each cell becomes the generator term over the
    free computad."""
    view = term_presheaf(free_computad(x, signature), depth)
    component = {cell: view.encode[Var(cell)] for _, cell in _all_cells(x)}
    return PresheafMorphism(src=x, dst=view.presheaf, component=component)


def _all_cells(x: Presheaf):
    return [(s, c) for s in x.base.sorts for c in x.cells_at(s)]


def counit(c: Computad, depth: int) -> ComputadMorphism:
    """The counit at a computad: the free computad on the (depth-bounded)
    terms of C maps back to C by reading each term cell as itself; unchecked,
    as the term presheaf acts by taking boundaries."""
    view = term_presheaf(c, depth)
    free = free_computad(view.presheaf, c.signature)
    return ComputadMorphism(free, c, dict(view.decode))


def mult(t: Term, decode: dict[str, Term]) -> Term:
    """Flatten one layer: a term whose generators name terms becomes the
    substituted term.  ``mult(Var enc(u)) == u``."""
    return subst(t, decode)


def term_action(t: Term, component: dict[str, str]) -> Term:
    """Functorial action of a presheaf morphism on terms over the free
    computads: relabel generator leaves."""
    from .terms import rename

    return rename(t, component)


def transpose(m: ComputadMorphism) -> dict[str, Term]:
    """A morphism out of a free computad is exactly an argument family."""
    return dict(m.assign)


def untranspose(
    arity: Presheaf, signature: Signature, c: Computad, family: dict[str, Term]
) -> ComputadMorphism:
    free = free_computad(arity, signature)
    return make_morphism(free, c, family)
