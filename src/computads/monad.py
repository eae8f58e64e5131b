"""Ranked enumeration of terms and shapes, the free algebra and its adjunction data.

A term over a computad, like its shape (``plex``), is a leaf or a *head* (a
presheaf, a rank step and a constructor) applied to a family: a presheaf
morphism from the head's presheaf into nodes of lower rank, found by
``presheaf.homs``.  ``enumerate_ranked`` is that induction, written once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from .base import FaceRef, SortRef, memoized
from .computad import Computad, ComputadMorphism, free_computad, make_morphism
from .errors import DepthExceeded, NegativeBound
from .presheaf import Presheaf, PresheafMorphism, homs, make_presheaf
from .signature import Signature
from .terms import Term, app, boundary, canonical_sort, rename, subst, var


def enumerate_ranked(base, sort, bound: int, what: str, leaves, heads, members, act) -> list:
    """The nodes of ``sort`` of rank at most ``bound``, canonically ordered and
    duplicate-free: ``leaves()``, and ``make(family)`` for each head ``(x, step,
    make)`` of ``heads()`` and each family from ``x`` into the nodes of rank at
    most ``bound - step``, listed by ``members(sort, rank)`` and acted on by
    ``act(face, node)``.  Raises NegativeBound (of ``what``), then UnknownSort,
    before it asks for a leaf or a head."""
    if bound < 0:
        raise NegativeBound(f"{what} bound {bound} is negative")
    base.dim(sort)  # raises UnknownSort
    out = list(leaves())
    for x, step, make in heads():
        if step <= bound:
            rank = bound - step
            out.extend(map(make, homs(x, lambda s: members(s, rank), act)))
    return canonical_sort(out)[0]


@memoized("_terms_by_depth")
def enumerate_terms(c: Computad, sort: SortRef, max_depth: int) -> list[Term]:
    """The terms of ``sort`` of depth at most ``max_depth``, canonically
    ordered (by depth, then serialisation): the generators, and each symbol
    applied to every argument family one depth lower."""

    def heads():
        for sym in c.signature.symbols_at(sort):
            yield sym.arity, 1, partial(app, sym.id)

    return enumerate_ranked(
        c.base, sort, max_depth, "term depth", lambda: map(var, c.generators_at(sort)),
        heads, partial(enumerate_terms, c), partial(boundary, c),
    )


def terms_saturated(c: Computad, sort: SortRef, max_depth: int) -> bool:
    """True when no new term of ``sort`` appears at depth max_depth + 1,
    which (by induction on depth) pins the whole term set."""
    return len(enumerate_terms(c, sort, max_depth)) == len(
        enumerate_terms(c, sort, max_depth + 1)
    )


# -- the free algebra on a computad ---------------------------------------------

@dataclass
class FreeAlgebra:
    """The free algebra on a computad, up to a depth: its carrier is the term
    presheaf, a finite boundary-closed family of terms whose cells name the
    terms, and a symbol is interpreted by forming the application, which
    raises ``DepthExceeded`` past the bound."""

    computad: Computad
    depth: int
    carrier: Presheaf
    encode: dict[Term, str]
    decode: dict[str, Term]

    @property
    def presheaf(self) -> Presheaf:
        """The carrier, read as the term presheaf of the computad."""
        return self.carrier

    @property
    def signature(self) -> Signature:
        return self.computad.signature

    def cells_at(self, sort: SortRef) -> tuple[str, ...]:
        return self.carrier.cells_at(sort)

    def act(self, face: FaceRef, cell: str) -> str:
        return self.carrier.act(face, cell)

    def interpret(self, symbol_id: str, assignment: dict[str, str]) -> str:
        t = app(symbol_id, {c: self.decode[v] for c, v in assignment.items()})
        if t not in self.encode:
            raise DepthExceeded(
                f"term of depth {t.depth} exceeds the depth bound {self.depth}"
            )
        return self.encode[t]


def term_presheaf(c: Computad, max_depth: int) -> FreeAlgebra:
    """All terms of depth <= max_depth, closed under boundaries.

    Boundaries of a bounded-depth term can exceed the bound (a symbol's
    boundary term is substituted into), so the cell set is the closure.
    """
    by_sort: dict[SortRef, set[Term]] = {
        s: set(enumerate_terms(c, s, max_depth)) for s in c.base.sorts
    }
    # Close under the boundary action.  Boundaries land at strictly lower
    # sorts, so one sweep from high sorts downwards suffices, and it takes
    # the boundary of every term along every face into its sort.
    boundaries: dict[tuple[FaceRef, Term], Term] = {}
    for s in reversed(c.base.sorts):
        for t in by_sort[s]:
            for face in c.base.faces_into(s):
                b = boundaries[(face, t)] = boundary(c, face, t)
                by_sort[c.base.face(face).src].add(b)

    cells: dict[SortRef, tuple[str, ...]] = {}
    decode: dict[str, Term] = {}
    for s in c.base.sorts:
        ordered, names = canonical_sort(by_sort[s])
        cells[s] = tuple(names)
        decode.update(zip(names, ordered))
    encode = {t: n for n, t in decode.items()}
    action = {(face, encode[t]): encode[b] for (face, t), b in boundaries.items()}
    p = make_presheaf(c.base, cells, action)
    return FreeAlgebra(
        computad=c, depth=max_depth, carrier=p, encode=encode, decode=decode
    )


# -- adjunction data -------------------------------------------------------------

def unit(x: Presheaf, signature: Signature) -> PresheafMorphism:
    """The unit at a presheaf: each cell becomes the generator term over the
    free computad."""
    view = term_presheaf(free_computad(x, signature), 0)
    component = {
        cell: view.encode[var(cell)] for s in x.base.sorts for cell in x.cells_at(s)
    }
    return PresheafMorphism(src=x, dst=view.carrier, component=component)


def counit(c: Computad, depth: int) -> ComputadMorphism:
    """The counit at a computad: the free computad on the (depth-bounded)
    terms of C maps back to C by reading each term cell as itself; unchecked,
    as the term presheaf acts by taking boundaries."""
    view = term_presheaf(c, depth)
    free = free_computad(view.carrier, c.signature)
    return ComputadMorphism(free, c, dict(view.decode))


def mult(t: Term, decode: dict[str, Term]) -> Term:
    """Flatten one layer: a term whose generators name terms becomes the
    substituted term.  ``mult(Var enc(u)) == u``."""
    return subst(t, decode)


def term_action(t: Term, component: dict[str, str]) -> Term:
    """Functorial action of a presheaf morphism on terms over the free
    computads: relabel generator leaves."""
    return rename(t, component)


def transpose(m: ComputadMorphism) -> dict[str, Term]:
    """A morphism out of a free computad is exactly an argument family."""
    return dict(m.assign)


def untranspose(
    arity: Presheaf, signature: Signature, c: Computad, family: dict[str, Term]
) -> ComputadMorphism:
    free = free_computad(arity, signature)
    return make_morphism(free, c, family)
