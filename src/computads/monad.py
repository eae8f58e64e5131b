"""Ranked enumeration of terms and shapes, the free algebra and its adjunction data.

A term over a computad, like its shape (``plex``), is a leaf or a *head* (a
presheaf, a rank step and a constructor) applied to a family: a presheaf
morphism from the head's presheaf into nodes of lower rank, found by
``presheaf.homs``.  ``enumerate_ranked`` is that induction, written once.

Its lists are in canonical order (``terms``): by rank, then by spelling.
The enumerator spells no node.  When, at every sort, no head (the spelling
up to its first label: ``v(x)``, ``neg[`` or ``<[1]|``) is a proper prefix
of another, the spellings of each sort are prefix-free, and comparing them
is comparing the integer keys ``(head, positions of the children)``, where
a child's position is its index in the *spelling order* of the list it was
drawn from.  Each list keeps its spelling order next to it, and its
canonical order is a stable sort of that by rank.  An owner that has, at
some sort, a head that is a prefix of another (generators ``a`` and
``a)!``) is sorted by spelling instead.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import partial
from itertools import repeat
from operator import attrgetter, itemgetter
from typing import NamedTuple

from .base import FaceRef, SortRef, memo_table, memoized
from .computad import Computad, ComputadMorphism, free_computad, make_morphism
from .errors import DepthExceeded, FunctorialityFailure, NegativeBound
from .presheaf import Presheaf, PresheafMorphism, action_spine, homs
from .signature import Signature
from .terms import Term, app, boundary, canonical_sort, children_of, rename, subst, var


class Induction(NamedTuple):
    """One kind of node over an owner (a computad or a signature).  Per sort,
    ``leaves(owner, sort)`` lists ``(head, node)`` pairs and ``heads(owner,
    sort)`` lists ``(head, x, step, make)``, each with its head spelled;
    ``act(owner, face, node)`` is the boundary action.  The lists live in the
    owner's memo table ``table``, and ``what`` names the rank in errors."""

    table: str
    what: str
    leaves: Callable
    heads: Callable
    act: Callable


@memoized("_head_order")
def head_order(owner, kind: Induction) -> dict | None:
    """Per sort, each head's index among the sorted heads of that sort; None
    when, at some sort, a head is a prefix of another, so that comparing
    keys would not be comparing spellings."""
    order = {}
    for sort in owner.base.sorts:
        names = sorted(
            [h for h, _ in kind.leaves(owner, sort)] + [h for h, *_ in kind.heads(owner, sort)]
        )
        if any(b.startswith(a) for a, b in zip(names, names[1:])):
            return None
        order[sort] = {h: i for i, h in enumerate(names)}
    return order


def enumerate_ranked(kind: Induction, owner, sort: SortRef, bound: int) -> list:
    """The nodes of ``sort`` of rank at most ``bound``, canonically ordered and
    duplicate-free: the leaves, and ``make(family)`` for each head ``(head,
    x, step, make)`` and each family from ``x`` into the nodes of rank at
    most ``bound - step``.  Raises NegativeBound (of ``kind.what``), then
    UnknownSort, before it asks for a leaf or a head.  Memoised in the
    owner's table, as ``(canonical order, spelling order)`` under ``(sort,
    rank)``; the missing ranks below ``bound`` are built first, bottom-up, so
    that no call recurses through more than one rank."""
    memo = memo_table(owner, kind.table)
    hit = memo.get((sort, bound))
    if hit is not None:
        return hit[0]
    if bound < 0:
        raise NegativeBound(f"{kind.what} bound {bound} is negative")
    owner.base.dim(sort)  # raises UnknownSort
    low = bound
    while low and (sort, low - 1) not in memo:
        low -= 1
    for rank in range(low, bound + 1):
        memo[(sort, rank)] = _ranked(kind, owner, sort, rank, memo)
    return memo[(sort, bound)][0]


def _ranked(kind: Induction, owner, sort: SortRef, bound: int, memo: dict) -> tuple:
    """The nodes of ``sort`` of rank at most ``bound``, in canonical order and
    in spelling order (None when the owner is sorted by spelling)."""
    order = head_order(owner, kind)
    spine = action_spine(partial(kind.act, owner))
    leaves = kind.leaves(owner, sort)
    out = [node for _, node in leaves]
    keys = [] if order is None else [(order[sort][head],) for head, _ in leaves]
    positions: dict = {}  # (sort, rank) -> {node: index in that list's spelling order}
    for head, x, step, make in kind.heads(owner, sort):
        if step > bound:
            continue
        rank = bound - step
        start = len(out)
        out.extend(map(make, homs(x, lambda s: enumerate_ranked(kind, owner, s, rank), spine)))
        if order is None:
            continue
        # key each new node by its head and, per label, its child's position
        at = []
        for _, s in sorted((cell, s) for s, cells in x.cells.items() for cell in cells):
            if (s, rank) not in positions:
                positions[(s, rank)] = {n: i for i, n in enumerate(memo[(s, rank)][1])}
            at.append(positions[(s, rank)])
        args = list(map(children_of, out[start:]))
        children = [map(p.__getitem__, map(itemgetter(1), map(itemgetter(j), args)))
                    for j, p in enumerate(at)]
        keys += zip(repeat(order[sort][head], len(args)), *children)
    if order is None:
        return canonical_sort(out)[0], None
    spelled = [out[i] for i in sorted(range(len(out)), key=keys.__getitem__)]
    return sorted(spelled, key=attrgetter("rank")), spelled


def _term_leaves(c: Computad, sort: SortRef) -> list:
    return [("v(" + g + ")", var(g)) for g in c.generators_at(sort)]


def _term_heads(c: Computad, sort: SortRef) -> list:
    symbols = c.signature.symbols_at(sort)
    return [(sym.id + "[", sym.arity, 1, partial(app, sym.id)) for sym in symbols]


TERMS = Induction("_terms_by_depth", "term depth", _term_leaves, _term_heads, boundary)


def enumerate_terms(c: Computad, sort: SortRef, max_depth: int) -> list[Term]:
    """The terms of ``sort`` of depth at most ``max_depth``, canonically
    ordered (by depth, then serialisation): the generators, and each symbol
    applied to every argument family one depth lower."""
    return enumerate_ranked(TERMS, c, sort, max_depth)


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
    Unchecked (taking boundaries is functorial) but for two terms spelled alike.
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
    if len(decode) < sum(map(len, cells.values())):  # two terms spelled alike
        raise FunctorialityFailure("duplicate cell id in the term presheaf")
    carrier = Presheaf(c.base, cells, action)
    return FreeAlgebra(computad=c, depth=max_depth, carrier=carrier, encode=encode, decode=decode)


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
