"""The inductive term language.

A term over a computad C is either a generator ``var(v)`` or a formal
application ``app(f, args)`` of a function symbol to a family of lower terms
indexed by the cells of the symbol's arity.  Terms are pure syntax, and
well-formedness is always relative to a *context* that can resolve
generators and symbols.

Terms and shapes are hash-consed (Filliatre & Conchon, 2006): ``var``,
``app``, ``pvar`` and ``papp`` return the live node with the same fields if
there is one, so equal nodes are the same object and ``==`` and ``hash``
never walk a tree.  Every walk over a tree is one :func:`fold`.

A context is any object with
  - ``base``                   the sort category,
  - ``gen_sort(gen)``          the sort of a generator,
  - ``gluing(gen, face)``      the boundary term attached to a generator,
  - ``symbol(symbol_id)``      the function symbol (sort, arity, boundary).

Computads are the contexts (the free computad on an arity, for boundary
terms).  A generator of sort i is attached along its gluings, a family over
the boundary of the representable on i; an application along its arguments,
a family over its symbol's arity.  :func:`parts` lists either family, and
:func:`check_family` checks the cocycle condition on it.

The canonical order of terms, and of shapes, is by rank (depth, weight),
then by serialisation.  A serialisation is the node's *head*, its spelling
up to its first label (``v(x)``, ``f[`` or ``<s|``), then its labels and
its children's serialisations in label order, with punctuation that the
head fixes.  So while no head of a sort is a proper prefix of another, the
spellings of each sort are prefix-free, and two nodes with one head compare
as their children do:
``monad.enumerate_ranked`` orders by such integer keys and spells nothing.
:func:`canonical_sort` spells, for nodes that do not come from one list,
and for owners whose heads clash (generators ``a`` and ``a)!``).
"""

from __future__ import annotations

import weakref
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from operator import attrgetter

from .base import FaceRef, SortRef
from .errors import IncompatibleArgs, SortMismatch
from .presheaf import Presheaf


class _Entry(weakref.ref):
    __slots__ = ("key",)


# (node class, *fields) -> weak entry of the live node with those fields
_table: dict[tuple, _Entry] = {}


def _forget(entry: _Entry) -> None:
    """Drop a dead node's entry, unless a new node has the key already."""
    if _table.get(entry.key) is entry:
        del _table[entry.key]


def interned(key: tuple):
    """The live node ``cls(*fields)`` for ``key = (cls, *fields)``, made and
    interned if there is none.  A node's children are among its fields, in
    label order, and interned, so they key by identity."""
    entry = _table.get(key)
    node = None if entry is None else entry()
    if node is None:
        node = key[0](*key[1:])
        entry = _table[key] = _Entry(node, _forget)
        entry.key = key
    return node


class Node:
    """A term or a shape, never changed once built.  ``args`` pairs each
    label with a child; ``rank`` is their largest rank, or 0, plus ``step``.
    The ``__weakref__`` slot lets the intern table hold nodes without pinning
    them (Python 3.10 has no ``dataclass(weakref_slot=True)``)."""

    __slots__ = ("__weakref__", "rank")
    args: tuple = ()
    step = 0

    def __post_init__(self):
        rank = 0  # a loop: max() over a comprehension costs several times more
        for _, u in self.args:
            if u.rank > rank:
                rank = u.rank
        self.rank = rank + self.step

    def arg_map(self) -> dict:
        return dict(self.args)

    def spell(self, family: dict[str, str]) -> str:
        """An application's serialisation from its children's."""
        return self.symbol + "[" + ",".join(map("=".join, family.items())) + "]"


class Term(Node):
    __slots__ = ()
    depth = property(attrgetter("rank"))


@dataclass(slots=True, eq=False)
class Var(Term):
    gen: str

    def spell(self, family) -> str:
        return f"v({self.gen})"


@dataclass(slots=True, eq=False)
class App(Term):
    symbol: str
    args: tuple[tuple[str, Term], ...]  # (arity cell, term), sorted by cell
    step = 1


def var(gen: str) -> Var:
    return interned((Var, gen))


def app(symbol: str, args: dict[str, Term]) -> App:
    return interned((App, symbol, tuple(sorted(args.items()))))


children_of = attrgetter("args")


def fold(root, children, build, memo: dict | None = None):
    """``build(node, family)`` at ``root``, after it ran at every node below:
    ``children(node)`` lists ``(label, child)`` pairs, and ``family`` maps
    each label to the child's value.  ``memo`` maps nodes to values; no
    node found there is walked again.  ``children`` runs once per node, and
    children are entered in order over an explicit stack, so the depth of
    ``root`` is not bounded by the recursion limit."""
    if memo is None:
        memo = {}
    todo = [(root, None)]
    while todo:
        node, family = todo.pop()
        if node in memo:
            continue
        if family is None:
            family = children(node)
        values = {}
        for label, child in family:
            if child not in memo:  # come back to node once its children are built
                todo.append((node, family))
                todo += [(u, None) for _, u in reversed(family) if u not in memo]
                break
            values[label] = memo[child]
        else:
            memo[node] = build(node, values)
    return memo[root]


def fold_term(t: Term, leaf, node, memo: dict | None = None):
    """:func:`fold` over the syntax of ``t``, with ``leaf(gen)`` at each
    generator and ``node(app, family)`` at each application; ``memo`` as in
    :func:`fold`."""

    def build(u, family):
        return leaf(u.gen) if isinstance(u, Var) else node(u, family)

    return leaf(t.gen) if isinstance(t, Var) else fold(t, children_of, build, memo)


def leaves(t: Term) -> tuple[str, ...]:
    """The generators at the leaves of ``t``, per occurrence, in label order."""
    return fold_term(t, lambda gen: (gen,), lambda u, family: sum(family.values(), ()))


def speller():
    """A serialiser of terms or shapes, each node spelled from its children's
    through one memo for all its calls, so each shared subtree once."""
    memo: dict = {}
    return lambda node: fold(node, children_of, lambda u, f: u.spell(f), memo)


def spellings(nodes: Iterable) -> list[str]:
    """The serialisation of each of ``nodes``, through one ``speller``."""
    return list(map(speller(), nodes))


def serialize(node) -> str:
    return spellings([node])[0]


def canonical_sort(nodes: Iterable) -> tuple[list, list[str]]:
    """Terms or shapes in canonical order, by rank (a term's depth, a shape's
    weight), then serialisation; with the serialisations in that order."""
    nodes = list(nodes)
    keyed = sorted(zip([n.rank for n in nodes], spellings(nodes), range(len(nodes))))
    return [nodes[i] for _, _, i in keyed], [s for _, s, _ in keyed]


def term_sort(ctx, t: Term) -> SortRef:
    if isinstance(t, Var):
        return ctx.gen_sort(t.gen)
    return ctx.symbol(t.symbol).sort


def subst(t: Term, mapping: dict[str, Term]) -> Term:
    """Replace every generator leaf through ``mapping``.

    This is simultaneously substitution of an argument family into a boundary
    term and the action of a computad morphism on a term.
    """
    return fold_term(t, mapping.__getitem__, lambda u, family: app(u.symbol, family))


def rename(t: Term, mapping: dict[str, str]) -> Term:
    """Generator-to-generator relabelling (a variable-to-variable action)."""
    return fold_term(t, lambda gen: var(mapping[gen]), lambda u, family: app(u.symbol, family))


def boundary(ctx, face: FaceRef, t: Term) -> Term:
    """The action of a non-identity face on a term.

    For a generator this is its gluing; for an application it is the symbol's
    boundary term with the argument family substituted in.
    """
    if isinstance(t, Var):
        return ctx.gluing(t.gen, face)
    return subst(ctx.symbol(t.symbol).boundary[face], t.arg_map())


def boundary_along(ctx, face: FaceRef, t: Term) -> Term:
    """Like :func:`boundary` but checks the face targets the term's sort."""
    f = ctx.base.face(face)
    s = term_sort(ctx, t)
    if f.dst != s:
        raise SortMismatch(f"face {face!r} targets {f.dst!r}, term has sort {s!r}")
    return boundary(ctx, face, t)


def parts(ctx, t: Term) -> Sequence[tuple[str, Term]]:
    """The (cell, term) pairs ``t`` is attached along: a generator's gluing
    at each face into its sort, or an application's arguments."""
    if isinstance(t, Var):
        faces = ctx.base.faces_into(ctx.gen_sort(t.gen))
        return [(face, ctx.gluing(t.gen, face)) for face in faces]
    return t.args


def check_family(ctx, x: Presheaf, family: dict[str, Term], what: str) -> None:
    """Check that ``family`` is a presheaf morphism from ``x`` into terms;
    raises IncompatibleArgs or SortMismatch, naming ``what``."""
    for sort in x.base.sorts:
        for cell in x.cells_at(sort):
            if cell not in family:
                raise IncompatibleArgs(f"{what}: missing term at cell {cell!r}")
            t = family[cell]
            if term_sort(ctx, t) != sort:
                raise SortMismatch(f"{what}: term at {cell!r} must have sort {sort!r}")
            for face in x.base.faces_into(sort):
                if boundary(ctx, face, t) != family[x.act(face, cell)]:
                    raise IncompatibleArgs(
                        f"{what}: boundary of the term at {cell!r} along "
                        f"{face!r} disagrees with the term at {x.act(face, cell)!r}"
                    )
    extra = set(family) - {c for cs in x.cells.values() for c in cs}
    if extra:
        raise IncompatibleArgs(f"{what}: terms at unknown cells {sorted(extra)}")


def check_args(ctx, symbol_id: str, args: dict[str, Term]) -> None:
    """Check that ``args`` is a presheaf morphism from the arity into terms."""
    check_family(ctx, ctx.symbol(symbol_id).arity, args, repr(symbol_id))


def check_term(ctx, t: Term, expected_sort: SortRef | None = None) -> SortRef:
    """Validate a term over ``ctx``; returns its sort.  Each node's sort is
    read on the way down (raising UnknownGenerator or UnknownSymbol) and an
    application's arguments are checked on the way up."""

    def enter(u: Term):
        term_sort(ctx, u)
        return u.args

    def leave(u: Term, family) -> None:
        if isinstance(u, App):
            check_args(ctx, u.symbol, u.arg_map())

    fold(t, enter, leave)
    sort = term_sort(ctx, t)
    if expected_sort is not None and sort != expected_sort:
        raise SortMismatch(f"term has sort {sort!r}, expected {expected_sort!r}")
    return sort
