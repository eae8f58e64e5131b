"""The inductive term language.

A term over a computad C is either a generator ``var(v)`` or a formal
application ``app(f, args)`` of a function symbol to a family of lower terms
indexed by the cells of the symbol's arity.  Terms are pure syntax, and
well-formedness is always relative to a *context* that can resolve
generators and symbols.

Terms and shapes are hash-consed (Filliatre & Conchon, 2006): a node is
built only by :func:`interned`, which returns the live node with the same
head and children if there is one, so equal nodes are the same object and
``==`` and ``hash`` never walk a tree.  A node holds its children as one
tuple in label order; its :class:`Head` (class, head fields, sorted labels,
spelling) is one object shared by every node of that head, labels included.
So the intern key is the head and the children, ``(head, children)``, with
no ``(label, child)`` pair in it: ``args`` and ``arg_map`` pair them on
demand.  ``var``, ``app``, ``pvar`` and ``papp`` sort a family into label
order; the enumerator hands :func:`interned` a head's families in bulk.
Every walk over a tree is one :func:`fold`, but the :func:`speller`'s.

A context is any object with
  - ``base``                   the sort category,
  - ``gen_sort(gen)``          the sort of a generator,
  - ``gluing(gen, face)``      the boundary term attached to a generator,
  - ``symbol(symbol_id)``      the function symbol (sort, arity, boundary).

Computads are the contexts (the free computad on an arity, for boundary
terms).  A generator of sort i is attached along its gluings, a family over
the boundary of the representable on i; an application along its arguments,
a family over its symbol's arity.  :func:`attached` gives either family as
a fold reads it (:func:`parts` as pairs), and :func:`check_family` checks
the cocycle condition on it.

The canonical order of terms, and of shapes, is by rank (depth, weight),
then by serialisation.  A serialisation is the node's *head*, its spelling
up to its first label (``v(x)``, ``f[`` or ``<s|``), then its labels and
its children's serialisations in label order, with punctuation that the
head fixes.  So while no head of a sort is a proper prefix of another, the
spellings of each sort are prefix-free, and two nodes with one head compare
as their children do: ``monad.enumerate_ranked`` orders by the children's
positions and spells nothing.
:func:`canonical_sort` spells, for nodes that do not come from one list,
and for owners whose heads clash (generators ``a`` and ``a)!``).
"""

from __future__ import annotations

import weakref
from collections.abc import Iterable, Sequence
from itertools import repeat
from operator import attrgetter, itemgetter

from .base import FaceRef, SortRef
from .errors import IncompatibleArgs, SortMismatch
from .presheaf import Presheaf


class Head:
    """What every node of one head shares: its class (``kind``), the head
    fields (``fields``: a generator's name, a symbol, a sort), the sorted
    ``labels`` of its children with the ``index`` of each, and the
    ``spelling`` of its nodes, a format with one ``{}`` per label.  One
    object per head (``head``), so that a node's intern key hashes and
    compares it by identity."""

    __slots__ = ("kind", "fields", "labels", "index", "spelling")

    def __init__(self, kind, fields: tuple, labels: tuple):
        self.kind, self.fields, self.labels = kind, fields, labels
        self.index = {label: i for i, label in enumerate(labels)}
        self.spelling = kind.spelling(*fields, labels)


# (kind, fields, labels) -> the one Head with them; heads are few (one per
# generator, symbol and sort met) and are kept for the life of the process
_heads: dict[tuple, Head] = {}


def head(kind, fields: tuple, labels: tuple) -> Head:
    """The head of class ``kind`` with ``fields`` and sorted ``labels``."""
    found = _heads.get((kind, fields, labels))
    if found is None:
        found = _heads[(kind, fields, labels)] = Head(kind, fields, labels)
    return found


class _Entry(weakref.ref):
    __slots__ = ("key",)


# (head, children) -> weak entry of the live node with them
_table: dict[tuple, _Entry] = {}


def _forget(entry: _Entry) -> None:
    """Drop a dead node's entry, unless a new node has the key already."""
    if _table.get(entry.key) is entry:
        del _table[entry.key]


def interned(h: Head, families: Iterable[tuple], order: tuple | None = None) -> list:
    """The live node of head ``h`` over each of ``families``, made and
    interned where there is none.  A family is a tuple of children listed
    by the names in ``order`` (by default the head's labels), and is
    permuted into label order, so an order never makes a second node.
    Children are interned, so the key ``(head, children)`` hashes and
    compares by identity; a node costs one probe of the table."""
    labels = h.labels
    if order is not None and order != labels:
        at = {name: i for i, name in enumerate(order)}
        families = map(itemgetter(*[at[label] for label in labels]), families)
    get = _table.get
    out = []
    for children in families:
        key = (h, children)
        entry = get(key)
        node = None if entry is None else entry()
        out.append(_made(key) if node is None else node)
    return out


def _made(key: tuple) -> Node:
    """A new node for the intern key ``(head, children)``, entered in the
    table; its rank is its children's largest, or 0, plus its step."""
    h, children = key
    rank = 0  # a loop: max() over a map costs more for a few children
    for u in children:
        if u.rank > rank:
            rank = u.rank
    node = h.kind(h, children, rank + h.kind.step)
    entry = _table[key] = _Entry(node, _forget)
    entry.key = key
    return node


def spelling_format(opening: str, eq: str, labels: tuple, closing: str) -> str:
    """The format of a node's serialisation with one ``{}`` per label: its
    head ``opening``, each label joined to its child's by ``eq``, and
    ``closing``; every literal brace doubled."""
    def literal(text: str) -> str:
        return text.replace("{", "{{").replace("}", "}}")

    slots = ",".join(literal(label + eq) + "{}" for label in labels)
    return literal(opening) + slots + literal(closing)


class Node:
    """A term or a shape, never changed once built: its ``head``, its
    ``labels`` (the head's), its ``children`` in label order, and its
    ``rank``, the children's largest rank, or 0, plus ``step``.  The
    ``__weakref__`` slot lets the intern table hold nodes without pinning
    them.  ``args``, ``arg_map`` (and ``PVar.btype``) are derived views that
    pair each label with its child."""

    __slots__ = ("__weakref__", "head", "labels", "children", "rank")
    step = 0
    args = property(lambda self: tuple(zip(self.labels, self.children)))

    def arg_map(self) -> dict:
        return dict(zip(self.labels, self.children))

    def child(self, label: str):
        """The child at ``label``."""
        return self.children[self.head.index[label]]

    def __repr__(self) -> str:
        fields = ", ".join(map(repr, self.head.fields))
        return f"{type(self).__name__}({fields}, {self.arg_map()!r})"

    def spell(self, spelled: dict) -> str:
        """The node's serialisation, from ``spelled``, which holds its
        children's (a :func:`speller`'s memo)."""
        return self.head.spelling.format(*map(spelled.__getitem__, self.children))


class Term(Node):
    __slots__ = ()
    depth = property(attrgetter("rank"))


class Var(Term):
    __slots__ = ("gen",)

    def __init__(self, h: Head, children: tuple, rank: int):
        self.head, self.labels, self.children, self.rank = h, h.labels, children, rank
        (self.gen,) = h.fields

    @staticmethod
    def spelling(gen: str, labels: tuple) -> str:
        return spelling_format(f"v({gen})", "", labels, "")


class App(Term):
    __slots__ = ("symbol",)
    step = 1

    def __init__(self, h: Head, children: tuple, rank: int):
        self.head, self.labels, self.children, self.rank = h, h.labels, children, rank
        (self.symbol,) = h.fields

    @staticmethod
    def spelling(symbol: str, labels: tuple) -> str:
        """An application's format: ``symbol[label=...,...]``."""
        return spelling_format(symbol + "[", "=", labels, "]")


def node_of(h: Head, children: tuple):
    """The live node of head ``h`` over ``children``, in label order."""
    key = (h, children)
    entry = _table.get(key)
    found = None if entry is None else entry()
    return _made(key) if found is None else found


# gen -> the intern key (head(Var, (gen,), ()), ()) of its leaf, kept as the
# heads are: leaves are the most often built nodes
_leaf_keys: dict[str, tuple] = {}


def var(gen: str) -> Var:
    key = _leaf_keys.get(gen)
    if key is None:
        key = _leaf_keys[gen] = (head(Var, (gen,), ()), ())
    entry = _table.get(key)
    found = None if entry is None else entry()
    return _made(key) if found is None else found


def app(symbol: str, args: dict[str, Term]) -> App:
    labels, children = in_label_order(args)
    return node_of(head(App, (symbol,), labels), children)


def in_label_order(family: dict) -> tuple[tuple, tuple]:
    """The labels of ``family``, sorted, and its children in their order."""
    labels = tuple(sorted(family))
    return labels, tuple([family[label] for label in labels])


parts_of = attrgetter("labels", "children")


def fold(root, parts, build, memo: dict | None = None):
    """``build(node, family)`` at ``root``, after it ran at every node below:
    ``parts(node)`` gives ``(labels, children)``, and ``family`` maps each
    label to its child's value.  ``memo`` maps nodes to values; no node
    found there is walked again.  ``parts`` runs once per node, and children
    are entered in order over an explicit stack, so the depth of ``root``
    is not bounded by the recursion limit."""
    if memo is None:
        memo = {}
    elif root in memo:
        return memo[root]
    todo = [(root, None)]
    while todo:
        node, got = todo.pop()
        if node in memo:
            continue
        if got is None:  # a first visit
            got = parts(node)
            if not got[1]:
                memo[node] = build(node, {})
                continue
            if not all(map(memo.__contains__, got[1])):  # back once they are built
                todo.append((node, got))
                todo += zip(reversed(got[1]), repeat(None))
                continue
        labels, children = got
        memo[node] = build(node, dict(zip(labels, map(memo.__getitem__, children))))
    return memo[root]


def fold_term(t: Term, leaf, node, memo: dict | None = None):
    """:func:`fold` over the syntax of ``t``, with ``leaf(gen)`` at each
    generator and ``node(app, family)`` at each application; ``memo`` as in
    :func:`fold`."""
    if isinstance(t, Var):  # before the closure below is made
        return leaf(t.gen)

    def build(u, family):
        return leaf(u.gen) if isinstance(u, Var) else node(u, family)

    return fold(t, parts_of, build, memo)


def leaves(t: Term) -> tuple[str, ...]:
    """The generators at the leaves of ``t``, per occurrence, in label order."""
    return fold_term(t, lambda gen: (gen,), lambda u, family: sum(family.values(), ()))


def speller():
    """A serialiser of terms or shapes, each node spelled from its children's
    through one memo for all its calls, so each shared subtree once.  It is
    the one walk that is not a :func:`fold`: its stack holds bare nodes, and
    each node is spelled by one Python call, of its own ``spell``, once its
    children are; a node whose children are spelled (as in a list in
    canonical order) costs no more.  It calls no other kernel function, so
    how many calls a sort makes does not hang on the order of its input."""
    memo: dict = {}
    spelled = memo.__contains__

    def spell(root) -> str:
        todo = [root]
        while todo:
            node = todo[-1]
            if node in memo:
                todo.pop()
            elif all(map(spelled, node.children)):
                memo[node] = node.spell(memo)
                todo.pop()
            else:
                todo += reversed(node.children)
        return memo[root]

    return spell


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
    return fold_term(t, mapping.__getitem__, _rebuilt)


def rename(t: Term, mapping: dict[str, str]) -> Term:
    """Generator-to-generator relabelling (a variable-to-variable action)."""
    return fold_term(t, lambda gen: var(mapping[gen]), _rebuilt)


def _rebuilt(u: Node, family: dict) -> Node:
    """``u``'s head over the values of ``family``, a fold's family for ``u``,
    which lists them in label order."""
    return node_of(u.head, tuple(family.values()))


def boundary(ctx, face: FaceRef, t: Term) -> Term:
    """The action of a non-identity face on a term.

    For a generator this is its gluing; for an application it is the symbol's
    boundary term with the argument family substituted in.
    """
    if isinstance(t, Var):
        return ctx.gluing(t.gen, face)
    return fold_term(ctx.symbol(t.symbol).boundary[face], t.child, _rebuilt)


def boundary_along(ctx, face: FaceRef, t: Term) -> Term:
    """Like :func:`boundary` but checks the face targets the term's sort."""
    f = ctx.base.face(face)
    s = term_sort(ctx, t)
    if f.dst != s:
        raise SortMismatch(f"face {face!r} targets {f.dst!r}, term has sort {s!r}")
    return boundary(ctx, face, t)


def attached(ctx, t: Term) -> tuple[Sequence[str], Sequence[Term]]:
    """The cells ``t`` is attached along and the term at each, as
    :func:`fold` reads them: a generator's faces into its sort and its
    gluings, or an application's labels and arguments."""
    if isinstance(t, Var):
        faces = ctx.base.faces_into(ctx.gen_sort(t.gen))
        return faces, [ctx.gluing(t.gen, face) for face in faces]
    return t.labels, t.children


def parts(ctx, t: Term) -> list[tuple[str, Term]]:
    """The (cell, term) pairs ``t`` is attached along (see :func:`attached`)."""
    return list(zip(*attached(ctx, t)))


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
        return u.labels, u.children

    def leave(u: Term, family) -> None:
        if isinstance(u, App):
            check_args(ctx, u.symbol, dict(zip(u.labels, u.children)))

    fold(t, enter, leave)
    sort = term_sort(ctx, t)
    if expected_sort is not None and sort != expected_sort:
        raise SortMismatch(f"term has sort {sort!r}, expected {expected_sort!r}")
    return sort
