"""The inductive term language.

A term over a computad C is either a generator ``Var(v)`` or a formal
application ``App(f, args)`` of a function symbol to a family of lower terms
indexed by the cells of the symbol's arity.  Terms are pure syntax: equality
is structural, and well-formedness is always relative to a *context* that can
resolve generators and symbols.

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
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

from .base import FaceRef, SortRef
from .errors import IncompatibleArgs, SortMismatch
from .presheaf import Presheaf


class Term:
    """Base class for Var and App; never instantiated directly."""

    __slots__ = ()
    depth: int


@dataclass(frozen=True, slots=True)
class Var(Term):
    gen: str
    depth: int = field(default=0, compare=False)


@dataclass(frozen=True, slots=True)
class App(Term):
    """An application; build it with :func:`app`, which fills in ``depth``
    and ``hash``."""

    symbol: str
    args: tuple[tuple[str, "Term"], ...]  # (arity cell, term), sorted by cell
    depth: int = field(default=0, compare=False)
    # Computed once from the children's hashes, so hashing costs O(1) however
    # deep the term is (the generated hash would walk the whole tree).
    hash: int = field(default=0, compare=False, repr=False)

    def __hash__(self) -> int:
        return self.hash

    def arg_map(self) -> dict[str, Term]:
        return dict(self.args)


def var(gen: str) -> Var:
    return Var(gen)


def app(symbol: str, args: dict[str, Term]) -> App:
    items = tuple(sorted(args.items()))
    d = 1 + max((t.depth for _, t in items), default=0)
    return App(symbol, items, depth=d, hash=hash((symbol, items)))


def _spell(t: Term, memo: dict[int, str]) -> str:
    """The serialisation of ``t``, built from its children's spellings.
    ``memo`` keeps the spelling of every proper subterm met, keyed by ``id``,
    so it is valid only while its owner holds the terms it was filled from."""
    if isinstance(t, Var):
        return f"v({t.gen})"
    parts = []
    for c, u in t.args:
        s = memo.get(id(u))
        if s is None:
            s = memo[id(u)] = _spell(u, memo)
        parts.append(f"{c}={s}")
    return f"{t.symbol}[{','.join(parts)}]"


def serialize(t: Term) -> str:
    return _spell(t, {})


def canonical_sort(ts: Iterable[Term]) -> tuple[list[Term], list[str]]:
    """``ts`` in canonical order (by depth, then serialisation), with their
    serialisations in the same order.

    Enumerated terms share their subterms, so one memo for the whole sort
    spells each shared subterm once, where a per-term ``serialize`` key would
    spell it again for each term containing it.
    """
    ts = list(ts)
    memo: dict[int, str] = {}
    # The index breaks ties, so terms themselves are never compared.
    keyed = [(t.depth, _spell(t, memo), i) for i, t in enumerate(ts)]
    keyed.sort()
    return [ts[i] for _, _, i in keyed], [s for _, s, _ in keyed]


def term_sort(ctx, t: Term) -> SortRef:
    if isinstance(t, Var):
        return ctx.gen_sort(t.gen)
    return ctx.symbol(t.symbol).sort


def subst(t: Term, mapping: dict[str, Term]) -> Term:
    """Replace every generator leaf through ``mapping``.

    This is simultaneously substitution of an argument family into a boundary
    term and the action of a computad morphism on a term.
    """
    if isinstance(t, Var):
        return mapping[t.gen]
    assert isinstance(t, App)
    return app(t.symbol, {c: subst(u, mapping) for c, u in t.args})


def rename(t: Term, mapping: dict[str, str]) -> Term:
    """Generator-to-generator relabelling (a variable-to-variable action)."""
    if isinstance(t, Var):
        return Var(mapping[t.gen])
    assert isinstance(t, App)
    return app(t.symbol, {c: rename(u, mapping) for c, u in t.args})


def boundary(ctx, face: FaceRef, t: Term) -> Term:
    """The action of a non-identity face on a term.

    For a generator this is its gluing; for an application it is the symbol's
    boundary term with the argument family substituted in.
    """
    if isinstance(t, Var):
        return ctx.gluing(t.gen, face)
    assert isinstance(t, App)
    sym = ctx.symbol(t.symbol)
    return subst(sym.boundary[face], t.arg_map())


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
    """Recursively validate a term over ``ctx``; returns its sort."""
    sort = term_sort(ctx, t)  # raises UnknownGenerator or UnknownSymbol
    if isinstance(t, App):
        for _, u in t.args:
            check_term(ctx, u)
        check_args(ctx, t.symbol, t.arg_map())
    if expected_sort is not None and sort != expected_sort:
        raise SortMismatch(f"term has sort {sort!r}, expected {expected_sort!r}")
    return sort


def mk_var(ctx, gen: str) -> Var:
    ctx.gen_sort(gen)
    return Var(gen)


def mk_app(ctx, symbol_id: str, args: dict[str, Term]) -> App:
    check_args(ctx, symbol_id, args)
    return app(symbol_id, args)
