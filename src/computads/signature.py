"""Sorted signatures: function symbols with arities and boundary terms.

A symbol of output sort i carries an arity presheaf (cells of dimension at
most dim i) and, for every non-identity face d : j -> i, a boundary term of
sort j over the free computad on the arity.  Boundary terms must satisfy the
cocycle: restricting the d-boundary term along d' yields the (d.d')-boundary
term.  Validation is stratified by output dimension, so boundary terms only
ever reference lower-dimensional symbols.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

from .base import (
    DirectCategory,
    FaceRef,
    SortRef,
    category_to_json,
    json_object,
    json_objects,
    truncate_category,
    validate_category,
)
from .errors import (
    ArityDimensionViolation,
    BoundaryIllTyped,
    CocycleFailure,
    IncompatibleArgs,
    SortMismatch,
    UnknownGenerator,
    UnknownSymbol,
)
from .presheaf import (
    Presheaf,
    boundary_representable,
    cells_to_json,
    truncate_presheaf,
    validate_presheaf,
)
from .terms import (
    Term,
    app,
    boundary,
    check_family,
    check_term,
    fold,
    fold_term,
    var,
)


@dataclass(frozen=True)
class FunctionSymbol:
    id: str
    sort: SortRef
    arity: Presheaf
    boundary: dict[FaceRef, Term]  # total over non-identity faces into sort


@dataclass
class Signature:
    base: DirectCategory
    symbols: dict[str, FunctionSymbol]

    def symbol(self, symbol_id: str) -> FunctionSymbol:
        if symbol_id not in self.symbols:
            raise UnknownSymbol(f"unknown function symbol {symbol_id!r}")
        return self.symbols[symbol_id]

    def symbols_at(self, sort: SortRef) -> tuple[FunctionSymbol, ...]:
        return tuple(
            self.symbols[s]
            for s in sorted(self.symbols)
            if self.symbols[s].sort == sort
        )


COCYCLE_NOTE = (
    "convention: restricting the boundary term at a face d along a further "
    "face d' must equal the boundary term at the composite d.d'"
)


def complete_boundary(
    cat: DirectCategory,
    sort: SortRef,
    given: dict[FaceRef, Term],
    ctx,
) -> dict[FaceRef, Term]:
    """``given`` with the boundary terms it determines on composite faces,
    each derived by restriction over ``ctx``, the free computad on the arity.

    Unchecked: ``given`` may cover only a generating set of faces, so
    :func:`check_declaration` checks that the result covers every face and
    satisfies the cocycle.
    """
    sphere = boundary_representable(cat, sort)
    terms = dict(given)
    for j in reversed(cat.sorts):  # a face's term is final before it is restricted
        for second in sphere.cells_at(j):
            if second not in terms:
                continue
            for first in cat.faces_into(j):
                composite = sphere.act(first, second)
                if composite not in terms:
                    terms[composite] = boundary(ctx, first, terms[second])
    return terms


Declaration = tuple[str, SortRef, Presheaf, dict[FaceRef, Term]]  # (id, sort, arity, boundary)


def build_signature(cat: DirectCategory, symbols: list[Declaration]) -> Signature:
    """Assemble and validate a signature from ``(id, sort, arity, boundary)``
    declarations, which may arrive in any order: sorted by output dimension
    then id, each is checked once by :func:`check_declaration` against the
    symbols before it, and added to one signature."""
    sig = Signature(base=cat, symbols={})
    for decl in sorted(symbols, key=lambda s: (cat.dim(s[1]), s[0])):
        sig.symbols[decl[0]] = check_declaration(sig, decl)
    return sig


def extend_signature(lower: Signature, decl: Declaration) -> Signature:
    """``lower`` with one more ``(id, sort, arity, boundary)`` declaration,
    checked once by :func:`check_declaration`; ``lower`` is not checked again."""
    symbol = check_declaration(lower, decl)
    return Signature(base=lower.base, symbols={**lower.symbols, symbol.id: symbol})


def check_declaration(lower: Signature, decl: Declaration) -> FunctionSymbol:
    """The symbol of one ``(id, sort, arity, boundary)`` declaration, checked
    against the symbols of ``lower``: the one check of a declaration.  Its
    boundary terms are checked over the free computad on the arity."""
    from .computad import free_computad  # computad imports this module

    symbol_id, sort, arity, given = decl
    cat = lower.base
    if symbol_id in lower.symbols:
        raise UnknownSymbol(f"duplicate symbol id {symbol_id!r}")
    d = cat.dim(sort)
    for s in arity.base.sorts:
        if arity.cells_at(s) and arity.base.dim(s) > d:
            raise ArityDimensionViolation(
                f"symbol {symbol_id!r}: arity has cells at {s!r} above dimension {d}"
            )
    ctx = free_computad(arity, lower)
    for face, t in given.items():
        f = cat.face(face)
        if f.dst != sort:
            raise BoundaryIllTyped(
                f"symbol {symbol_id!r}: boundary given at face {face!r} "
                f"not targeting {sort!r}"
            )
        try:
            check_term(ctx, t, expected_sort=f.src)
        except (UnknownSymbol, SortMismatch, IncompatibleArgs, UnknownGenerator) as exc:
            raise BoundaryIllTyped(f"symbol {symbol_id!r}: {exc}") from exc
    terms = complete_boundary(cat, sort, given, ctx)
    missing = [f for f in cat.faces_into(sort) if f not in terms]
    if missing:
        raise BoundaryIllTyped(f"no boundary term given or derivable at faces {missing}")
    try:
        check_family(ctx, boundary_representable(cat, sort), terms, "boundary terms")
    except IncompatibleArgs as exc:
        raise CocycleFailure(f"{exc} ({COCYCLE_NOTE})") from exc
    return FunctionSymbol(symbol_id, sort, arity, terms)


def restrict_signature(sig: Signature, n: int) -> Signature:
    """Drop every symbol of output dimension above ``n`` (and the sorts)."""
    cat = truncate_category(sig.base, n)
    out = Signature(base=cat, symbols={})
    for symbol_id in sorted(sig.symbols):
        sym = sig.symbols[symbol_id]
        if sig.base.dim(sym.sort) > n:
            continue
        arity = truncate_presheaf(sym.arity, n)
        out.symbols[symbol_id] = FunctionSymbol(
            symbol_id, sym.sort, arity, dict(sym.boundary)
        )
    return out


# -- JSON ----------------------------------------------------------------------

def fold_document(raw, children, build):
    """:func:`terms.fold` over a JSON document, whose objects cannot be
    hashed: each is keyed by its ``id`` while the document holds it.
    ``children(obj)`` lists ``(label, child object)`` pairs and
    ``build(obj, family)`` makes the node of ``obj``."""
    objects = {id(raw): raw}

    def below(key: int) -> tuple[list[str], list[int]]:
        family = children(objects[key])
        objects.update((id(child), child) for _, child in family)
        return [label for label, _ in family], [id(child) for _, child in family]

    return fold(id(raw), below, lambda key, family: build(objects[key], family))


def _term_args(obj) -> list[tuple[str, dict]]:
    if "var" in json_object(obj, BoundaryIllTyped, "a term"):
        json_object(obj, BoundaryIllTyped, "a term", {"var": str})
        return []
    json_object(obj, BoundaryIllTyped, "a term", {"app": object})
    body = json_object(obj["app"], BoundaryIllTyped, "an application", {"symbol": str})
    fields = {"cell": str, "term": object}
    args = json_objects(body, "args", BoundaryIllTyped, fields, itemgetter("cell"))
    return [(e["cell"], e["term"]) for e in args]


def term_from_json(obj: dict) -> Term:
    def build(raw: dict, family) -> Term:
        return var(raw["var"]) if "var" in raw else app(raw["app"]["symbol"], family)

    return fold_document(obj, _term_args, build)


def term_to_json(t: Term) -> dict:
    def node(u, family) -> dict:
        args = [{"cell": c, "term": v} for c, v in family.items()]
        return {"app": {"symbol": u.symbol, "args": args}}

    return fold_term(t, lambda gen: {"var": gen}, node)


def validate_signature(raw: dict) -> Signature:
    """Validate the JSON shape ``{category, symbols: [{id, sort, arity,
    boundary: [{face, term}]}]}``."""
    json_object(raw, UnknownSymbol, "a signature", {"category": object})
    cat = validate_category(raw["category"])
    decls = []
    fields = {"id": str, "sort": str, "arity": object}
    boundary, by_face = {"face": str, "term": object}, itemgetter("face")
    for entry in json_objects(raw, "symbols", UnknownSymbol, fields):
        arity = validate_presheaf(entry["arity"], base=cat)
        given = {
            b["face"]: term_from_json(b["term"])
            for b in json_objects(entry, "boundary", BoundaryIllTyped, boundary, by_face)
        }
        decls.append((entry["id"], entry["sort"], arity, given))
    return build_signature(cat, decls)


def signature_to_json(sig: Signature) -> dict:
    out_symbols = []
    for symbol_id in sorted(
        sig.symbols, key=lambda s: (sig.base.dim(sig.symbols[s].sort), s)
    ):
        sym = sig.symbols[symbol_id]
        out_symbols.append(
            {
                "id": sym.id,
                "sort": sym.sort,
                "arity": cells_to_json(sym.arity),
                "boundary": [
                    {"face": f, "term": term_to_json(t)}
                    for f, t in sorted(sym.boundary.items())
                ],
            }
        )
    return {"category": category_to_json(sig.base), "symbols": out_symbols}
