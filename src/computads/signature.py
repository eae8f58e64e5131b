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

from .base import DirectCategory, FaceRef, SortRef, truncate_category
from .errors import (
    ArityDimensionViolation,
    BoundaryIllTyped,
    CocycleFailure,
    IncompatibleArgs,
    SortMismatch,
    UnknownGenerator,
    UnknownSort,
    UnknownSymbol,
)
from .presheaf import Presheaf, truncate_presheaf, validate_presheaf
from .terms import Term, Var, boundary, check_term


@dataclass(frozen=True)
class FunctionSymbol:
    id: str
    sort: SortRef
    arity: Presheaf
    boundary: dict[FaceRef, Term]  # total over non-identity faces into sort

    def __hash__(self):
        return hash(self.id)


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

    def dimension(self) -> int:
        return self.base.dimension()

    def __eq__(self, other) -> bool:
        if not isinstance(other, Signature):
            return NotImplemented
        return (
            self.base.dims == other.base.dims
            and self.base.faces == other.base.faces
            and self.base.table == other.base.table
            and self.symbols == other.symbols
        )


class ArityContext:
    """Term context over the free computad on an arity presheaf.

    Generators are the arity cells and their gluings are variables again, so
    boundary terms of a symbol can be validated before any computad exists.
    """

    def __init__(self, arity: Presheaf, signature: Signature):
        self.arity = arity
        self.signature = signature
        self.base = signature.base

    def gen_sort(self, gen: str) -> SortRef:
        try:
            return self.arity.sort_of(gen)
        except KeyError:
            raise UnknownGenerator(f"unknown arity cell {gen!r}") from None

    def gluing(self, gen: str, face: FaceRef) -> Term:
        return Var(self.arity.act(face, gen))

    def symbol(self, symbol_id: str) -> FunctionSymbol:
        return self.signature.symbol(symbol_id)


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
    """Derive boundary terms on composite faces and check the full cocycle.

    ``given`` may cover only a generating set of faces; the rest is filled in
    by restriction.  Raises BoundaryIllTyped when some face stays uncovered
    and CocycleFailure when the completed table is inconsistent.
    """
    terms = dict(given)
    changed = True
    while changed:
        changed = False
        for second in cat.faces_into(sort):
            if second not in terms:
                continue
            j = cat.face(second).src
            for first in cat.faces_into(j):
                composite = cat.compose(first, second)
                if composite not in terms:
                    terms[composite] = boundary(ctx, first, terms[second])
                    changed = True
    missing = [f for f in cat.faces_into(sort) if f not in terms]
    if missing:
        raise BoundaryIllTyped(
            f"no boundary term given or derivable at faces {missing}"
        )
    for second in cat.faces_into(sort):
        j = cat.face(second).src
        for first in cat.faces_into(j):
            composite = cat.compose(first, second)
            if boundary(ctx, first, terms[second]) != terms[composite]:
                raise CocycleFailure(
                    f"boundary terms at {second!r} and {composite!r} disagree "
                    f"({COCYCLE_NOTE})"
                )
    return terms


def build_signature(
    cat: DirectCategory,
    symbols: list[tuple[str, SortRef, Presheaf, dict[FaceRef, Term]]],
) -> Signature:
    """Assemble and validate a signature from ``(id, sort, arity, boundary)``
    declarations; declarations may arrive in any order."""
    sig = Signature(base=cat, symbols={})
    ordered = sorted(symbols, key=lambda s: (cat.dim(s[1]), s[0]))
    for symbol_id, sort, arity, given in ordered:
        if symbol_id in sig.symbols:
            raise UnknownSymbol(f"duplicate symbol id {symbol_id!r}")
        if sort not in cat.dims:
            raise UnknownSort(f"symbol {symbol_id!r} has unknown sort {sort!r}")
        d = cat.dim(sort)
        for s in arity.base.sorts:
            if arity.cells_at(s) and arity.base.dim(s) > d:
                raise ArityDimensionViolation(
                    f"symbol {symbol_id!r}: arity has cells at {s!r} above "
                    f"dimension {d}"
                )
        ctx = ArityContext(arity, sig)
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
        full = complete_boundary(cat, sort, given, ctx)
        sig.symbols[symbol_id] = FunctionSymbol(symbol_id, sort, arity, full)
    return sig


def extend_signature(
    lower: Signature, decl: tuple[str, SortRef, Presheaf, dict[FaceRef, Term]]
) -> Signature:
    """``lower`` with one more ``(id, sort, arity, boundary)`` declaration."""
    decls = [(s.id, s.sort, s.arity, dict(s.boundary)) for s in lower.symbols.values()]
    return build_signature(lower.base, decls + [decl])


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

def term_from_json(obj: dict) -> Term:
    from .terms import app

    if "var" in obj:
        return Var(obj["var"])
    if "app" in obj:
        body = obj["app"]
        args = {e["cell"]: term_from_json(e["term"]) for e in body.get("args", [])}
        return app(body["symbol"], args)
    raise BoundaryIllTyped(f"not a term: {obj!r}")


def term_to_json(t: Term) -> dict:
    from .terms import App

    if isinstance(t, Var):
        return {"var": t.gen}
    assert isinstance(t, App)
    return {
        "app": {
            "symbol": t.symbol,
            "args": [{"cell": c, "term": term_to_json(u)} for c, u in t.args],
        }
    }


def validate_signature(raw: dict, cat: DirectCategory | None = None) -> Signature:
    """Validate the JSON shape ``{category, symbols: [{id, sort, arity,
    boundary: [{face, term}]}]}``."""
    from .base import validate_category

    if cat is None:
        cat = validate_category(raw["category"])
    decls = []
    for entry in raw.get("symbols", []):
        arity_raw = dict(entry["arity"])
        arity = validate_presheaf(arity_raw, base=cat)
        given = {
            b["face"]: term_from_json(b["term"]) for b in entry.get("boundary", [])
        }
        decls.append((entry["id"], entry["sort"], arity, given))
    return build_signature(cat, decls)


def signature_to_json(sig: Signature) -> dict:
    from .base import category_to_json
    from .presheaf import presheaf_to_json

    out_symbols = []
    for symbol_id in sorted(
        sig.symbols, key=lambda s: (sig.base.dim(sig.symbols[s].sort), s)
    ):
        sym = sig.symbols[symbol_id]
        arity_json = presheaf_to_json(sym.arity)
        del arity_json["category"]
        out_symbols.append(
            {
                "id": sym.id,
                "sort": sym.sort,
                "arity": arity_json,
                "boundary": [
                    {"face": f, "term": term_to_json(t)}
                    for f, t in sorted(sym.boundary.items())
                ],
            }
        )
    return {"category": category_to_json(sig.base), "symbols": out_symbols}
