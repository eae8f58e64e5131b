"""Algebras: carrier presheaves with an interpretation function per symbol.

An interpretation of a symbol f with output sort i is a function from
presheaf morphisms (arity of f) -> carrier to the carrier cells at i,
subject to the boundary condition: restricting the output along a face d
equals evaluating the boundary term of f at d in the same environment.

An algebra holds one callable per symbol; an extensional table is read
through a lookup, and the free algebra on a computad is its term presheaf
(``monad.FreeAlgebra``).  An algebra is never changed after it is built, so
the rows of each symbol are enumerated and interpreted once (``rows``).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

from .base import FaceRef, SortRef, check_same_base, memo_table, memoized
from .computad import Computad
from .errors import BoundaryConditionFailure, PartialTable, SortMismatch, UnknownGenerator
from .monad import term_presheaf
from .presheaf import (
    Presheaf,
    PresheafMorphism,
    enumerate_hom,
    hom_key,
    homs,
)
from .signature import Signature
from .terms import Term, fold_term


@dataclass
class Algebra:
    signature: Signature
    carrier: Presheaf
    interp: dict[str, Callable[[dict[str, str]], str]]

    def cells_at(self, sort: SortRef) -> tuple[str, ...]:
        return self.carrier.cells_at(sort)

    def act(self, face: FaceRef, cell: str) -> str:
        return self.carrier.act(face, cell)

    def interpret(self, symbol_id: str, assignment: dict[str, str]) -> str:
        return self.interp[symbol_id](assignment)


free_algebra = term_presheaf
"""The free algebra on a computad, up to a depth, is its term presheaf."""


def eval_in_env(alg, t: Term, env: dict[str, str]) -> str:
    """Evaluate a term whose generators are bound by ``env`` to carrier cells."""
    return fold_term(t, env.__getitem__, lambda u, cells: alg.interpret(u.symbol, cells))


def eval_term(alg, t: Term) -> str:
    """Evaluate a term over the free computad on the carrier: generators are
    carrier cells themselves.  The value of every subterm is kept in the
    algebra's ``_value_cache``."""
    return fold_term(
        t,
        lambda gen: gen,
        lambda u, cells: alg.interpret(u.symbol, cells),
        memo_table(alg, "_value_cache"),
    )


@memoized("_rows")
def rows(alg) -> list[tuple[str, dict[str, str], str]]:
    """``(symbol, env, value)`` for every row of every symbol of ``alg``:
    ``env`` a presheaf morphism from the symbol's arity into the carrier and
    ``value`` its interpretation.  Symbols go by the dimension of their sort,
    then by id (so a boundary term only applies symbols before it), and each
    symbol's rows in the order of ``enumerate_hom``.  Every row is
    interpreted here, so a depth-bounded free algebra with a row past its
    bound raises ``DepthExceeded`` before any carrier map is looked at."""
    sig = alg.signature
    return [
        (s, h.component, alg.interpret(s, h.component))
        for s in sorted(sig.symbols, key=lambda s: (sig.base.dim(sig.symbols[s].sort), s))
        for h in enumerate_hom(sig.symbols[s].arity, alg.carrier)
    ]


def algebra_from_callbacks(
    signature: Signature,
    carrier: Presheaf,
    callbacks: dict[str, Callable[[dict[str, str]], str]],
) -> Algebra:
    """The algebra interpreting each symbol by its callback, once the
    carrier is checked to lie over the signature's category, every symbol to
    have a callback, and every row (in the order of ``rows``) to land in its
    symbol's sort and to meet the symbol's boundary terms."""
    check_same_base(carrier.base, signature.base, "algebra")
    missing = sorted(signature.symbols.keys() - callbacks.keys())
    if missing:
        raise PartialTable(f"no interpretation for symbols {missing}")
    alg = Algebra(signature=signature, carrier=carrier, interp=dict(callbacks))
    for symbol_id, env, value in rows(alg):
        sym = signature.symbols[symbol_id]
        if value not in carrier.cells_at(sym.sort):
            raise SortMismatch(
                f"interpretation of {symbol_id!r} lands outside sort {sym.sort!r}"
            )
        for face in signature.base.faces_into(sym.sort):
            if carrier.act(face, value) != eval_in_env(alg, sym.boundary[face], env):
                raise BoundaryConditionFailure(
                    f"interpretation of {symbol_id!r} violates its boundary "
                    f"along {face!r} on row {hom_key(env)}"
                )
    return alg


def _row(symbol_id: str, table: dict[tuple, str], env: dict[str, str]) -> str:
    """The value of ``env`` in the table interpreting ``symbol_id``."""
    try:
        return table[hom_key(env)]
    except KeyError:
        raise PartialTable(f"table of {symbol_id!r} has no row {hom_key(env)}") from None


def algebra_from_interpretations(
    signature: Signature,
    carrier: Presheaf,
    tables: dict[str, dict[tuple, str]],
) -> Algebra:
    """The algebra reading each symbol from its table of rows, keyed by
    ``hom_key``; a missing row raises ``PartialTable``."""
    lookups = {s: functools.partial(_row, s, table) for s, table in tables.items()}
    return algebra_from_callbacks(signature, carrier, lookups)


def tabulate(alg) -> Algebra:
    """``alg`` with each interpretation read from a table of its rows;
    unchecked, as the rows are those of ``alg``."""
    tables = {s: {} for s in alg.signature.symbols}
    for symbol_id, env, value in rows(alg):
        tables[symbol_id][hom_key(env)] = value
    lookups = {s: functools.partial(_row, s, table) for s, table in tables.items()}
    return Algebra(signature=alg.signature, carrier=alg.carrier, interp=lookups)


# -- morphisms -------------------------------------------------------------------

def morphism_from_generators(
    c: Computad, alg, assign: dict[str, str]
) -> Callable[[Term], str]:
    """Check the boundary condition and return the induced evaluation: the
    unique extension of a boundary-compatible generator assignment to an
    evaluation of all terms in an algebra over the computad's signature."""
    check_same_base(c.signature, alg.signature, "evaluation")
    extra = sorted(assign.keys() - c._gen_sort.keys())
    if extra:
        raise UnknownGenerator(f"value assigned to {extra[0]!r}, not a generator")
    ev = functools.partial(eval_in_env, alg, env=dict(assign))
    for sort, gen in c.all_generators():
        if gen not in assign:
            raise PartialTable(f"no value assigned to generator {gen!r}")
        value = assign[gen]
        if value not in alg.cells_at(sort):
            raise SortMismatch(
                f"generator {gen!r} of sort {sort!r} assigned to a foreign cell"
            )
        for face in c.base.faces_into(sort):
            if alg.act(face, value) != ev(c.gluing(gen, face)):
                raise BoundaryConditionFailure(
                    f"assignment of {gen!r} breaks its gluing along {face!r}"
                )
    return ev


def _preserves(dst, row: tuple, component: dict[str, str]) -> bool:
    """Whether ``component`` commutes with the interpretations on ``row``."""
    symbol_id, env, value = row
    return component[value] == dst.interpret(
        symbol_id, {c: component[v] for c, v in env.items()}
    )


def check_algebra_morphism(
    src, dst, component: dict[str, str]
) -> tuple[bool, tuple[str, tuple] | None]:
    """Check a carrier map for compatibility with all interpretations.

    Returns (True, None) or (False, (symbol, row key)) for the first failure.
    Naturality of the carrier map is assumed checked by the caller (it is a
    PresheafMorphism); the interpretation condition is verified on every row
    of ``rows(src)``, built once per source.  An error raised by
    ``dst.interpret`` propagates; rows are checked in order and the check
    stops at the first failure, so only rows up to it reach ``dst``.
    """
    check_same_base(src.signature, dst.signature, "algebra morphism")
    for row in rows(src):
        if not _preserves(dst, row, component):
            return False, (row[0], hom_key(row[1]))
    return True, None


def algebra_morphisms(src, dst) -> list[PresheafMorphism]:
    """All presheaf morphisms between carriers that preserve every
    interpretation, in the order of ``enumerate_hom``.

    Each row ``(symbol, env, value)`` of ``rows(src)`` is a ``homs``
    constraint over the carrier cells it names:
    ``component[value] == dst.interpret(symbol, component . env)``.
    The search checks it as soon as those cells are placed, so a partial map
    that breaks a row is never extended.  An error raised by
    ``dst.interpret`` propagates from the first partial map that reaches it.
    """
    check_same_base(src.signature, dst.signature, "algebra morphism")
    constraints = [
        ((*row[1].values(), row[2]), functools.partial(_preserves, dst, row))
        for row in rows(src)
    ]
    return [
        PresheafMorphism(src=src.carrier, dst=dst.carrier, component=comp)
        for comp in homs(src.carrier, dst.carrier.cells_at, dst.carrier.spine, constraints)
    ]
