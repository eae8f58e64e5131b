"""Algebras: carrier presheaves with interpretation functions per symbol.

An interpretation of a symbol f with output sort i is a function from
presheaf morphisms (arity of f) -> carrier to the carrier cells at i,
subject to the boundary condition: restricting the output along a face d
equals evaluating the boundary term of f at d in the same environment.

Interpretations are either extensional tables over the enumerated hom-set or
callback functions (useful for arithmetic carriers); both share the interface.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Union

from .base import FaceRef, SortRef
from .computad import Computad
from .errors import (
    BoundaryConditionFailure,
    DepthExceeded,
    PartialTable,
    SortMismatch,
)
from .monad import term_presheaf
from .presheaf import (
    Presheaf,
    PresheafMorphism,
    check_same_base,
    enumerate_hom,
    hom_families,
    search,
)
from .signature import Signature
from .terms import Term, app, fold_term


Interp = Union[dict[tuple, str], Callable[[dict[str, str]], str]]


def hom_key(assignment: dict[str, str]) -> tuple:
    return tuple(sorted(assignment.items()))


@dataclass
class Algebra:
    signature: Signature
    carrier: Presheaf
    interp: dict[str, Interp]

    def cells_at(self, sort: SortRef) -> tuple[str, ...]:
        return self.carrier.cells_at(sort)

    def act(self, face: FaceRef, cell: str) -> str:
        return self.carrier.act(face, cell)

    def interpret(self, symbol_id: str, assignment: dict[str, str]) -> str:
        table = self.interp[symbol_id]
        if callable(table):
            return table(assignment)
        return table[hom_key(assignment)]


def eval_in_env(alg, t: Term, env: dict[str, str]) -> str:
    """Evaluate a term whose generators are bound by ``env`` to carrier cells."""
    return fold_term(t, env.__getitem__, lambda u, cells: alg.interpret(u.symbol, cells))


def eval_term(alg, t: Term) -> str:
    """Evaluate a term over the free computad on the carrier: generators are
    carrier cells themselves."""
    return fold_term(t, lambda gen: gen, lambda u, cells: alg.interpret(u.symbol, cells))


def _check_boundary_conditions(alg: Algebra) -> None:
    sig = alg.signature
    for symbol_id in sorted(sig.symbols, key=lambda s: (sig.base.dim(sig.symbols[s].sort), s)):
        sym = sig.symbols[symbol_id]
        rows = enumerate_hom(sym.arity, alg.carrier)
        table = alg.interp.get(symbol_id)
        if table is None:
            raise PartialTable(f"no interpretation for symbol {symbol_id!r}")
        if not callable(table):
            missing = [r for r in rows if hom_key(r.component) not in table]
            if missing:
                raise PartialTable(
                    f"interpretation of {symbol_id!r} missing "
                    f"{len(missing)} of {len(rows)} rows"
                )
        for row in rows:
            env = row.component
            value = alg.interpret(symbol_id, env)
            if value not in alg.carrier.cells_at(sym.sort):
                raise SortMismatch(
                    f"interpretation of {symbol_id!r} lands outside sort {sym.sort!r}"
                )
            for face in sig.base.faces_into(sym.sort):
                expected = eval_in_env(alg, sym.boundary[face], env)
                if alg.carrier.act(face, value) != expected:
                    raise BoundaryConditionFailure(
                        f"interpretation of {symbol_id!r} violates its boundary "
                        f"along {face!r} on row {hom_key(env)}"
                    )


def algebra_from_interpretations(
    signature: Signature,
    carrier: Presheaf,
    tables: dict[str, dict[tuple, str]],
) -> Algebra:
    alg = Algebra(signature=signature, carrier=carrier, interp=dict(tables))
    _check_boundary_conditions(alg)
    return alg


def algebra_from_callbacks(
    signature: Signature,
    carrier: Presheaf,
    callbacks: dict[str, Callable[[dict[str, str]], str]],
) -> Algebra:
    alg = Algebra(signature=signature, carrier=carrier, interp=dict(callbacks))
    _check_boundary_conditions(alg)
    return alg


def tabulate(alg: Algebra) -> Algebra:
    """Materialise callback interpretations as extensional tables."""
    tables: dict[str, dict[tuple, str]] = {}
    for symbol_id, sym in alg.signature.symbols.items():
        rows = enumerate_hom(sym.arity, alg.carrier)
        tables[symbol_id] = {
            hom_key(r.component): alg.interpret(symbol_id, r.component) for r in rows
        }
    return Algebra(signature=alg.signature, carrier=alg.carrier, interp=tables)


# -- the free algebra on a computad ---------------------------------------------

@dataclass
class FreeAlgebra:
    """Depth-bounded view of the algebra of terms of a computad.

    Carrier cells are (encoded) terms; the interpretation of a symbol forms an
    application node, raising DepthExceeded past the bound.
    """

    computad: Computad
    depth: int
    carrier: Presheaf = field(init=False)
    encode: dict[Term, str] = field(init=False)
    decode: dict[str, Term] = field(init=False)

    def __post_init__(self):
        view = term_presheaf(self.computad, self.depth)
        self.carrier = view.presheaf
        self.encode = view.encode
        self.decode = view.decode

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
                f"term of depth {t.depth} exceeds the view bound {self.depth}"
            )
        return self.encode[t]


def free_algebra(c: Computad, max_depth: int) -> FreeAlgebra:
    return FreeAlgebra(computad=c, depth=max_depth)


# -- morphisms -------------------------------------------------------------------

@dataclass
class GeneratorEvaluation:
    """The unique extension of a boundary-compatible generator assignment to
    an evaluation of all terms in an algebra."""

    computad: Computad
    algebra: Algebra | FreeAlgebra
    assign: dict[str, str]

    def __call__(self, t: Term) -> str:
        return eval_in_env(self.algebra, t, self.assign)


def morphism_from_generators(
    c: Computad, alg, assign: dict[str, str]
) -> GeneratorEvaluation:
    """Check the boundary condition and return the induced evaluation."""
    ev = GeneratorEvaluation(computad=c, algebra=alg, assign=dict(assign))
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


def _rows(alg) -> list[tuple[str, dict[str, str], str]]:
    """``(symbol, env, value)`` for every row of every symbol's table in
    ``alg``, symbols in name order.  Every row is interpreted here, before
    any carrier map is looked at, so a depth-bounded free algebra whose
    table leaves its bound raises ``DepthExceeded`` whatever the map."""
    sig = alg.signature
    return [
        (symbol_id, row.component, alg.interpret(symbol_id, row.component))
        for symbol_id in sorted(sig.symbols)
        for row in enumerate_hom(sig.symbols[symbol_id].arity, alg.carrier)
    ]


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
    PresheafMorphism); the interpretation condition is verified on every row.
    All rows of ``src`` are interpreted first (see ``_rows``).  An error
    raised by ``dst.interpret`` propagates; rows are checked in order and
    the check stops at the first failure, so only rows up to it reach
    ``dst``.
    """
    check_same_base(src.carrier.base, dst.carrier.base, "algebra morphism")
    for row in _rows(src):
        if not _preserves(dst, row, component):
            return False, (row[0], hom_key(row[1]))
    return True, None


def algebra_morphisms(src, dst) -> list[PresheafMorphism]:
    """All presheaf morphisms between carriers that preserve every
    interpretation, in the order of ``enumerate_hom``.

    Each row ``(symbol, env, value)`` of ``src``, interpreted once up front
    (see ``_rows``), is a ``search`` constraint over the carrier cells it
    names: ``component[value] == dst.interpret(symbol, component . env)``.
    The search checks it as soon as those cells are placed, so a partial map
    that breaks a row is never extended.  An error raised by
    ``dst.interpret`` propagates from the first partial map that reaches it.
    """
    check_same_base(src.carrier.base, dst.carrier.base, "algebra morphism")
    constraints = [
        ((*row[1].values(), row[2]), functools.partial(_preserves, dst, row))
        for row in _rows(src)
    ]
    cells = hom_families(src.carrier, dst.carrier.cells_at, dst.carrier.act)
    return [
        PresheafMorphism(src=src.carrier, dst=dst.carrier, component=comp)
        for comp in search(cells, constraints=constraints)
    ]
