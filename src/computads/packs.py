"""Example packs: many-sorted universal algebra and the semi-simplicial
Kan-lift signature; cubical grids live in cubical.py and globular pasting in
globular.py."""

from __future__ import annotations

import itertools

from .base import DirectCategory, category_from_faces
from .errors import BadIndex
from .presheaf import Presheaf, boundary_representable, make_presheaf, representable
from .signature import FunctionSymbol, Signature, build_signature
from .terms import app, var


# -- many-sorted universal algebra ------------------------------------------------

def discrete_category(sorts: list[str]) -> DirectCategory:
    return category_from_faces([(s, 0) for s in sorts], [])


def discrete_signature(
    sorts: list[str], decls: list[tuple[str, str, dict[str, int]]]
) -> Signature:
    """Symbols over a discrete sort set; ``decls`` lists
    ``(symbol, output sort, {input sort: multiplicity})``."""
    cat = discrete_category(sorts)
    symbols = []
    for name, out_sort, arity_counts in decls:
        cells = {
            s: tuple(f"{name}.{s}{i}" for i in range(arity_counts.get(s, 0)))
            for s in sorts
        }
        arity = make_presheaf(cat, cells, {})
        symbols.append((name, out_sort, arity, {}))
    return build_signature(cat, symbols)


def group_signature() -> Signature:
    return discrete_signature(
        ["*"],
        [
            ("plus", "*", {"*": 2}),
            ("zero", "*", {"*": 0}),
            ("neg", "*", {"*": 1}),
        ],
    )


def module_signature() -> Signature:
    """Two sorts: ring elements R and vectors V, with the usual symbols."""
    return discrete_signature(
        ["R", "V"],
        [
            ("plusR", "R", {"R": 2}),
            ("timesR", "R", {"R": 2}),
            ("zeroR", "R", {}),
            ("oneR", "R", {}),
            ("negR", "R", {"R": 1}),
            ("plusV", "V", {"V": 2}),
            ("zeroV", "V", {}),
            ("negV", "V", {"V": 1}),
            ("scale", "V", {"R": 1, "V": 1}),
        ],
    )


# -- the semi-simplex category ------------------------------------------------------

def simplex_sort(n: int) -> str:
    return f"[{n}]"


def mono_id(image: tuple[int, ...], n: int) -> str:
    """Face id for the strictly monotone map picking ``image`` inside [n]."""
    k = len(image) - 1
    return f"d{''.join(map(str, image))}:{k}>{n}"


def delta_face(n: int, i: int) -> str:
    """The coface [n-1] -> [n] skipping i."""
    if not (0 <= i <= n and n >= 1):
        raise BadIndex(f"no coface {i} into [{n}]")
    return mono_id(tuple(j for j in range(n + 1) if j != i), n)


def delta_plus(n: int) -> DirectCategory:
    """Non-empty finite ordinals up to [n] with all strictly monotone maps,
    generated by the cofaces under the simplicial identity."""
    if n < 0:
        raise BadIndex("dimension bound must be a natural number")
    faces = [
        (mono_id(image, m), (simplex_sort(k), simplex_sort(m), (image, m)))
        for m in range(n + 1)
        for k in range(m)
        for image in itertools.combinations(range(m + 1), k + 1)
    ]
    return category_from_faces(
        [(simplex_sort(m), m) for m in range(n + 1)],
        faces,
        lambda first, second: mono_id(tuple(second[0][a] for a in first[0]), second[1]),
    )


def simplex(cat: DirectCategory, m: int) -> Presheaf:
    return representable(cat, simplex_sort(m))


def boundary_simplex(cat: DirectCategory, m: int) -> Presheaf:
    return boundary_representable(cat, simplex_sort(m))


def horn(cat: DirectCategory, m: int, k: int) -> Presheaf:
    """The boundary of the m-simplex with the k-th face removed."""
    if not (0 <= k <= m and m >= 1):
        raise BadIndex(f"no horn ({m}, {k})")
    sub = boundary_simplex(cat, m)
    removed = delta_face(m, k)
    cells = {
        s: tuple(c for c in sub.cells_at(s) if c != removed) for s in cat.sorts
    }
    action = {kv: v for kv, v in sub.action.items() if kv[1] != removed}
    return make_presheaf(cat, cells, action)


# -- the Kan-lift signature ----------------------------------------------------------

def face_symbol(k: int, m: int) -> str:
    return f"face_{k}_{m}"


def filler_symbol(k: int, m: int) -> str:
    return f"fill_{k}_{m}"


def sigma_kan(n: int) -> Signature:
    """Lift operations for every horn up to dimension ``n``: the missing face
    of a horn (sort [m-1]) and its filler (sort [m]).  Unchecked: every face
    has a term, the horn's cell there or, at the missing face, the face symbol
    on the horn, whose faces are those cells; the table gives the cocycle."""
    if n < 1:
        raise BadIndex("the Kan signature needs dimension at least 1")
    cat = delta_plus(n)
    symbols = {}
    for m in range(1, n + 1):
        for k in range(m + 1):
            arity = horn(cat, m, k)
            missing = delta_face(m, k)
            face = FunctionSymbol(face_symbol(k, m), simplex_sort(m - 1), arity, {
                delta: var(cat.compose(delta, missing))
                for delta in cat.faces_into(simplex_sort(m - 1))
            })
            identity_args = {c: var(c) for cs in arity.cells.values() for c in cs}
            fill = FunctionSymbol(filler_symbol(k, m), simplex_sort(m), arity, {
                delta: app(face.id, identity_args) if delta == missing else var(delta)
                for delta in cat.faces_into(simplex_sort(m))
            })
            symbols.update({face.id: face, fill.id: fill})
    return Signature(base=cat, symbols=symbols)
