"""Finite presheaves on a direct category, their morphisms, and the one
backtracking search kernel behind every hom and family enumeration."""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

from .base import (
    DirectCategory,
    FaceRef,
    SortRef,
    json_objects,
    memoized,
    truncate_category,
)
from .errors import (
    BaseMismatch,
    FunctorialityFailure,
    MissingAction,
    UnknownSort,
)


@dataclass
class Presheaf:
    """A finite presheaf: cells per sort and a boundary action per face.

    ``action[(face, cell)]`` is the value of the contravariant action of
    ``face : j -> i`` on a cell over ``i``; it is a cell over ``j``.
    Cell ids are unique across sorts so that actions can name cells bare.
    """

    base: DirectCategory
    cells: dict[SortRef, tuple[str, ...]]
    action: dict[tuple[FaceRef, str], str]
    _sort_of: dict[str, SortRef] = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if not self._sort_of:
            self._sort_of = {
                c: s for s, cs in self.cells.items() for c in cs
            }

    def cells_at(self, sort: SortRef) -> tuple[str, ...]:
        if sort not in self.base.dims:
            raise UnknownSort(f"unknown sort {sort!r}")
        return self.cells.get(sort, ())

    def sort_of(self, cell: str) -> SortRef:
        return self._sort_of[cell]

    def act(self, face: FaceRef, cell: str) -> str:
        return self.action[(face, cell)]

    def is_empty(self) -> bool:
        return all(not cs for cs in self.cells.values())

    def size(self) -> dict[SortRef, int]:
        return {s: len(self.cells_at(s)) for s in self.base.sorts}


@dataclass
class PresheafMorphism:
    src: Presheaf
    dst: Presheaf
    component: dict[str, str]  # cell of src -> cell of dst, preserving sorts

    def __call__(self, cell: str) -> str:
        return self.component[cell]

    def key(self) -> tuple:
        return tuple(sorted(self.component.items()))


def _check_functorial(p: Presheaf) -> None:
    for sort in p.base.sorts:
        for cell in p.cells_at(sort):
            for face in p.base.faces_into(sort):
                if (face, cell) not in p.action:
                    raise MissingAction(f"action of {face!r} undefined on {cell!r}")
                image = p.action[(face, cell)]
                j = p.base.face(face).src
                if image not in p.cells.get(j, ()):
                    raise FunctorialityFailure(
                        f"action of {face!r} sends {cell!r} outside the {j!r}-cells"
                    )
    for (second, first) in (
        pair for s in p.base.sorts for pair in p.base.composable_into(s)
    ):
        comp = p.base.compose(first, second)
        for cell in p.cells_at(p.base.face(second).dst):
            if p.act(first, p.act(second, cell)) != p.act(comp, cell):
                raise FunctorialityFailure(
                    f"action violates {first!r};{second!r} = {comp!r} on {cell!r}"
                )


def make_presheaf(
    base: DirectCategory,
    cells: dict[SortRef, tuple[str, ...]],
    action: dict[tuple[FaceRef, str], str],
) -> Presheaf:
    """Build and check a presheaf; cell ids must be globally unique."""
    full_cells = {s: tuple(cells.get(s, ())) for s in base.sorts}
    seen: set[str] = set()
    for cs in full_cells.values():
        for c in cs:
            if c in seen:
                raise FunctorialityFailure(f"duplicate cell id {c!r}")
            seen.add(c)
    extra = {k for k in action if k[1] not in seen}
    if extra:
        raise MissingAction(f"action on undeclared cells: {sorted(extra)[:3]}")
    p = Presheaf(base=base, cells=full_cells, action=dict(action))
    _check_functorial(p)
    return p


def validate_presheaf(raw: dict, base: DirectCategory | None = None) -> Presheaf:
    """Validate the JSON shape ``{category, cells: {sort: [ids]}, action:
    [{face, from, to}]}``; ``base`` overrides the embedded category."""
    from .base import validate_category

    if base is None:
        base = validate_category(raw["category"])
    cells = raw.get("cells", {})
    if not isinstance(cells, dict):
        raise FunctorialityFailure(f"cells must be an object of id lists: {cells!r}")
    for s, ids in cells.items():
        if s not in base.dims:
            raise UnknownSort(f"cells listed at unknown sort {s!r}")
        if not isinstance(ids, list) or not all(isinstance(c, str) for c in ids):
            raise FunctorialityFailure(f"cells at {s!r} must be a list of ids: {ids!r}")
    action = {}
    for entry in json_objects(raw, "action", FunctorialityFailure):
        action[(entry["face"], entry["from"])] = entry["to"]
    return make_presheaf(base, cells, action)


def presheaf_to_json(p: Presheaf) -> dict:
    from .base import category_to_json

    return {
        "category": category_to_json(p.base),
        "cells": {s: list(p.cells_at(s)) for s in p.base.sorts if p.cells_at(s)},
        "action": [
            {"face": f, "from": c, "to": v}
            for (f, c), v in sorted(p.action.items())
        ],
    }


# -- representables -----------------------------------------------------------

def _identity_cell(cat: DirectCategory, sort: SortRef) -> str:
    return f"id_{sort}"


@memoized("_representable_cache")
def representable(cat: DirectCategory, sort: SortRef) -> Presheaf:
    """The presheaf of maps into ``sort``: cells at j are hom(j, sort).
    Built once per category and sort."""
    if sort not in cat.dims:
        raise UnknownSort(f"unknown sort {sort!r}")
    ident = _identity_cell(cat, sort)
    cells: dict[str, tuple[str, ...]] = {s: () for s in cat.sorts}
    cells[sort] = (ident,)
    for f in cat.faces_into(sort):
        j = cat.face(f).src
        cells[j] = cells[j] + (f,)
    cells = {s: tuple(sorted(cs)) for s, cs in cells.items()}
    action: dict[tuple[str, str], str] = {}
    for s in cat.sorts:
        for cell in cells[s]:
            for face in cat.faces_into(s):
                # Precomposition; acting on the identity yields the face itself.
                action[(face, cell)] = (
                    face if cell == ident else cat.compose(face, cell)
                )
    return make_presheaf(cat, cells, action)


@memoized("_boundary_representable_cache")
def boundary_representable(
    cat: DirectCategory, sort: SortRef
) -> tuple[Presheaf, PresheafMorphism]:
    """The sub-presheaf of ``representable(sort)`` without the identity,
    together with its inclusion.  Built once per category and sort."""
    full = representable(cat, sort)
    ident = _identity_cell(cat, sort)
    cells = {
        s: tuple(c for c in full.cells_at(s) if c != ident) for s in cat.sorts
    }
    action = {
        k: v for k, v in full.action.items() if k[1] != ident
    }
    sub = make_presheaf(cat, cells, action)
    incl = PresheafMorphism(
        src=sub, dst=full, component={c: c for cs in cells.values() for c in cs}
    )
    return sub, incl


# -- morphisms ----------------------------------------------------------------

def check_same_base(x: DirectCategory, y: DirectCategory, what: str) -> None:
    """Raise ``BaseMismatch`` unless ``x`` and ``y`` have the same sorts,
    dimensions and faces."""
    if x is not y and (x.dims != y.dims or x.faces.keys() != y.faces.keys()):
        raise BaseMismatch(f"{what} across different bases")


def check_morphism(h: PresheafMorphism) -> None:
    """Raise if ``h`` is not a natural transformation."""
    check_same_base(h.src.base, h.dst.base, "presheaf morphism")
    for sort in h.src.base.sorts:
        for cell in h.src.cells_at(sort):
            img = h.component.get(cell)
            if img is None:
                raise MissingAction(f"morphism undefined on cell {cell!r}")
            if img not in h.dst.cells_at(sort):
                raise FunctorialityFailure(
                    f"morphism sends {cell!r} outside the {sort!r}-cells"
                )
            for face in h.src.base.faces_into(sort):
                if h.component[h.src.act(face, cell)] != h.dst.act(face, img):
                    raise FunctorialityFailure(
                        f"naturality fails at {cell!r} along {face!r}"
                    )


_HOLDS = {True: (True,)}


def search(
    cells: list[tuple], injective: bool = False, constraints=()
) -> Iterator[dict]:
    """Yield every assignment of candidates to ``cells`` that passes every
    constraint, in canonical order.

    This is the one backtracking search of the kernel.  Each cell is
    ``(name, profile, buckets, reads)``: ``profile(assign)`` is the boundary
    profile of the cell, computed from the candidates already assigned to the
    earlier cells named in ``reads``, and ``buckets`` maps a boundary profile
    to the candidates that have it, in canonical order.  Every face strictly
    lowers dimension, so when cells are listed in increasing dimension the
    boundary profile of a cell is forced by the cells before it: its
    candidates are exactly one bucket, and none is tried only to be rejected
    for its boundary.

    Forward checking (Haralick and Elliott, 1980) cuts a branch as soon as a
    later cell is sure to have no candidate.  Once the last cell that a cell
    reads is assigned, that cell's profile is fixed for every completion of
    the partial assignment, so if its bucket is empty no completion exists
    and the candidate just placed is rejected.

    Each constraint is ``(reads, predicate)``: ``predicate(assign)`` looks
    only at the (at least one) cells named in ``reads``, and an assignment is
    yielded only if every predicate holds.  The same forward-check step
    evaluates a constraint as soon as the last cell it reads is assigned; its
    verdict is then fixed for every completion, so a failure rejects the
    candidate just placed.

    Both checks only remove subtrees that hold no assignment passing every
    constraint; they change neither which candidates a cell tries nor their
    order.  So the assignments yielded, and their order, are exactly those
    of the unchecked search filtered by the constraints.

    Assignments are fresh dicts from names to candidates, yielded depth first
    in lexicographic order of candidate positions.  With ``injective`` no
    candidate is assigned twice.  The stack is explicit, so the number of
    cells is not bounded by the interpreter's recursion limit.
    """
    assign: dict = {}
    used: set = set()
    # checks[i]: the (profile, buckets) pairs fixed once cell i is assigned,
    # namely the profiles of later cells (beyond i + 1, which is reached next
    # anyway) and the constraints whose last read cell is i.  A constraint is
    # checked as a profile whose only non-empty bucket is True.
    position = {cell[0]: i for i, cell in enumerate(cells)}
    checks: list[list[tuple]] = [[] for _ in cells]
    for j, (_, profile, buckets, reads) in enumerate(cells):
        last = max((position[r] for r in reads), default=-1)
        if 0 <= last < j - 1:
            checks[last].append((profile, buckets))
    for reads, predicate in constraints:
        checks[max(position[r] for r in reads)].append((predicate, _HOLDS))

    def options(i: int):
        _, profile, buckets, _ = cells[i]
        return iter(buckets.get(profile(assign), ()))

    if not cells:
        yield {}
        return
    stack = [options(0)]
    while stack:
        i = len(stack) - 1
        name, check = cells[i][0], checks[i]
        if injective and name in assign:  # release the previous candidate
            used.discard(assign[name])
        for cand in stack[-1]:
            if injective and cand in used:
                continue
            assign[name] = cand
            if not check or all(buckets.get(profile(assign)) for profile, buckets in check):
                break
        else:
            assign.pop(name, None)
            stack.pop()
            continue
        if injective:
            used.add(cand)
        if i + 1 == len(cells):
            yield dict(assign)
        else:
            stack.append(options(i + 1))


def hom_families(x: Presheaf, cells_at, act) -> list[tuple]:
    """The cells of ``search`` for natural transformations out of ``x``.

    The target is any presheaf-shaped family: ``cells_at(sort)`` lists its
    cells in canonical order and ``act(face, cell)`` is its boundary action.
    The profile of a cell of ``x`` is the image of its boundary, so the cells
    it reads are its boundary cells ``below``.
    """
    cells = []
    for sort in x.base.sorts:
        sources = x.cells_at(sort)
        if not sources:
            continue
        faces = x.base.faces_into(sort)
        buckets: dict[tuple, list] = {}
        for cand in cells_at(sort):
            buckets.setdefault(tuple(act(f, cand) for f in faces), []).append(cand)
        for cell in sources:
            below = tuple(x.act(f, cell) for f in faces)
            profile = lambda assign, below=below: tuple(assign[b] for b in below)
            cells.append((cell, profile, buckets, below))
    return cells


def enumerate_hom(x: Presheaf, y: Presheaf) -> list[PresheafMorphism]:
    """All natural transformations x -> y, in a canonical order."""
    check_same_base(x.base, y.base, "hom enumeration")
    return [
        PresheafMorphism(src=x, dst=y, component=comp)
        for comp in search(hom_families(x, y.cells_at, y.act))
    ]


# -- truncation and skeleton ---------------------------------------------------

def truncate_presheaf(p: Presheaf, n: int) -> Presheaf:
    """Restriction to the sorts of dimension at most ``n``."""
    base = truncate_category(p.base, n)
    cells = {s: p.cells_at(s) for s in base.sorts}
    action = {
        k: v for k, v in p.action.items() if k[0] in base.faces
    }
    return Presheaf(base=base, cells=cells, action=action)


def skeleton_presheaf(p: Presheaf, base: DirectCategory) -> Presheaf:
    """Re-extend a truncated presheaf over ``base`` by empty cells."""
    cells = {s: p.cells.get(s, ()) for s in base.sorts}
    return Presheaf(base=base, cells=cells, action=dict(p.action))
