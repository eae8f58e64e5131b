"""Finite presheaves on a direct category, their morphisms, and the one
backtracking search kernel behind every hom and family enumeration.

``homs`` reads its source and its target the same way: per sort, the cells
in canonical order, and per cell a *spine* ``(tag, below)``.  A candidate
fits a cell when it has the cell's tag and, at each position, the image of
the cell's ``below``.  A presheaf, or a family given by a boundary action,
has the spine ``((), boundary cells in face order)``; a computad generator,
its gluings with every leaf blanked and their leaves (``Computad.spine``).
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from itertools import chain, repeat
from operator import itemgetter

from .base import (
    DirectCategory,
    FaceRef,
    SortRef,
    category_to_json,
    check_same_base,
    json_id_lists,
    json_object,
    json_objects,
    memoized,
    truncate_category,
    validate_category,
)
from .errors import (
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
    _sort_of: dict[str, SortRef] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._sort_of = {c: s for s, cs in self.cells.items() for c in cs}

    def cells_at(self, sort: SortRef) -> tuple[str, ...]:
        if sort not in self.base.dims:
            raise UnknownSort(f"unknown sort {sort!r}")
        return self.cells.get(sort, ())

    def sort_of(self, cell: str) -> SortRef:
        return self._sort_of[cell]

    def act(self, face: FaceRef, cell: str) -> str:
        return self.action[(face, cell)]

    spine = property(lambda self: action_spine(self.act))  # read by ``homs``

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
    needs = {"category": object} if base is None else {}
    json_object(raw, FunctorialityFailure, "a presheaf", needs)
    if base is None:
        base = validate_category(raw["category"])
    cells = json_id_lists(raw, "cells", FunctorialityFailure)
    for s in cells:
        if s not in base.dims:
            raise UnknownSort(f"cells listed at unknown sort {s!r}")
    fields, key = {"face": str, "from": str, "to": str}, itemgetter("face", "from")
    entries = json_objects(raw, "action", FunctorialityFailure, fields, key)
    return make_presheaf(base, cells, {key(e): e["to"] for e in entries})


def presheaf_to_json(p: Presheaf) -> dict:
    return {"category": category_to_json(p.base), **cells_to_json(p)}


def cells_to_json(p: Presheaf) -> dict:
    """The cells and action of a presheaf document, without its category:
    a signature writes each arity this way, under its one category."""
    return {
        "cells": {s: list(p.cells_at(s)) for s in p.base.sorts if p.cells_at(s)},
        "action": [
            {"face": f, "from": c, "to": v}
            for (f, c), v in sorted(p.action.items())
        ],
    }


# -- representables -----------------------------------------------------------

@memoized("_representable_cache")
def representable(cat: DirectCategory, sort: SortRef) -> Presheaf:
    """The presheaf of maps into ``sort``: cells at j are hom(j, sort).
    Built once per category and sort, without the functoriality check:
    acting by precomposition is functorial because the category's table is
    associative.  The cells are the identity ``id_<sort>`` and the faces
    into ``sort``, so they are unique unless a face takes the identity's name."""
    if sort not in cat.dims:
        raise UnknownSort(f"unknown sort {sort!r}")
    ident = f"id_{sort}"
    if ident in cat.faces_into(sort):
        raise FunctorialityFailure(f"duplicate cell id {ident!r}")
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
    return Presheaf(base=cat, cells=cells, action=action)


@memoized("_boundary_representable_cache")
def boundary_representable(cat: DirectCategory, sort: SortRef) -> Presheaf:
    """The sub-presheaf of ``representable(sort)`` without the identity: the
    sphere, whose cells are the faces into ``sort``.  Built once per category
    and sort, unchecked: faces lower dimension, so no action gives the
    identity, the one cell at ``sort``, and the other cells are closed under
    the action."""
    full = representable(cat, sort)
    (ident,) = full.cells_at(sort)
    cells = {
        s: tuple(c for c in full.cells_at(s) if c != ident) for s in cat.sorts
    }
    action = {
        k: v for k, v in full.action.items() if k[1] != ident
    }
    return Presheaf(base=cat, cells=cells, action=action)


# -- morphisms ----------------------------------------------------------------

def check_morphism(h: PresheafMorphism) -> None:
    """Raise if ``h`` is not a natural transformation on the source cells."""
    check_same_base(h.src.base, h.dst.base, "presheaf morphism")
    extra = sorted(h.component.keys() - h.src._sort_of.keys())
    if extra:
        raise FunctorialityFailure(f"morphism defined on {extra[0]!r}, not a source cell")
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


def search(
    cells: list[tuple], injective: bool = False, constraints=()
) -> Iterator[tuple]:
    """Yield every assignment of candidates to ``cells`` that passes every
    constraint, in canonical order.

    This is the one backtracking search of the kernel.  Each cell is
    ``(name, below, bucket)``: the *profile* of the cell is the tuple of the
    candidates assigned to the earlier cells named in ``below``, and
    ``bucket`` maps a profile to the candidates that have it, in canonical
    order.  Every face strictly lowers dimension, so when cells are listed in
    increasing dimension the profile of a cell is forced by the cells before
    it: its candidates are exactly one bucket entry, and none is tried only
    to be rejected for its boundary.

    Forward checking (Haralick and Elliott, 1980) cuts a branch as soon as a
    later cell is sure to have no candidate.  Once the last cell named in a
    cell's ``below`` is assigned, that cell's profile is fixed for every
    completion of the partial assignment, so if its bucket holds nothing
    there no completion exists and the candidate just placed is rejected.

    Each constraint is ``(reads, predicate)``: ``predicate(assign)`` looks
    only at the (at least one) cells named in ``reads``, of the dict
    ``assign`` from names to the candidates placed so far, and an assignment
    is yielded only if every predicate holds.  The same forward-check step
    evaluates a constraint as soon as the last cell it reads is assigned; its
    verdict is then fixed for every completion, so a failure rejects the
    candidate just placed.

    Both checks only remove subtrees that hold no assignment passing every
    constraint; they change neither which candidates a cell tries nor their
    order.  So the assignments yielded, and their order, are exactly those
    of the unchecked search filtered by the constraints.

    Assignments are tuples of candidates in cell order, yielded depth first
    in lexicographic order of candidate positions.  With ``injective`` no
    candidate is assigned twice.  The stack is explicit, so the number of
    cells is not bounded by the interpreter's recursion limit.  When the
    last cell is not injective and no constraint reads it last, each of its
    buckets goes out in bulk: one ``zip`` of the values placed before it,
    repeated, with the bucket, so no Python frame runs per assignment.
    """
    n = len(cells)
    if not n:
        return iter(((),))
    position = {name: i for i, (name, _, _) in enumerate(cells)}
    names = [name for name, _, _ in cells]
    below = [tuple([position[b] for b in bl]) for _, bl, _ in cells]
    lookup = [bucket.get for _, _, bucket in cells]
    chosen: list = [None] * n
    profile = chosen.__getitem__
    # checks[i]: the (below, lookup) pairs fixed once cell i is assigned, each
    # passing if lookup(profile of below) is truthy: the bucket of each later
    # cell (beyond i + 1, which is reached next anyway) whose profile is then
    # fixed, and each constraint whose last read cell is i.
    checks: list[list[tuple]] = [[] for _ in cells]
    for j in range(n):
        last = max(below[j], default=-1)
        if 0 <= last < j - 1:
            checks[last].append((below[j], lookup[j]))
    assign: dict = {}  # the names placed, read by the constraints
    for reads, predicate in constraints:
        checks[max(position[r] for r in reads)].append(((), lambda _, p=predicate: p(assign)))
    track = bool(constraints)
    bulk = not injective and not checks[n - 1]
    if bulk and n == 1:
        return zip(lookup[0]((), ()))
    depth = n - 1 if bulk else n  # the cells placed one by one

    def options(i: int):
        return iter(lookup[i](tuple(map(profile, below[i])), ()))

    def blocks():
        used: set = set()
        stack = [options(0)]
        while stack:
            i = len(stack) - 1
            check = checks[i]
            if injective and chosen[i] is not None:  # release the previous candidate
                used.discard(chosen[i])
                chosen[i] = None
            for cand in stack[-1]:
                if injective and cand in used:
                    continue
                chosen[i] = cand
                if track:
                    assign[names[i]] = cand
                for bl, get in check:
                    if not get(tuple(map(profile, bl))):
                        break
                else:
                    break
            else:
                chosen[i] = None
                stack.pop()
                continue
            if injective:
                used.add(cand)
            if i + 1 < depth:
                stack.append(options(i + 1))
            elif bulk:
                last = lookup[depth](tuple(map(profile, below[depth])), ())
                yield zip(*map(repeat, chosen[:depth]), last)
            else:
                yield (tuple(chosen),)

    return chain.from_iterable(blocks())


def action_spine(act):
    """The spine of a family given by its boundary action ``act(face,
    cell)``: the empty tag, and the boundary cells in face order."""
    return lambda faces, cell: ((), tuple([act(f, cell) for f in faces]))


def bucket_by_spine(cands: Sequence, spine, faces: tuple[FaceRef, ...]) -> dict:
    """``cands`` of a sort with faces ``faces``, by spine: each tag maps each
    ``below`` to its candidates, in order.  Without faces every spine is
    ``((), ())``, and ``cands`` is kept uncopied."""
    if not faces:
        return {(): {(): cands}}
    buckets: dict = {}
    for cand in cands:
        tag, below = spine(faces, cand)
        buckets.setdefault(tag, {}).setdefault(below, []).append(cand)
    return buckets


def homs(
    x, cells_at, spine, constraints=(), injective: bool = False
) -> tuple[tuple[str, ...], Iterator[tuple]]:
    """The maps out of ``x`` (a presheaf or a computad) that pass the
    ``search`` constraints, found by that search, into the family with cells
    ``cells_at(sort)``, in canonical order, and spines ``spine(faces,
    cell)``, for ``faces`` the faces into the cell's sort.  ``x`` is read
    the same way, through ``x.cells_at`` and ``x.spine``.  Returns the
    cells of ``x`` in search order and the maps, each a tuple of images in
    that order: ``dict(zip(names, family))`` is the map as a dict."""
    cells = []
    for sort in x.base.sorts:
        sources = x.cells_at(sort)
        if not sources:
            continue
        faces = x.base.faces_into(sort)
        buckets = bucket_by_spine(cells_at(sort), spine, faces)
        for cell in sources:
            tag, below = x.spine(faces, cell)
            cells.append((cell, below, buckets.get(tag, {})))
    return tuple([name for name, _, _ in cells]), search(cells, injective, constraints)


def enumerate_hom(x: Presheaf, y: Presheaf) -> list[PresheafMorphism]:
    """All natural transformations x -> y, in a canonical order."""
    check_same_base(x.base, y.base, "hom enumeration")
    names, families = homs(x, y.cells_at, y.spine)
    return [
        PresheafMorphism(src=x, dst=y, component=dict(zip(names, family)))
        for family in families
    ]


def hom_key(component: dict[str, str]) -> tuple:
    """A hashable key of a hom's components: its (cell, image) pairs, sorted.
    An algebra's interpretation table keys its rows by it."""
    return tuple(sorted(component.items()))


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
