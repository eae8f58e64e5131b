"""Finite direct categories of sorts.

A direct category is presented by full enumeration: a finite set of sorts with
natural-number dimensions, a finite set of named face maps (identities are
implicit), and a total composition table over composable pairs of non-identity
faces.  Non-identity faces must strictly decrease dimension, which rules out
cycles and makes every recursion on sorts well-founded.

Composition is stored diagrammatically: ``compose(first, second)`` is the face
obtained by applying ``first : k -> j`` and then ``second : j -> i``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from .errors import (
    AssociativityFailure,
    CompositionGap,
    DimensionViolation,
    UnknownFace,
    UnknownSort,
)

SortRef = str
FaceRef = str

_MISSING = object()


def memoized(table: str):
    """Cache ``fn(owner, *key)`` in the dict ``owner.__dict__[table]``.

    Sound because the kernel never changes a category, signature or computad
    after building it.  Entries belong to one owner: two owners never share
    one, even when they are equal (a truncated category is a new owner).
    """

    def decorate(fn):
        @functools.wraps(fn)
        def cached(owner, *key):
            cache = owner.__dict__.setdefault(table, {})
            out = cache.get(key, _MISSING)
            if out is _MISSING:
                out = cache[key] = fn(owner, *key)
            return out

        return cached

    return decorate


@dataclass(frozen=True)
class Face:
    id: FaceRef
    src: SortRef
    dst: SortRef


@dataclass
class DirectCategory:
    """A validated finite direct category.

    Instances are produced by :func:`validate_category` and
    :func:`truncate_category` and are immutable by convention; all operations
    on them are pure.  ``sorts`` (in ``(dim, id)`` order) and the faces into
    each sort are derived once, when the category is built.
    """

    dims: dict[SortRef, int]
    faces: dict[FaceRef, Face]
    table: dict[tuple[FaceRef, FaceRef], FaceRef]
    sorts: tuple[SortRef, ...] = field(init=False, repr=False, compare=False)
    _into: dict[SortRef, tuple[FaceRef, ...]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        self.sorts = tuple(sorted(self.dims, key=lambda s: (self.dims[s], s)))
        self._into = {
            s: tuple(sorted(f.id for f in self.faces.values() if f.dst == s))
            for s in self.dims
        }

    def dim(self, sort: SortRef) -> int:
        if sort not in self.dims:
            raise UnknownSort(f"unknown sort {sort!r}")
        return self.dims[sort]

    def dimension(self) -> int:
        return max(self.dims.values(), default=0)

    def face(self, face: FaceRef) -> Face:
        if face not in self.faces:
            raise UnknownFace(f"unknown face {face!r}")
        return self.faces[face]

    def faces_into(self, sort: SortRef) -> tuple[FaceRef, ...]:
        """All non-identity faces with target ``sort``, in id order."""
        if sort not in self.dims:
            raise UnknownSort(f"unknown sort {sort!r}")
        return self._into[sort]

    def hom(self, src: SortRef, dst: SortRef) -> tuple[FaceRef, ...]:
        """Non-identity faces src -> dst; the identity is implicit."""
        return tuple(f for f in self.faces_into(dst) if self.faces[f].src == src)

    def compose(self, first: FaceRef, second: FaceRef) -> FaceRef:
        """The composite of ``first : k -> j`` followed by ``second : j -> i``."""
        f, g = self.face(first), self.face(second)
        if f.dst != g.src:
            raise CompositionGap(f"faces {first!r} and {second!r} are not composable")
        return self.table[(first, second)]

    def composable_into(self, sort: SortRef) -> list[tuple[FaceRef, FaceRef]]:
        """Pairs (second: j -> sort, first: k -> j) of non-identity faces."""
        pairs = []
        for second in self.faces_into(sort):
            j = self.faces[second].src
            for first in self.faces_into(j):
                pairs.append((second, first))
        return pairs


def json_objects(raw: dict, key: str, error: type[Exception]) -> list[dict]:
    """The list of objects under ``key`` (empty if absent); raises ``error``
    on any other shape, before a field is read."""
    entries = raw.get(key, [])
    if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
        raise error(f"{key!r} must be a list of objects")
    return entries


def validate_category(raw: dict) -> DirectCategory:
    """Validate a raw category description.

    ``raw`` has the JSON shape ``{sorts: [{id, dim}], faces: [{id, src, dst}],
    compose: [{first, second, result}]}``.
    """
    dims: dict[str, int] = {}
    for entry in json_objects(raw, "sorts", UnknownSort):
        sid, d = entry["id"], entry["dim"]
        if sid in dims:
            raise UnknownSort(f"duplicate sort id {sid!r}")
        if not isinstance(d, int) or isinstance(d, bool) or d < 0:
            raise DimensionViolation(f"sort {sid!r} has non-natural dimension {d!r}")
        dims[sid] = d

    faces: dict[str, Face] = {}
    for entry in json_objects(raw, "faces", UnknownFace):
        fid, src, dst = entry["id"], entry["src"], entry["dst"]
        if fid in faces:
            raise UnknownFace(f"duplicate face id {fid!r}")
        if src not in dims or dst not in dims:
            raise UnknownSort(f"face {fid!r} has undeclared endpoint")
        if dims[src] >= dims[dst]:
            raise DimensionViolation(
                f"face {fid!r}: dim({src}) = {dims[src]} must be < dim({dst}) = {dims[dst]}"
            )
        faces[fid] = Face(fid, src, dst)

    table: dict[tuple[str, str], str] = {}
    for entry in json_objects(raw, "compose", CompositionGap):
        key = (entry["first"], entry["second"])
        if key[0] not in faces or key[1] not in faces:
            raise CompositionGap(f"composition entry over unknown faces {key}")
        result = entry["result"]
        if result not in faces:
            raise CompositionGap(f"composite {result!r} is not a declared face")
        if key in table:
            raise CompositionGap(f"duplicate composition entry for {key}")
        table[key] = result

    # Totality and typing of the table over all composable pairs.
    for first in faces.values():
        for second in faces.values():
            if first.dst != second.src:
                continue
            key = (first.id, second.id)
            if key not in table:
                raise CompositionGap(
                    f"missing composite of {first.id!r} then {second.id!r}"
                )
            comp = faces[table[key]]
            if comp.src != first.src or comp.dst != second.dst:
                raise CompositionGap(
                    f"composite of {first.id!r} then {second.id!r} is ill-typed"
                )
    for key in table:
        if faces[key[0]].dst != faces[key[1]].src:
            raise CompositionGap(f"entry {key} composes non-composable faces")

    # Associativity over all composable triples (unitality is implicit
    # because identities are not part of the table).
    for f in faces.values():
        for g in faces.values():
            if f.dst != g.src:
                continue
            gf = table[(f.id, g.id)]
            for h in faces.values():
                if g.dst != h.src:
                    continue
                hg = table[(g.id, h.id)]
                if table[(gf, h.id)] != table[(f.id, hg)]:
                    raise AssociativityFailure(
                        f"({f.id};{g.id});{h.id} != {f.id};({g.id};{h.id})"
                    )

    return DirectCategory(dims=dims, faces=faces, table=table)


def truncate_category(cat: DirectCategory, n: int) -> DirectCategory:
    """Full subcategory on the sorts of dimension at most ``n``."""
    dims = {s: d for s, d in cat.dims.items() if d <= n}
    faces = {f.id: f for f in cat.faces.values() if f.src in dims and f.dst in dims}
    table = {k: v for k, v in cat.table.items() if k[0] in faces and k[1] in faces}
    return DirectCategory(dims=dims, faces=faces, table=table)


def category_to_json(cat: DirectCategory) -> dict:
    return {
        "sorts": [{"id": s, "dim": cat.dims[s]} for s in cat.sorts],
        "faces": [
            {"id": f.id, "src": f.src, "dst": f.dst}
            for f in sorted(cat.faces.values(), key=lambda f: f.id)
        ],
        "compose": [
            {"first": k[0], "second": k[1], "result": v}
            for k, v in sorted(cat.table.items())
        ],
    }
