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
from collections.abc import Callable
from dataclasses import dataclass, field
from operator import itemgetter

from .errors import (
    AssociativityFailure,
    BaseMismatch,
    CompositionGap,
    DimensionViolation,
    UnknownFace,
    UnknownSort,
)

SortRef = str
FaceRef = str

_MISSING = object()


def memo_table(owner, name: str) -> dict:
    """The memo table ``name`` of ``owner``, kept in ``owner.__dict__`` and
    empty on first use; the one place the kernel reads an owner's
    ``__dict__``.  See :func:`memoized` for what makes a table sound."""
    return owner.__dict__.setdefault(name, {})


def memoized(name: str):
    """Cache ``fn(owner, *key)`` under ``key`` in ``memo_table(owner, name)``.

    Sound because the kernel never changes a category, signature, computad,
    algebra or computad morphism after building it.  Entries belong to one
    owner: two owners never share one, even when they are equal (a
    truncated category is a new owner).  Only answers are cached: a call
    that raises leaves the table as it was, and the next call runs again.
    A fold that keeps a value per node of a term or shape takes
    ``memo_table(owner, name)`` as its memo, under the same rules: it stores
    a node's value once built, so a fold that raises keeps only the values
    of the nodes it finished below the fault.
    """

    def decorate(fn):
        @functools.wraps(fn)
        def cached(owner, *key):
            cache = memo_table(owner, name)
            out = cache.get(key, _MISSING)
            if out is _MISSING:
                out = cache[key] = fn(owner, *key)
            return out

        return cached

    return decorate


def check_same_base(x, y, what: str) -> None:
    """Raise ``BaseMismatch`` unless ``x`` and ``y``, two categories or two
    signatures, are equal by the generated ``==``: the same sorts, faces
    with their endpoints and table, and symbols.  ``is`` answers first."""
    if x is not y and x != y:
        raise BaseMismatch(f"{what} across different bases")


@dataclass(frozen=True)
class Face:
    id: FaceRef
    src: SortRef
    dst: SortRef


@dataclass
class DirectCategory:
    """A validated finite direct category.

    Instances are produced by :func:`validate_category`, :func:`category_from_faces`
    and :func:`truncate_category` and are immutable by convention; all operations
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


def json_object(
    raw, error: type[Exception], what: str, fields: dict[str, type] | None = None
) -> dict:
    """``raw`` if it is a JSON object that has every field named in
    ``fields``, holding a value of the type given there (``object`` for any
    value, left to the reader of that field); raises ``error`` naming
    ``what`` otherwise, before a field is read."""
    if not isinstance(raw, dict):
        raise error(f"{what} must be an object, not {type(raw).__name__}")
    for name, kind in (fields or {}).items():
        if name not in raw:
            raise error(f"{what} has no {name!r}")
        if not isinstance(raw[name], kind):
            found = type(raw[name]).__name__
            raise error(f"{what}: {name!r} must be a {kind.__name__}, not {found}")
    return raw


def json_objects(
    raw: dict, key: str, error: type[Exception], fields: dict[str, type] | None = None,
    unique: Callable[[dict], object] | None = None,
) -> list[dict]:
    """The list of objects under ``key`` (empty if absent), each checked by
    :func:`json_object` for the fields ``fields``; raises ``error`` on any
    other shape, before a field is read.  ``unique(entry)``, when given, is
    the key of an entry, such as ``operator.itemgetter("gen")``: once the
    fields are checked, ``error`` names the first key that two entries share."""
    entries = raw.get(key, [])
    if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
        raise error(f"{key!r} must be a list of objects")
    for entry in entries:
        json_object(entry, error, f"an entry of {key!r}", fields)
    seen: set = set()
    for k in map(unique, entries) if unique else ():
        if k in seen:
            raise error(f"{key!r} lists {k!r} twice")
        seen.add(k)
    return entries


def json_id_lists(raw: dict, key: str, error: type[Exception]) -> dict[str, list[str]]:
    """The ``{sort: [ids]}`` object under ``key`` (empty if absent), as a
    presheaf's ``cells`` or a computad's ``generators``; raises ``error`` otherwise."""
    lists = raw.get(key, {})
    if not isinstance(lists, dict):
        raise error(f"{key} must be an object of id lists: {lists!r}")
    for s, ids in lists.items():
        if not isinstance(ids, list) or not all(isinstance(i, str) for i in ids):
            raise error(f"{key} at {s!r} must be a list of ids: {ids!r}")
    return lists


def validate_category(raw: dict) -> DirectCategory:
    """Validate a raw category description.

    ``raw`` has the JSON shape ``{sorts: [{id, dim}], faces: [{id, src, dst}],
    compose: [{first, second, result}]}``.
    """
    json_object(raw, UnknownSort, "a category")
    dims: dict[str, int] = {}
    for entry in json_objects(raw, "sorts", UnknownSort, {"id": str, "dim": object}):
        sid, d = entry["id"], entry["dim"]
        if sid in dims:
            raise UnknownSort(f"duplicate sort id {sid!r}")
        if not isinstance(d, int) or isinstance(d, bool) or d < 0:
            raise DimensionViolation(f"sort {sid!r} has non-natural dimension {d!r}")
        dims[sid] = d

    faces: dict[str, Face] = {}
    fields = {"id": str, "src": str, "dst": str}
    for entry in json_objects(raw, "faces", UnknownFace, fields):
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
    fields, pair = {"first": str, "second": str, "result": str}, itemgetter("first", "second")
    for entry in json_objects(raw, "compose", CompositionGap, fields, pair):
        key = pair(entry)
        if key[0] not in faces or key[1] not in faces:
            raise CompositionGap(f"composition entry over unknown faces {key}")
        result = entry["result"]
        if result not in faces:
            raise CompositionGap(f"composite {result!r} is not a declared face")
        table[key] = result

    # Totality and typing of the table over all composable pairs, then
    # associativity over all composable triples (unitality is implicit
    # because identities are not part of the table).  Faces come in document
    # order and so do their partners, so the first fault reported is that of
    # a loop over every pair and triple of faces.
    out_of: dict[str, list[Face]] = {s: [] for s in dims}
    for face in faces.values():
        out_of[face.src].append(face)
    for first in faces.values():
        for second in out_of[first.dst]:
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
    for f in faces.values():
        for g in out_of[f.dst]:
            gf = table[(f.id, g.id)]
            for h in out_of[g.dst]:
                hg = table[(g.id, h.id)]
                if table[(gf, h.id)] != table[(f.id, hg)]:
                    raise AssociativityFailure(
                        f"({f.id};{g.id});{h.id} != {f.id};({g.id};{h.id})"
                    )

    return DirectCategory(dims=dims, faces=faces, table=table)


def category_from_faces(
    dims: list[tuple[SortRef, int]],
    faces: list[tuple[FaceRef, tuple[SortRef, SortRef, object]]],
    compose: Callable[[object, object], FaceRef] | None = None,
) -> DirectCategory:
    """The category on the ``(sort, dim)`` pairs ``dims`` whose faces are the
    ``(id, (src, dst, data))`` pairs ``faces``, with ``compose(first_data,
    second_data)`` naming the composite of each composable pair (needed only
    when some pair composes).  A sort or face listed twice is rejected as by
    :func:`validate_category`; the rest is unchecked: the packs' rules give
    faces that lower dimension and a total, associative table."""
    dim_of: dict[SortRef, int] = {}
    by_id: dict[FaceRef, Face] = {}
    out_of: dict[SortRef, list[tuple[FaceRef, object]]] = {}
    for s, d in dims:
        if s in dim_of:
            raise UnknownSort(f"duplicate sort id {s!r}")
        dim_of[s] = d
    for fid, (src, dst, d) in faces:
        if fid in by_id:
            raise UnknownFace(f"duplicate face id {fid!r}")
        by_id[fid] = Face(fid, src, dst)
        out_of.setdefault(src, []).append((fid, d))
    table = {(f, g): compose(d, e) for f, (_, dst, d) in faces for g, e in out_of.get(dst, ())}
    return DirectCategory(dims=dim_of, faces=by_id, table=table)


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
