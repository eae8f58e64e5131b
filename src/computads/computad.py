"""Computads, their morphisms, free computads, and finite colimits.

A computad attaches a finite set of generators to every sort; each generator
of sort i carries, per non-identity face d : j -> i, a gluing term of sort j
over the lower-dimensional truncation.  Because the sort category is direct,
stratification is automatic: a term of sort j can only mention generators of
dimension at most dim j.

Validation happens once, at the boundary: ``make_computad``, ``make_morphism``
and ``var_to_var_morphism`` check their input.  The kernel's own constructions
build the dataclasses directly and name the invariant that makes them valid.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .base import DirectCategory, FaceRef, SortRef
from .errors import (
    BaseMismatch,
    CocycleFailure,
    EndpointMismatch,
    GluingIllTyped,
    IncompatibleArgs,
    NotVarToVar,
    SortMismatch,
    UnknownGenerator,
    UnknownSort,
)
from .presheaf import Presheaf, search
from .signature import FunctionSymbol, Signature, restrict_signature
from .terms import (
    Term,
    Var,
    boundary,
    check_term,
    rename,
    subst,
)


@dataclass
class Computad:
    """Unchecked: pads every sort to a tuple of generators, copies ``glue``
    and rejects a repeated generator id, nothing more."""

    signature: Signature
    gens: dict[SortRef, tuple[str, ...]]
    glue: dict[tuple[str, FaceRef], Term]
    _gen_sort: dict[str, SortRef] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.gens = {s: tuple(self.gens.get(s, ())) for s in self.signature.base.sorts}
        self.glue = dict(self.glue)
        self._gen_sort = {}
        for s, gs in self.gens.items():
            for g in gs:
                if g in self._gen_sort:
                    raise GluingIllTyped(f"duplicate generator id {g!r}")
                self._gen_sort[g] = s

    # term context interface
    @property
    def base(self) -> DirectCategory:
        return self.signature.base

    def gen_sort(self, gen: str) -> SortRef:
        if gen not in self._gen_sort:
            raise UnknownGenerator(f"unknown generator {gen!r}")
        return self._gen_sort[gen]

    def gluing(self, gen: str, face: FaceRef) -> Term:
        return self.glue[(gen, face)]

    def symbol(self, symbol_id: str) -> FunctionSymbol:
        return self.signature.symbol(symbol_id)

    # enumeration helpers
    def generators_at(self, sort: SortRef) -> tuple[str, ...]:
        return self.gens.get(sort, ())

    def all_generators(self) -> list[tuple[SortRef, str]]:
        return [(s, g) for s in self.base.sorts for g in self.generators_at(s)]

    def generator_count(self) -> int:
        return sum(len(gs) for gs in self.gens.values())

    def is_empty(self) -> bool:
        return self.generator_count() == 0


def make_computad(
    signature: Signature,
    gens: dict[SortRef, tuple[str, ...]],
    glue: dict[tuple[str, FaceRef], Term],
) -> Computad:
    """The checked constructor: well-typed gluings satisfying the cocycle."""
    c = Computad(signature=signature, gens=gens, glue=glue)
    cat = signature.base
    undeclared = set(gens) - set(cat.sorts)
    if undeclared:
        raise UnknownSort(f"generators at undeclared sorts {sorted(undeclared)}")
    for g, face in c.glue:
        if g not in c._gen_sort:
            raise GluingIllTyped(f"gluing for undeclared generator {g!r}")
        if face not in cat.faces_into(c.gen_sort(g)):
            raise GluingIllTyped(
                f"gluing of {g!r} along {face!r}, which is not a face into "
                f"{c.gen_sort(g)!r}"
            )
    for sort in cat.sorts:  # increasing dimension
        for g in c.generators_at(sort):
            for face in cat.faces_into(sort):
                if (g, face) not in c.glue:
                    raise GluingIllTyped(
                        f"generator {g!r} has no gluing along {face!r}"
                    )
                t = c.glue[(g, face)]
                j = cat.face(face).src
                try:
                    check_term(c, t, expected_sort=j)
                except (SortMismatch, IncompatibleArgs, UnknownGenerator) as exc:
                    raise GluingIllTyped(f"gluing of {g!r} along {face!r}: {exc}") from exc
            for second, first in cat.composable_into(sort):
                composite = cat.compose(first, second)
                if boundary(c, first, c.glue[(g, second)]) != c.glue[(g, composite)]:
                    raise CocycleFailure(
                        f"gluing cocycle fails for {g!r} at {second!r} then {first!r}"
                    )
    return c


def free_computad(x: Presheaf, signature: Signature) -> Computad:
    """The computad with one generator per cell, glued along the (functorial)
    action."""
    if x.base.dims != signature.base.dims or x.base.faces.keys() != signature.base.faces.keys():
        raise BaseMismatch("presheaf and signature over different sort categories")
    gens = {s: x.cells_at(s) for s in signature.base.sorts}
    glue = {}
    for s in signature.base.sorts:
        for cell in x.cells_at(s):
            for face in signature.base.faces_into(s):
                glue[(cell, face)] = Var(x.act(face, cell))
    return Computad(signature, gens, glue)


def truncate_computad(c: Computad, n: int) -> Computad:
    """The generators of dimension at most n; their gluings name no others."""
    sig = restrict_signature(c.signature, n)
    gens = {s: c.generators_at(s) for s in sig.base.sorts}
    glue = {
        (g, f): t
        for (g, f), t in c.glue.items()
        if g in {x for gs in gens.values() for x in gs}
    }
    return Computad(sig, gens, glue)


def skeleton_computad(c: Computad, signature: Signature) -> Computad:
    """Re-extend a truncated computad over a larger signature by empty sets."""
    return Computad(signature, c.gens, c.glue)


def skeleton_counit(c: Computad, n: int) -> ComputadMorphism:
    """The generator inclusion sk_n tr_n C -> C, which keeps every gluing."""
    return inclusion(skeleton_computad(truncate_computad(c, n), c.signature), c)


@dataclass
class ComputadMorphism:
    src: Computad
    dst: Computad
    assign: dict[str, Term]

    def __call__(self, gen: str) -> Term:
        return self.assign[gen]

    def is_var_to_var(self) -> bool:
        return all(isinstance(t, Var) for t in self.assign.values())

    def gen_map(self) -> dict[str, str]:
        if not self.is_var_to_var():
            raise NotVarToVar("morphism sends a generator to a composite term")
        return {g: t.gen for g, t in self.assign.items()}  # type: ignore[union-attr]

    def is_injective(self) -> bool:
        m = self.gen_map()
        return len(set(m.values())) == len(m)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ComputadMorphism):
            return NotImplemented
        return (
            self.src.gens == other.src.gens
            and self.dst.gens == other.dst.gens
            and self.assign == other.assign
        )


def apply_morphism(m: ComputadMorphism, t: Term) -> Term:
    """The action of a morphism on a term: substitute generator images."""
    return subst(t, m.assign)


def make_morphism(
    src: Computad, dst: Computad, assign: dict[str, Term]
) -> ComputadMorphism:
    """The checked constructor: terms of the right sort and boundaries."""
    m = ComputadMorphism(src=src, dst=dst, assign=dict(assign))
    cat = src.base
    for sort, gen in src.all_generators():
        if gen not in m.assign:
            raise UnknownGenerator(f"morphism undefined on generator {gen!r}")
        t = m.assign[gen]
        check_term(dst, t, expected_sort=sort)
        for face in cat.faces_into(sort):
            lhs = boundary(dst, face, t)
            rhs = apply_morphism(m, src.gluing(gen, face))
            if lhs != rhs:
                raise GluingIllTyped(
                    f"morphism breaks the gluing of {gen!r} along {face!r}"
                )
    return m


def identity_morphism(c: Computad) -> ComputadMorphism:
    return inclusion(c, c)


def inclusion(src: Computad, dst: Computad) -> ComputadMorphism:
    """The generator inclusion src -> dst, unchecked: the caller knows that
    ``dst`` has the generators of ``src`` with the same gluings."""
    return ComputadMorphism(src, dst, {g: Var(g) for _, g in src.all_generators()})


def compose_morphisms(
    later: ComputadMorphism, earlier: ComputadMorphism
) -> ComputadMorphism:
    """The composite ``later . earlier`` (earlier applied first)."""
    if earlier.dst.gens != later.src.gens or earlier.dst.glue != later.src.glue:
        raise EndpointMismatch("morphisms are not composable")
    assign = {g: apply_morphism(later, t) for g, t in earlier.assign.items()}
    return ComputadMorphism(src=earlier.src, dst=later.dst, assign=assign)


def var_to_var_morphism(
    src: Computad, dst: Computad, gen_map: dict[str, str]
) -> ComputadMorphism:
    return make_morphism(src, dst, {g: Var(v) for g, v in gen_map.items()})


# -- isomorphism checking -------------------------------------------------------

def _generators_named(ts: tuple[Term, ...]) -> set[str]:
    """The generators at the leaves of the terms ``ts``."""
    out: set[str] = set()
    todo = list(ts)
    while todo:
        t = todo.pop()
        if isinstance(t, Var):
            out.add(t.gen)
        else:
            todo.extend(u for _, u in t.args)
    return out


def _gen_cells(c: Computad, d: Computad) -> list[tuple]:
    """The cells of ``presheaf.search`` for generator maps c -> d.

    The profile of a generator of c is its gluing renamed along the images
    fixed so far, so the cells it reads are the generators named in its
    gluing terms; the candidates in d are bucketed by their own gluing.
    """
    cat = c.base
    cells = []
    for sort in cat.sorts:
        sources = c.generators_at(sort)
        if not sources:
            continue
        faces = cat.faces_into(sort)
        buckets: dict[tuple, list[str]] = {}
        for cand in d.generators_at(sort):
            buckets.setdefault(tuple(d.gluing(cand, f) for f in faces), []).append(cand)
        for g in sources:
            glue = tuple(c.gluing(g, f) for f in faces)
            profile = lambda m, glue=glue: tuple(rename(t, m) for t in glue)
            cells.append((g, profile, buckets, _generators_named(glue)))
    return cells


def find_isomorphism(c: Computad, d: Computad) -> dict[str, str] | None:
    """The first generator bijection respecting gluings, or None."""
    if c.signature.base.dims != d.signature.base.dims:
        return None
    for s in c.base.sorts:
        if len(c.generators_at(s)) != len(d.generators_at(s)):
            return None
    return next(search(_gen_cells(c, d), injective=True), None)


def isomorphic(c: Computad, d: Computad) -> bool:
    return find_isomorphism(c, d) is not None


def enumerate_var_to_var(c: Computad, d: Computad) -> list[ComputadMorphism]:
    """All variable-to-variable morphisms c -> d, in a canonical order."""
    return [
        ComputadMorphism(src=c, dst=d, assign={g: Var(v) for g, v in m.items()})
        for m in search(_gen_cells(c, d))
    ]


# -- colimits of variable-to-variable diagrams ----------------------------------

@dataclass
class Colimit:
    computad: Computad
    legs: dict[str, ComputadMorphism]
    classes: dict[tuple[str, str], str]  # (node key, generator) -> colimit generator

    def mediate(self, cocone: dict[str, ComputadMorphism]) -> ComputadMorphism:
        """The unique morphism out of the colimit determined by a cocone.

        Raises CocycleFailure if the given legs do not agree on identified
        generators (that is, the input is not a cocone).
        """
        target = next(iter(cocone.values())).dst
        assign: dict[str, Term] = {}
        for (node, gen), cls in sorted(self.classes.items()):
            leg = cocone[node]
            value = leg.assign[gen]
            if cls in assign and assign[cls] != value:
                raise CocycleFailure(
                    f"cocone legs disagree on identified generator {cls!r}"
                )
            assign[cls] = value
        return ComputadMorphism(src=self.computad, dst=target, assign=assign)


def colimit_var(
    nodes: dict[str, Computad],
    edges: list[tuple[str, str, ComputadMorphism]],
) -> Colimit:
    """Colimit of a finite diagram of variable-to-variable morphisms.

    Generator sets are computed as colimits of sets (union-find over the
    edges); gluings are induced along the cocone legs.  Canonical class
    representatives are the lexicographic minima, making output deterministic.
    Unchecked: identified generators carry the same renamed gluing, since
    the edges are morphisms, and renaming commutes with typing and boundaries.
    """
    for _, _, m in edges:
        if not m.is_var_to_var():
            raise NotVarToVar("colimit diagram contains a non-var-to-var morphism")
    if not nodes:
        raise EndpointMismatch("colimit of an empty diagram has no signature")
    signature = next(iter(nodes.values())).signature
    cat = signature.base

    # Union-find over (node, generator) pairs.
    parent: dict[tuple[str, str], tuple[str, str]] = {}

    def find(x: tuple[str, str]) -> tuple[str, str]:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: tuple[str, str], b: tuple[str, str]) -> None:
        ra, rb = find(a), find(b)
        if ra == rb:
            return
        lo, hi = min(ra, rb), max(ra, rb)
        parent[hi] = lo

    for key, c in nodes.items():
        for _, g in c.all_generators():
            parent[(key, g)] = (key, g)
    for src_key, dst_key, m in edges:
        for g, t in m.assign.items():
            assert isinstance(t, Var)
            union((src_key, g), (dst_key, t.gen))

    def class_name(rep: tuple[str, str]) -> str:
        return f"{rep[0]}:{rep[1]}"

    classes = {x: class_name(find(x)) for x in parent}
    gens: dict[str, tuple[str, ...]] = {}
    for sort in cat.sorts:
        names = sorted(
            {
                classes[(key, g)]
                for key, c in nodes.items()
                for g in c.generators_at(sort)
            }
        )
        gens[sort] = tuple(names)

    # Build gluings dimension by dimension using the leg renamings.
    leg_maps = {
        key: {g: classes[(key, g)] for _, g in c.all_generators()}
        for key, c in nodes.items()
    }
    glue: dict[tuple[str, FaceRef], Term] = {}
    reps: dict[str, tuple[str, str]] = {}
    for x in sorted(parent):
        cls = classes[x]
        if cls not in reps or find(x) < reps[cls]:
            reps[cls] = find(x)
    for sort in cat.sorts:
        for cls in gens[sort]:
            key, g = reps[cls]
            for face in cat.faces_into(sort):
                glue[(cls, face)] = rename(
                    nodes[key].gluing(g, face), leg_maps[key]
                )
    colim = Computad(signature, gens, glue)
    legs = {
        key: ComputadMorphism(c, colim, {g: Var(v) for g, v in leg_maps[key].items()})
        for key, c in nodes.items()
    }
    return Colimit(computad=colim, legs=legs, classes=classes)


def coproduct(computads: list[Computad]) -> Colimit:
    return colimit_var({f"n{i}": c for i, c in enumerate(computads)}, [])


def pushout(
    left: ComputadMorphism, right: ComputadMorphism
) -> Colimit:
    """Pushout of the span ``left.src == right.src``."""
    if left.src.gens != right.src.gens:
        raise EndpointMismatch("pushout legs must share their source")
    nodes = {"a": left.src, "b": left.dst, "c": right.dst}
    edges = [("a", "b", left), ("a", "c", right)]
    return colimit_var(nodes, edges)
