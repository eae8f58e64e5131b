"""Computads, their morphisms, free computads, skeleta, and finite colimits.

A computad attaches a finite set of generators to every sort; each generator
of sort i carries, per non-identity face d : j -> i, a gluing term of sort j
over the lower-dimensional truncation.  Because the sort category is direct,
stratification is automatic: a term of sort j can only mention generators of
dimension at most dim j.

Validation happens once, at the boundary: ``make_computad``, ``make_morphism``
and ``var_to_var_morphism`` check their input.  The kernel's own constructions
build the dataclasses directly and name the invariant that makes them valid.
Colimits are computed on generator sets: their diagrams and legs are
generator maps, which ``ComputadMorphism.gen_map`` reads off a morphism.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .base import DirectCategory, FaceRef, SortRef, check_same_base
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
from .presheaf import Presheaf, boundary_representable, homs
from .signature import FunctionSymbol, Signature, restrict_signature
from .terms import (
    Term,
    Var,
    attached,
    boundary,
    check_family,
    check_term,
    leaves,
    parts,
    rename,
    subst,
    var,
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

    cells_at = generators_at  # read as a family by ``presheaf.homs``

    def spine(self, faces: tuple[FaceRef, ...], gen: str) -> tuple:
        """The gluings of ``gen`` along ``faces`` with every leaf renamed to
        one name, and their leaves, per occurrence, left to right.
        ``rename(t, m) == u`` exactly when the blanked terms agree and ``m``
        maps the leaves of ``t`` to those of ``u``, position by position."""
        glue = [self.glue[(gen, f)] for f in faces]
        below = sum(map(leaves, glue), ())
        blank = dict.fromkeys(below, "")
        return tuple([rename(t, blank) for t in glue]), below

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
                try:
                    check_term(c, c.glue[(g, face)], expected_sort=cat.face(face).src)
                except (SortMismatch, IncompatibleArgs, UnknownGenerator) as exc:
                    raise GluingIllTyped(f"gluing of {g!r} along {face!r}: {exc}") from exc
            sphere = boundary_representable(cat, sort)
            try:
                check_family(c, sphere, dict(parts(c, var(g))), f"gluing of {g!r}")
            except IncompatibleArgs as exc:
                raise CocycleFailure(str(exc)) from exc
    return c


def free_computad(x: Presheaf, signature: Signature) -> Computad:
    """The computad with one generator per cell, glued along the (functorial)
    action."""
    check_same_base(x.base, signature.base, "free computad")
    gens = {s: x.cells_at(s) for s in signature.base.sorts}
    glue = {}
    for s in signature.base.sorts:
        for cell in x.cells_at(s):
            for face in signature.base.faces_into(s):
                glue[(cell, face)] = var(x.act(face, cell))
    return Computad(signature, gens, glue)


def sub_computad(c: Computad, signature: Signature, keep) -> Computad:
    """The generators of ``c`` that ``keep(sort, gen)`` accepts, with their
    gluings, over ``signature``.  Unchecked: the caller keeps every generator
    that a kept gluing names."""
    gens = {
        s: tuple(g for g in c.generators_at(s) if keep(s, g))
        for s in signature.base.sorts
    }
    kept = {g for gs in gens.values() for g in gs}
    return Computad(signature, gens, {k: t for k, t in c.glue.items() if k[0] in kept})


def truncate_computad(c: Computad, n: int) -> Computad:
    """The generators of dimension at most n; their gluings name no others."""
    return sub_computad(c, restrict_signature(c.signature, n), lambda s, g: True)


def skeleton_computad(c: Computad, signature: Signature) -> Computad:
    """Re-extend a truncated computad over a larger signature by empty sets."""
    return Computad(signature, c.gens, c.glue)


def skeleton(c: Computad, n: int) -> Computad:
    """sk_n tr_n C: the generators of dimension at most n, over ``c``'s own
    signature; their gluings name no others."""
    return sub_computad(c, c.signature, lambda s, g: c.base.dim(s) <= n)


def skeleton_counit(c: Computad, n: int) -> ComputadMorphism:
    """The generator inclusion sk_n tr_n C -> C, which keeps every gluing."""
    return inclusion(skeleton(c, n), c)


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


def apply_morphism(m: ComputadMorphism, t: Term) -> Term:
    """The action of a morphism on a term: substitute generator images."""
    return subst(t, m.assign)


def make_morphism(
    src: Computad, dst: Computad, assign: dict[str, Term]
) -> ComputadMorphism:
    """The checked constructor: computads over one signature, and terms of
    the right sort and boundaries, on the source generators only."""
    check_same_base(src.signature, dst.signature, "morphism")
    m = ComputadMorphism(src=src, dst=dst, assign=dict(assign))
    extra = sorted(m.assign.keys() - src._gen_sort.keys())
    if extra:
        raise UnknownGenerator(f"morphism assigns {extra[0]!r}, not a source generator")
    for sort, gen in src.all_generators():
        if gen not in m.assign:
            raise UnknownGenerator(f"morphism undefined on generator {gen!r}")
        t = m.assign[gen]
        check_term(dst, t, expected_sort=sort)
        for face, u in parts(src, var(gen)):
            if boundary(dst, face, t) != apply_morphism(m, u):
                raise GluingIllTyped(
                    f"morphism breaks the gluing of {gen!r} along {face!r}"
                )
    return m


def identity_morphism(c: Computad) -> ComputadMorphism:
    return inclusion(c, c)


def inclusion(src: Computad, dst: Computad) -> ComputadMorphism:
    """The generator inclusion src -> dst, unchecked: the caller knows that
    ``dst`` has the generators of ``src`` with the same gluings."""
    return ComputadMorphism(src, dst, {g: var(g) for _, g in src.all_generators()})


def compose_morphisms(
    later: ComputadMorphism, earlier: ComputadMorphism
) -> ComputadMorphism:
    """The composite ``later . earlier`` (earlier applied first)."""
    if earlier.dst != later.src:
        raise EndpointMismatch("morphisms are not composable")
    assign = {g: apply_morphism(later, t) for g, t in earlier.assign.items()}
    return ComputadMorphism(src=earlier.src, dst=later.dst, assign=assign)


def var_to_var_morphism(
    src: Computad, dst: Computad, gen_map: dict[str, str]
) -> ComputadMorphism:
    return make_morphism(src, dst, {g: var(v) for g, v in gen_map.items()})


# -- isomorphism checking -------------------------------------------------------

def find_isomorphism(c: Computad, d: Computad) -> dict[str, str] | None:
    """The first generator bijection respecting gluings, or None; None
    across signatures."""
    if c.signature != d.signature:
        return None
    for s in c.base.sorts:
        if len(c.generators_at(s)) != len(d.generators_at(s)):
            return None
    names, families = homs(c, d.cells_at, d.spine, injective=True)
    found = next(families, None)
    return None if found is None else dict(zip(names, found))


def isomorphic(c: Computad, d: Computad) -> bool:
    return find_isomorphism(c, d) is not None


def is_isomorphism(c: Computad, d: Computad, gen_map: dict[str, str]) -> bool:
    """Whether a known generator map is an isomorphism c -> d: a bijection
    onto the generators of ``d`` that passes ``var_to_var_morphism``.  Its
    inverse then passes too, since each generator of ``d`` is then glued
    along its preimage's gluings renamed, and renaming along a bijection is
    injective.  False across signatures."""
    if len(gen_map) != len(d._gen_sort) or set(gen_map.values()) != d._gen_sort.keys():
        return False
    try:
        var_to_var_morphism(c, d, gen_map)
    except (BaseMismatch, GluingIllTyped, SortMismatch, UnknownGenerator):
        return False
    return True


def enumerate_var_to_var(c: Computad, d: Computad) -> list[ComputadMorphism]:
    """All variable-to-variable morphisms c -> d, in a canonical order."""
    names, families = homs(c, d.cells_at, d.spine)
    return [
        ComputadMorphism(src=c, dst=d, assign=dict(zip(names, map(var, family))))
        for family in families
    ]


# -- colimits of generator-preserving diagrams ----------------------------------

@dataclass
class Colimit:
    computad: Computad
    legs: dict[str, dict[str, str]]  # per node, each generator's class

    def mediate(self, cocone: dict[str, ComputadMorphism]) -> ComputadMorphism:
        """The unique morphism out of the colimit determined by a cocone.

        Raises CocycleFailure if the given legs do not agree on identified
        generators (that is, the input is not a cocone).
        """
        target = next(iter(cocone.values())).dst
        assign: dict[str, Term] = {}
        for node, leg in sorted(self.legs.items()):
            for gen, cls in sorted(leg.items()):
                value = cocone[node].assign[gen]
                if cls in assign and assign[cls] != value:
                    raise CocycleFailure(
                        f"cocone legs disagree on identified generator {cls!r}"
                    )
                assign[cls] = value
        return ComputadMorphism(src=self.computad, dst=target, assign=assign)


def colimit_var(
    nodes: dict[str, Computad],
    edges: list[tuple[str, str, dict[str, str]]],
) -> Colimit:
    """Colimit of a finite diagram of generator maps ``(src, dst, gen_map)``.

    Computads with generator-preserving maps form a presheaf category, so
    the generators are the colimit of the generator sets (union-find over
    the edges), and each leg maps a node's generators to their classes, named
    ``<node>:<gen>`` after the lexicographically least member; two classes
    named alike (``:`` may occur in both parts) are ``GluingIllTyped``.
    Gluings are induced along the legs.  Unchecked: each edge is the
    generator map of a morphism, so identified generators carry the same
    renamed gluing, and renaming commutes with typing and boundaries.
    """
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
        for g, h in m.items():
            union((src_key, g), (dst_key, h))

    legs = {
        key: {g: ":".join(find((key, g))) for _, g in c.all_generators()}
        for key, c in nodes.items()
    }
    gens: dict[str, tuple[str, ...]] = {}
    for sort in cat.sorts:  # a name per class, so that two classes named alike clash
        roots = {find((key, g)) for key, c in nodes.items() for g in c.generators_at(sort)}
        gens[sort] = tuple(sorted(map(":".join, roots)))

    # Build gluings dimension by dimension using the leg renamings.
    glue: dict[tuple[str, FaceRef], Term] = {}
    reps = {cls: find((key, g)) for key, m in legs.items() for g, cls in m.items()}
    for sort in cat.sorts:
        for cls in gens[sort]:
            key, g = reps[cls]
            for face, t in zip(*attached(nodes[key], var(g))):
                glue[(cls, face)] = rename(t, legs[key])
    return Colimit(computad=Computad(signature, gens, glue), legs=legs)


def coproduct(computads: list[Computad]) -> Colimit:
    return colimit_var({f"n{i}": c for i, c in enumerate(computads)}, [])


def pushout(
    left: ComputadMorphism, right: ComputadMorphism
) -> Colimit:
    """Pushout of the span ``left.src == right.src``."""
    if left.src != right.src:
        raise EndpointMismatch("pushout legs must share their source")
    nodes = {"a": left.src, "b": left.dst, "c": right.dst}
    edges = [("a", "b", left.gen_map()), ("a", "c", right.gen_map())]
    return colimit_var(nodes, edges)
