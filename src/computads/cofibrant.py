"""Boundary inclusions, skeletal filtration, the underlying computad of an
algebra, and trivial-fibration checking.

The representable computad on a sort i classifies terms of sort i; its
boundary classifies types (compatible boundary families).  Every computad is
rebuilt from the empty one by attaching generators along their boundary types
dimension by dimension: each stage is the pushout of the one below along the
boundary inclusions, checked by ``computad.is_isomorphism`` on the comparison
map read off the colimit's legs, which are generator maps.  The right adjoint
to the free-algebra functor pairs types of the replacement built so far with
the carrier cells of the same boundary, each face term evaluated and spelled once.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .algebra import eval_in_env
from .base import FaceRef, SortRef, check_same_base, memoized
from .computad import (
    Computad,
    ComputadMorphism,
    colimit_var,
    free_computad,
    inclusion,
    is_isomorphism,
    make_morphism,
    skeleton,
)
from .errors import NotCompatible, UnknownSort
from .monad import enumerate_terms, terms_saturated
from .presheaf import action_spine, boundary_representable, bucket_by_spine, homs, representable
from .signature import Signature
from .terms import Term, boundary, fold_term, parts, rename, serialize, speller, var


@memoized("_disk_cache")
def disk_computad(sig: Signature, sort: SortRef) -> Computad:
    """The representable computad on ``sort``, built once per signature."""
    return free_computad(representable(sig.base, sort), sig)


@memoized("_sphere_cache")
def sphere_computad(sig: Signature, sort: SortRef) -> Computad:
    """The boundary of the representable computad on ``sort``, built once
    per signature."""
    return free_computad(boundary_representable(sig.base, sort), sig)


def boundary_inclusion(sig: Signature, sort: SortRef) -> ComputadMorphism:
    """The inclusion of the boundary of the representable computad."""
    if sort not in sig.base.dims:
        raise UnknownSort(f"unknown sort {sort!r}")
    return inclusion(sphere_computad(sig, sort), disk_computad(sig, sort))


def classify_term(c: Computad, t: Term, sort: SortRef) -> ComputadMorphism:
    """The morphism from the representable computad picking out ``t``."""
    disk = disk_computad(c.signature, sort)
    assign = {face: boundary(c, face, t) for face in c.base.faces_into(sort)}
    return make_morphism(disk, c, {f"id_{sort}": t, **assign})


def classify_type(
    c: Computad, sort: SortRef, family: dict[FaceRef, Term]
) -> ComputadMorphism:
    """The morphism from the boundary computad picking out a type."""
    sphere = sphere_computad(c.signature, sort)
    return make_morphism(sphere, c, family)


# -- skeletal filtration -----------------------------------------------------------

@dataclass
class Attachment:
    gen: str
    sort: SortRef
    phi: ComputadMorphism  # sphere -> previous stage: the gluing of ``gen``


@dataclass
class SkeletalStage:
    dim: int
    computad: Computad  # generators of dimension < dim
    attachments: list[Attachment]  # generators of dimension == dim


@dataclass
class SkeletalFiltration:
    computad: Computad
    stages: list[SkeletalStage]

    def inclusions(self) -> list[ComputadMorphism]:
        """Each stage's generator inclusion into the next, unchecked."""
        pairs = zip(self.stages, self.stages[1:])
        return [inclusion(lo.computad, hi.computad) for lo, hi in pairs]


def skeletal_filtration(c: Computad) -> SkeletalFiltration:
    """The stages of ``c`` by dimension, each with the generators attached to
    it.  Each attaching map ``phi`` is built unchecked: the gluing of a
    generator satisfies the cocycle condition, which ``make_computad``
    checked, so it is a morphism from the sphere into the stage below."""
    sig = c.signature
    top = c.base.dimension() + 1
    stages: list[SkeletalStage] = []
    for d in range(top + 1):
        stage = skeleton(c, d - 1)
        attachments: list[Attachment] = []
        for sort in c.base.sorts:
            if c.base.dim(sort) != d:
                continue
            sphere = sphere_computad(sig, sort)
            for gen in c.generators_at(sort):
                phi = ComputadMorphism(sphere, stage, dict(parts(c, var(gen))))
                attachments.append(Attachment(gen, sort, phi))
        stages.append(SkeletalStage(dim=d, computad=stage, attachments=attachments))
    return SkeletalFiltration(computad=c, stages=stages)


def replay_renaming(filtration: SkeletalFiltration) -> dict[str, str]:
    """The fresh name ``g<i>`` of each generator in the replay, counting in
    attachment order."""
    gens = (att.gen for stage in filtration.stages for att in stage.attachments)
    return {gen: f"g{i}" for i, gen in enumerate(gens)}


def replay_filtration(filtration: SkeletalFiltration) -> Computad:
    """Rebuild the computad from the attaching data alone, under
    ``replay_renaming``; the result is isomorphic to the original (unchecked)."""
    sig = filtration.computad.signature
    renaming = replay_renaming(filtration)
    gens: dict[SortRef, tuple[str, ...]] = {s: () for s in sig.base.sorts}
    glue: dict[tuple[str, FaceRef], Term] = {}
    for stage in filtration.stages:
        for att in stage.attachments:
            fresh = renaming[att.gen]
            gens[att.sort] += (fresh,)
            for face, t in att.phi.assign.items():
                glue[(fresh, face)] = rename(t, renaming)
    return Computad(sig, gens, glue)


def verify_stage_pushout(
    stage: SkeletalStage, next_computad: Computad
) -> bool | None:
    """Check that ``next_computad`` is *the* pushout of the stage along the
    boundary inclusions of its attachments: one colimit of the stage and, per
    attachment, a sphere with legs ``phi`` into the stage and the boundary
    inclusion into a disk.  Its comparison map ``to_next`` sends the class of
    a stage generator to that generator, and the class of a disk's top cell
    ``id_<sort>`` to the attached generator.  It is a bijection, since each
    boundary inclusion is injective and misses only the top cell.  It must
    be an isomorphism onto ``next_computad`` (``is_isomorphism``), so a
    pushout under other names reads False.  Returns None unless every
    attaching morphism is variable-to-variable, as the colimit machinery
    requires.
    """
    if not all(att.phi.is_var_to_var() for att in stage.attachments):
        return None
    sig = stage.computad.signature
    nodes = {"stage": stage.computad}
    edges: list[tuple[str, str, dict[str, str]]] = []
    for att in stage.attachments:
        sphere, disk = f"sphere:{att.gen}", f"disk:{att.gen}"
        nodes[sphere] = att.phi.src
        nodes[disk] = disk_computad(sig, att.sort)
        edges.append((sphere, "stage", att.phi.gen_map()))
        edges.append((sphere, disk, boundary_inclusion(sig, att.sort).gen_map()))
    colim = colimit_var(nodes, edges)
    to_next = {cls: gen for gen, cls in colim.legs["stage"].items()}
    for att in stage.attachments:
        to_next[colim.legs[f"disk:{att.gen}"][f"id_{att.sort}"]] = att.gen
    return is_isomorphism(colim.computad, next_computad, to_next)


# -- the underlying computad of an algebra ------------------------------------------

@dataclass
class UndResult:
    computad: Computad
    r_assign: dict[str, str]  # generator -> carrier cell
    exact: bool


def _und_gen_name(family: dict[FaceRef, Term], cell: str, spell=serialize) -> str:
    inner = ";".join(f"{f}={spell(t)}" for f, t in sorted(family.items()))
    return f"({cell}|{inner})"


def underlying_computad(alg, depth_bound: int) -> UndResult:
    """The right-adjoint computad of an algebra, depth-approximated.

    Generators of sort i are pairs (boundary type of the part built so far,
    carrier cell) whose evaluations match, found by looking the type's value
    up among the cells by boundary; exact when term enumeration saturates at
    every sort feeding a boundary (in particular over a discrete base, where
    the generators are exactly the carrier cells).  Unchecked: each gluing
    family is an argument family over the part built so far.
    """
    sig = alg.signature
    cat = sig.base
    gens: dict[SortRef, tuple[str, ...]] = {s: () for s in cat.sorts}
    glue: dict[tuple[str, FaceRef], Term] = {}
    r_assign: dict[str, str] = {}
    values: dict[Term, str] = {}
    spell = speller()  # one spelling memo for the run, as names share their terms
    relevant: set[SortRef] = set()
    for sort in cat.sorts:
        if alg.cells_at(sort):
            relevant |= {cat.face(f).src for f in cat.faces_into(sort)}

    def interpret(u: Term, cells: dict[str, str]) -> str:
        return alg.interpret(u.symbol, cells)

    def evaluate(t: Term) -> str:  # each term once, as a generator keeps its value
        return fold_term(t, r_assign.__getitem__, interpret, values)

    for _, layer in itertools.groupby(cat.sorts, cat.dim):  # sorts by dimension
        lower = Computad(sig, gens, glue)
        for sort in layer:
            faces = cat.faces_into(sort)
            cells_by = bucket_by_spine(alg.cells_at(sort), alg.carrier.spine, faces).get((), {})
            sphere = boundary_representable(cat, sort)
            spine = action_spine(functools.partial(boundary, lower))
            cells, families = homs(sphere, lambda s: enumerate_terms(lower, s, depth_bound), spine)
            names = []
            for found in families:
                family = dict(zip(cells, found))
                for cell in cells_by.get(tuple([evaluate(family[f]) for f in faces]), ()):
                    name = _und_gen_name(family, cell, spell)
                    names.append(name)
                    r_assign[name] = cell
                    for face, t in family.items():
                        glue[(name, face)] = t
            gens[sort] = tuple(sorted(names))
    computad = Computad(sig, gens, glue)
    exact = all(terms_saturated(computad, s, depth_bound) for s in sorted(relevant))
    return UndResult(computad=computad, r_assign=r_assign, exact=exact)


@dataclass
class CofibrantReplacement:
    algebra: object
    und: UndResult

    def r(self, t: Term) -> str:
        """Evaluate a term of the replacement computad in the algebra."""
        return eval_in_env(self.algebra, t, self.und.r_assign)

    def lift_v(self, sort: SortRef, family: dict[FaceRef, Term], cell: str) -> Term:
        """The chosen lift: the generator named by a compatible square."""
        name = _und_gen_name(family, cell)
        if name not in self.und.r_assign:
            raise NotCompatible(
                f"({cell!r}, family) is not a generator of the replacement"
            )
        return var(name)


def cofibrant_replacement(alg, depth_bound: int) -> CofibrantReplacement:
    """The underlying computad; its counit is a morphism because each
    generator's family evaluates to the boundary of its cell."""
    return CofibrantReplacement(algebra=alg, und=underlying_computad(alg, depth_bound))


# -- trivial fibrations ---------------------------------------------------------------

def check_trivial_fibration(
    src, dst, component: dict[str, str]
) -> tuple[bool, tuple | None]:
    """Check the right-lifting property against all boundary inclusions.

    For every sort and every commuting square (boundary type in the source,
    element below), some source cell must restrict to the type and map to the
    element; equivalently (sigma, boundaries) is surjective onto the pullback.
    """
    check_same_base(src.signature, dst.signature, "trivial fibration")
    cat = src.signature.base
    for sort in cat.sorts:
        faces = cat.faces_into(sort)
        fillers = {(component[x], src.carrier.spine(faces, x)[1]) for x in src.cells_at(sort)}
        below_by = bucket_by_spine(dst.cells_at(sort), dst.carrier.spine, faces).get((), {})
        sphere = boundary_representable(cat, sort)
        cells, families = homs(sphere, src.cells_at, src.carrier.spine)
        for found in families:
            family = dict(zip(cells, found))
            boundary_cells = tuple(family[f] for f in faces)
            image = tuple(component[x] for x in boundary_cells)
            for below in below_by.get(image, ()):
                if (below, boundary_cells) not in fillers:
                    return False, (sort, family, below)
    return True, None
