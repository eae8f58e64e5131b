"""Boundary inclusions, skeletal filtration, the underlying computad of an
algebra, and trivial-fibration checking.

The representable computad on a sort i classifies terms of sort i; its
boundary classifies types (compatible boundary families).  Every computad is
rebuilt from the empty one by attaching generators along their boundary types
dimension by dimension, and the right adjoint to the free-algebra functor is
computed by pairing types of the replacement built so far with carrier cells.
"""

from __future__ import annotations

from dataclasses import dataclass

from .base import FaceRef, SortRef, memoized
from .computad import (
    Computad,
    ComputadMorphism,
    colimit_var,
    free_computad,
    inclusion,
    isomorphic,
    make_morphism,
    pushout,
)
from .errors import NotCompatible, UnknownSort
from .monad import argument_families, terms_saturated
from .presheaf import boundary_representable, hom_families, representable, search
from .signature import Signature
from .terms import Term, Var, boundary, rename, serialize


@memoized("_disk_cache")
def disk_computad(sig: Signature, sort: SortRef) -> Computad:
    """The representable computad on ``sort``, built once per signature."""
    return free_computad(representable(sig.base, sort), sig)


@memoized("_sphere_cache")
def sphere_computad(sig: Signature, sort: SortRef) -> Computad:
    """The boundary of the representable computad on ``sort``, built once
    per signature."""
    sub, _ = boundary_representable(sig.base, sort)
    return free_computad(sub, sig)


def boundary_inclusion(sig: Signature, sort: SortRef) -> ComputadMorphism:
    """The inclusion of the boundary of the representable computad."""
    if sort not in sig.base.dims:
        raise UnknownSort(f"unknown sort {sort!r}")
    return inclusion(sphere_computad(sig, sort), disk_computad(sig, sort))


def classify_term(c: Computad, t: Term, sort: SortRef) -> ComputadMorphism:
    """The morphism from the representable computad picking out ``t``."""
    disk = disk_computad(c.signature, sort)
    assign: dict[str, Term] = {f"id_{sort}": t}
    for face in c.base.faces_into(sort):
        assign[face] = boundary(c, face, t)
    return make_morphism(disk, c, assign)


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
    family: dict[FaceRef, Term]  # boundary type over the previous stage
    phi: ComputadMorphism  # sphere -> previous stage
    psi: ComputadMorphism  # disk -> next stage


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


def _strata(c: Computad, below: int) -> Computad:
    gens = {
        s: c.generators_at(s) if c.base.dim(s) < below else ()
        for s in c.base.sorts
    }
    kept = {g for gs in gens.values() for g in gs}
    glue = {(g, f): t for (g, f), t in c.glue.items() if g in kept}
    return Computad(c.signature, gens, glue)


def skeletal_filtration(c: Computad) -> SkeletalFiltration:
    top = c.base.dimension() + 1
    stages: list[SkeletalStage] = []
    for d in range(top + 1):
        stage = _strata(c, d)
        attachments: list[Attachment] = []
        if d < top:
            next_stage = _strata(c, d + 1)
            for sort in c.base.sorts:
                if c.base.dim(sort) != d:
                    continue
                for gen in c.generators_at(sort):
                    family = {
                        face: c.gluing(gen, face)
                        for face in c.base.faces_into(sort)
                    }
                    phi = classify_type(stage, sort, family)
                    psi = classify_term(next_stage, Var(gen), sort)
                    attachments.append(
                        Attachment(gen=gen, sort=sort, family=family, phi=phi, psi=psi)
                    )
        stages.append(SkeletalStage(dim=d, computad=stage, attachments=attachments))
    return SkeletalFiltration(computad=c, stages=stages)


def replay_filtration(filtration: SkeletalFiltration) -> Computad:
    """Rebuild the computad from the attaching data alone, with fresh
    generator names; the result is isomorphic to the original (unchecked)."""
    sig = filtration.computad.signature
    renaming: dict[str, str] = {}
    gens: dict[SortRef, tuple[str, ...]] = {s: () for s in sig.base.sorts}
    glue: dict[tuple[str, FaceRef], Term] = {}
    counter = 0
    for stage in filtration.stages:
        for att in stage.attachments:
            fresh = f"g{counter}"
            counter += 1
            renaming[att.gen] = fresh
            gens[att.sort] = gens[att.sort] + (fresh,)
            for face, t in att.family.items():
                glue[(fresh, face)] = rename(t, renaming)
    return Computad(sig, gens, glue)


def verify_stage_pushout(
    stage: SkeletalStage, next_computad: Computad
) -> bool | None:
    """Check the attaching square against an actual computad pushout.

    Only applies when every attaching morphism is variable-to-variable (the
    pushout of algebras always exists, but the computad colimit machinery
    requires generator-preserving legs); returns None otherwise.
    """
    if not stage.attachments:
        return isomorphic(stage.computad, next_computad)
    if not all(att.phi.is_var_to_var() for att in stage.attachments):
        return None
    sig = stage.computad.signature
    sphere_nodes = {att.gen: att.phi.src for att in stage.attachments}
    disk_nodes = {att.gen: disk_computad(sig, att.sort) for att in stage.attachments}
    sph_cop = colimit_var(sphere_nodes, [])
    disk_cop = colimit_var(disk_nodes, [])
    # boundary inclusion on each tagged summand, a coproduct of inclusions
    incl = ComputadMorphism(
        sph_cop.computad,
        disk_cop.computad,
        {
            sph_cop.classes[(att.gen, g)]: Var(disk_cop.classes[(att.gen, g)])
            for att in stage.attachments
            for _, g in att.phi.src.all_generators()
        },
    )
    attach = sph_cop.mediate({att.gen: att.phi for att in stage.attachments})
    po = pushout(incl, attach)
    return isomorphic(po.computad, next_computad)


# -- the underlying computad of an algebra ------------------------------------------

@dataclass
class UndResult:
    computad: Computad
    r_assign: dict[str, str]  # generator -> carrier cell
    gen_info: dict[str, tuple[dict[FaceRef, Term], str]]
    exact: bool
    depth: int


def _und_gen_name(family: dict[FaceRef, Term], cell: str) -> str:
    inner = ";".join(f"{f}={serialize(t)}" for f, t in sorted(family.items()))
    return f"({cell}|{inner})"


def underlying_computad(alg, depth_bound: int) -> UndResult:
    """The right-adjoint computad of an algebra, depth-approximated.

    Generators of sort i are pairs (boundary type of the part built so far,
    carrier cell) whose evaluations match; exact when term enumeration
    saturates at every sort feeding a boundary (in particular over a discrete
    base, where the generators are exactly the carrier cells).  Unchecked: each
    gluing family is an argument family over the part built so far.
    """
    sig = alg.signature
    cat = sig.base
    gens: dict[SortRef, tuple[str, ...]] = {s: () for s in cat.sorts}
    glue: dict[tuple[str, FaceRef], Term] = {}
    r_assign: dict[str, str] = {}
    gen_info: dict[str, tuple[dict[FaceRef, Term], str]] = {}
    relevant: set[SortRef] = set()
    for sort in cat.sorts:
        if alg.cells_at(sort):
            relevant |= {cat.face(f).src for f in cat.faces_into(sort)}

    dims = sorted({cat.dim(s) for s in cat.sorts})
    for d in dims:
        lower = Computad(sig, gens, glue)
        from .algebra import GeneratorEvaluation

        evaluate = GeneratorEvaluation(computad=lower, algebra=alg, assign=r_assign)
        for sort in cat.sorts:
            if cat.dim(sort) != d:
                continue
            sphere, _ = boundary_representable(cat, sort)
            families = argument_families(lower, sphere, depth_bound)
            names = []
            for family in families:
                for cell in alg.cells_at(sort):
                    if all(
                        evaluate(family[face]) == alg.act(face, cell)
                        for face in cat.faces_into(sort)
                    ):
                        name = _und_gen_name(family, cell)
                        names.append(name)
                        r_assign[name] = cell
                        gen_info[name] = (dict(family), cell)
                        for face, t in family.items():
                            glue[(name, face)] = t
            gens[sort] = tuple(sorted(names))
    computad = Computad(sig, gens, glue)
    exact = all(terms_saturated(computad, s, depth_bound) for s in sorted(relevant))
    return UndResult(
        computad=computad,
        r_assign=r_assign,
        gen_info=gen_info,
        exact=exact,
        depth=depth_bound,
    )


@dataclass
class CofibrantReplacement:
    algebra: object
    und: UndResult

    def r(self, t: Term) -> str:
        """Evaluate a term of the replacement computad in the algebra."""
        from .algebra import eval_in_env

        return eval_in_env(self.algebra, t, self.und.r_assign)

    def lift_v(self, sort: SortRef, family: dict[FaceRef, Term], cell: str) -> Term:
        """The chosen lift: the generator named by a compatible square."""
        name = _und_gen_name(family, cell)
        if name not in self.und.gen_info:
            raise NotCompatible(
                f"({cell!r}, family) is not a generator of the replacement"
            )
        return Var(name)


def cofibrant_replacement(alg, depth_bound: int) -> CofibrantReplacement:
    """The underlying computad; its counit is a morphism because each
    generator's family evaluates to the boundary of its cell."""
    return CofibrantReplacement(algebra=alg, und=underlying_computad(alg, depth_bound))


# -- trivial fibrations ---------------------------------------------------------------

def check_trivial_fibration(
    src, dst, component: dict[str, str], sorts=None
) -> tuple[bool, tuple | None]:
    """Check the right-lifting property against all boundary inclusions.

    For every sort and every commuting square (boundary type in the source,
    element below), some source cell must restrict to the type and map to the
    element; equivalently (sigma, boundaries) is surjective onto the pullback.
    """
    cat = src.signature.base
    sorts = list(sorts) if sorts is not None else list(cat.sorts)
    for sort in sorts:
        faces = cat.faces_into(sort)
        fillers = {
            (component[x], tuple(src.act(f, x) for f in faces))
            for x in src.cells_at(sort)
        }
        below_by: dict[tuple, list[str]] = {}
        for below in dst.cells_at(sort):
            profile = tuple(dst.act(f, below) for f in faces)
            below_by.setdefault(profile, []).append(below)
        sphere, _ = boundary_representable(cat, sort)
        for family in search(hom_families(sphere, src.cells_at, src.act)):
            boundary_cells = tuple(family[f] for f in faces)
            image = tuple(component[x] for x in boundary_cells)
            for below in below_by.get(image, ()):
                if (below, boundary_cells) not in fillers:
                    return False, (sort, family, below)
    return True, None
