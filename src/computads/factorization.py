"""Supports and the (epi, variable-to-variable mono) factorisation system.

The support of a term collects the generators it depends on, including
recursively the generators appearing in the gluings of its variables.  A
morphism factors through a variable-to-variable mono exactly when its support
is contained in the mono's image, and every morphism factors as one with full
support followed by such a mono.  The coherence constructor behind the grid
and globe packs asks that each side of a pasting shape factor this way
through the inclusion of its boundary shape, with full support, as the
packs' own composites do by construction (``coherent_composite``).
"""

from __future__ import annotations

from functools import partial

from .base import FaceRef, SortRef, memo_table, memoized
from .computad import (
    Computad,
    ComputadMorphism,
    compose_morphisms,
    free_computad,
    inclusion,
    sub_computad,
)
from .errors import CocycleFailure, NotIdempotent, NotMono, SideConditionFailure
from .presheaf import Presheaf, PresheafMorphism
from .signature import FunctionSymbol, Signature, complete_boundary, extend_signature
from .terms import Term, Var, app, attached, check_term, fold, rename, var


def support(c: Computad, t: Term) -> dict[SortRef, frozenset[str]]:
    """Support of a term at every sort, per the recursive definition: the
    generators of ``t`` and, through the parts of each, of its gluings.

    One fold over the parts; its memo is the computad's ``_supp_cache``
    table, which keeps the support of every subterm and gluing it meets.
    """

    def build(u: Term, below) -> dict[SortRef, frozenset[str]]:
        out: dict[SortRef, set[str]] = {s: set() for s in c.base.sorts}
        if isinstance(u, Var):
            out[c.gen_sort(u.gen)].add(u.gen)
        for supp in below.values():
            for s, gens in supp.items():
                out[s] |= gens
        return {s: frozenset(gens) for s, gens in out.items()}

    return fold(t, partial(attached, c), build, memo_table(c, "_supp_cache"))


def support_term(c: Computad, t: Term, sort: SortRef) -> frozenset[str]:
    return support(c, t).get(sort, frozenset())


@memoized("_supp_morphism_cache")
def support_morphism(m: ComputadMorphism) -> dict[SortRef, frozenset[str]]:
    """Union of the supports of the generator images, computed in the target;
    once per morphism."""
    out: dict[SortRef, set[str]] = {s: set() for s in m.dst.base.sorts}
    for _, gen in m.src.all_generators():
        for s, gens in support(m.dst, m.assign[gen]).items():
            out[s] |= gens
    return {s: frozenset(gens) for s, gens in out.items()}


def is_epi(m: ComputadMorphism) -> bool:
    """Support criterion: epimorphisms are the morphisms whose support
    contains every generator of the target."""
    supp = support_morphism(m)
    return all(
        set(m.dst.generators_at(s)) <= supp.get(s, frozenset())
        for s in m.dst.base.sorts
    )


@memoized("_mono_inverse_cache")
def _mono_inverse(rho: ComputadMorphism) -> dict[str, str]:
    """The inverse of the generator map of a variable-to-variable mono, once
    per morphism; raises NotMono otherwise."""
    if not rho.is_var_to_var():
        raise NotMono("lifting requires a variable-to-variable morphism")
    gen_map = rho.gen_map()
    if len(set(gen_map.values())) != len(gen_map):
        raise NotMono("lifting requires injective generator maps")
    return {v: g for g, v in gen_map.items()}


def lift_through_mono(
    rho: ComputadMorphism, sigma: ComputadMorphism
) -> ComputadMorphism | None:
    """Factor ``sigma`` through the variable-to-variable mono ``rho``.

    Returns the unique morphism sigma' with rho . sigma' = sigma when the
    support of sigma is contained in that of rho, and None otherwise.  The
    support of ``rho`` is its image, the keys of its inverse: a morphism
    sends every gluing into the image.  It is unchecked: renaming back along
    a mono preserves typing and boundaries.
    """
    inverse = _mono_inverse(rho)
    if any(not gens <= inverse.keys() for gens in support_morphism(sigma).values()):
        return None
    assign = {g: rename(t, inverse) for g, t in sigma.assign.items()}
    return ComputadMorphism(sigma.src, rho.src, assign)


@memoized("_image_cache")
def image_factorize(
    sigma: ComputadMorphism,
) -> tuple[ComputadMorphism, Computad, ComputadMorphism]:
    """Factor sigma as (epi with full support) then (var-to-var mono), once per morphism.

    The middle computad has the support of sigma as generators; its gluings
    are the target's gluings, which stay inside the support because supports
    are closed under boundaries; so all three are built unchecked.
    """
    dst = sigma.dst
    supp = support_morphism(sigma)
    middle = sub_computad(dst, dst.signature, lambda s, g: g in supp[s])
    pi = ComputadMorphism(sigma.src, middle, dict(sigma.assign))
    return pi, middle, inclusion(middle, dst)


def split_idempotent(
    e: ComputadMorphism,
) -> tuple[ComputadMorphism, ComputadMorphism]:
    """Split an idempotent endomorphism as (retraction, section) through its
    support computad; the retraction then section composite is the identity."""
    if e.src != e.dst or compose_morphisms(e, e) != e:
        raise NotIdempotent("split_idempotent requires an idempotent endomorphism")
    pi, _, iota = image_factorize(e)
    return pi, iota


def orthogonal_lift(
    epi: ComputadMorphism,
    mono: ComputadMorphism,
    top: ComputadMorphism,
    bottom: ComputadMorphism,
) -> ComputadMorphism | None:
    """Diagonal filler for a commuting square bottom . epi = mono . top.

    With epi in the left class and mono a variable-to-variable monomorphism,
    the filler exists and is unique.
    """
    if compose_morphisms(bottom, epi) != compose_morphisms(mono, top):
        return None
    return lift_through_mono(mono, bottom)


def coherence(
    lower: Signature,
    name: str,
    sort: SortRef,
    positions: Presheaf,
    sides: dict[FaceRef, tuple[Term, PresheafMorphism, str, str]],
    groupoid: bool,
) -> Signature:
    """``lower`` with the coherence symbol ``name`` of sort ``sort``, whose
    arity is the pasting shape ``positions``.

    ``sides[face]`` is ``(term, incl, not_lifted, not_full)``: the boundary
    term at ``face``, over the free computad on ``positions``, and the
    inclusion of the boundary shape it composes.  Unless ``groupoid``, each
    term must be a full composite of its shape: it lifts through the
    variable-to-variable mono that ``incl`` induces, to a term with full
    support.  That mono's image is closed under the action and supports
    commute with renaming along it, so this asks that the term's support lie
    inside the image of ``incl`` (else SideConditionFailure(not_lifted)) and
    cover it (else SideConditionFailure(not_full)).  The sides agree where
    they meet exactly when the boundary terms satisfy the cocycle, so its
    CocycleFailure is raised as SideConditionFailure.
    """
    whole = free_computad(positions, lower)
    for face, (t, _, _, _) in sides.items():
        check_term(whole, t, expected_sort=lower.base.face(face).src)
    if not groupoid:
        for t, incl, not_lifted, not_full in sides.values():
            supp = frozenset().union(*support(whole, t).values())
            image = set(incl.component.values())
            if not supp <= image:
                raise SideConditionFailure(not_lifted)
            if supp != image:
                raise SideConditionFailure(not_full)
    boundary = {face: side[0] for face, side in sides.items()}
    try:
        return extend_signature(lower, (name, sort, positions, boundary))
    except CocycleFailure as exc:
        raise SideConditionFailure(
            f"the sides of {name} disagree where they meet: {exc}"
        ) from exc


def coherent_composite(
    lower: Signature, name: str, sort: SortRef, positions: Presheaf,
    sides: dict[FaceRef, tuple[Term, PresheafMorphism]],
) -> tuple[Signature, Term]:
    """``lower`` with the coherence symbol ``name`` of sort ``sort`` on the
    pasting shape ``positions``, and the canonical composite: that symbol
    applied to every position.  ``sides[face]`` is ``(composite, incl)``, the
    canonical composite of a boundary shape and its inclusion; the boundary
    term at ``face`` renames the one along the other.  Unchecked: each side
    is then a full composite through ``incl``, and the sides agree where they
    meet, since the boundary inclusions compose as the category's faces do;
    ``tests/test_trusted.py`` rebuilds each symbol through :func:`coherence`."""
    given = {face: rename(t, incl.component) for face, (t, incl) in sides.items()}
    terms = complete_boundary(lower.base, sort, given, free_computad(positions, lower))
    symbol = FunctionSymbol(name, sort, positions, terms)
    sig = Signature(base=lower.base, symbols={**lower.symbols, name: symbol})
    return sig, app(name, {c: var(c) for cs in positions.cells.values() for c in cs})
