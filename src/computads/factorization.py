"""Supports and the (epi, variable-to-variable mono) factorisation system.

The support of a term collects the generators it depends on, including
recursively the generators appearing in the gluings of its variables.  A
morphism factors through a variable-to-variable mono exactly when its support
is contained in the mono's image, and every morphism factors as one with full
support followed by such a mono.
"""

from __future__ import annotations

from .base import SortRef
from .computad import (
    Computad,
    ComputadMorphism,
    compose_morphisms,
    free_computad,
    identity_morphism,
    inclusion,
)
from .errors import NotIdempotent, NotMono, SideConditionFailure
from .presheaf import PresheafMorphism
from .terms import App, Term, Var, rename, var


def support(c: Computad, t: Term) -> dict[SortRef, frozenset[str]]:
    """Support of a term at every sort, per the recursive definition.

    The walk is post-order over an explicit stack, so the depth of ``t`` is
    not bounded by the recursion limit.  The support of every subterm and
    gluing it meets is kept in the computad's ``_supp_cache`` table, under
    the key ``(term,)``, as :func:`base.memoized` keeps its entries.
    """
    cache = c.__dict__.setdefault("_supp_cache", {})
    known = cache.get((t,))
    return known if known is not None else _support_walk(c, t, cache)


def _support_walk(c: Computad, t: Term, cache: dict) -> dict[SortRef, frozenset[str]]:
    sorts = c.base.sorts
    todo = [t]
    while todo:
        u = todo[-1]
        if (u,) in cache:
            todo.pop()
            continue
        if isinstance(u, Var):
            sort = c.gen_sort(u.gen)
            parts = [c.gluing(u.gen, face) for face in c.base.faces_into(sort)]
        else:
            assert isinstance(u, App)
            parts = [v for _, v in u.args]
        found = [cache.get((v,)) for v in parts]
        if None in found:
            todo.extend(v for v, supp in zip(parts, found) if supp is None)
            continue
        todo.pop()
        out: dict[SortRef, set[str]] = {s: set() for s in sorts}
        if isinstance(u, Var):
            out[sort].add(u.gen)
        for supp in found:
            for s, gens in supp.items():
                out[s] |= gens
        cache[(u,)] = {s: frozenset(gens) for s, gens in out.items()}
    return cache[(t,)]


def support_term(c: Computad, t: Term, sort: SortRef) -> frozenset[str]:
    return support(c, t).get(sort, frozenset())


def support_morphism(m: ComputadMorphism) -> dict[SortRef, frozenset[str]]:
    """Union of the supports of the generator images, computed in the target."""
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


def _mono_inverse(rho: ComputadMorphism) -> dict[str, str]:
    if not rho.is_var_to_var():
        raise NotMono("lifting requires a variable-to-variable morphism")
    gen_map = rho.gen_map()
    if len(set(gen_map.values())) != len(gen_map):
        raise NotMono("lifting requires injective generator maps")
    return {v: g for g, v in gen_map.items()}


def lift_term_through_mono(
    rho: ComputadMorphism, c_target: Computad, t: Term
) -> Term | None:
    """The unique term over rho.src that rho maps to ``t``, if supported."""
    inverse = _mono_inverse(rho)
    supp = support(c_target, t)
    image = support_morphism(rho)
    for s, gens in supp.items():
        if not gens <= image.get(s, frozenset()):
            return None
    return rename(t, inverse)


def require_full_composite(
    incl: PresheafMorphism, whole: Computad, t: Term, not_lifted: str, not_full: str
) -> None:
    """The side condition of the coherence constructors: ``t``, a term over
    the free computad ``whole`` on ``incl.dst``, must lift through the
    variable-to-variable mono that ``incl`` induces, to a term with full
    support.  Raises SideConditionFailure(not_lifted) or (not_full).  The
    mono is unchecked: ``incl`` commutes with the action gluing both sides."""
    part = free_computad(incl.src, whole.signature)
    assign = {g: var(h) for g, h in incl.component.items()}
    mono = ComputadMorphism(part, whole, assign)
    lifted = lift_term_through_mono(mono, whole, t)
    if lifted is None:
        raise SideConditionFailure(not_lifted)
    supp = support(part, lifted)
    if any(set(part.generators_at(s)) - supp[s] for s in part.base.sorts):
        raise SideConditionFailure(not_full)


def lift_through_mono(
    rho: ComputadMorphism, sigma: ComputadMorphism
) -> ComputadMorphism | None:
    """Factor ``sigma`` through the variable-to-variable mono ``rho``.

    Returns the unique morphism sigma' with rho . sigma' = sigma when the
    support of sigma is contained in that of rho, and None otherwise.  It is
    unchecked: renaming back along a mono preserves typing and boundaries.
    """
    inverse = _mono_inverse(rho)
    image = support_morphism(rho)
    supp = support_morphism(sigma)
    for s, gens in supp.items():
        if not gens <= image.get(s, frozenset()):
            return None
    assign = {g: rename(t, inverse) for g, t in sigma.assign.items()}
    return ComputadMorphism(sigma.src, rho.src, assign)


def image_factorize(
    sigma: ComputadMorphism,
) -> tuple[ComputadMorphism, Computad, ComputadMorphism]:
    """Factor sigma as (epi with full support) then (var-to-var mono).

    The middle computad has the support of sigma as generators; its gluings
    are the target's gluings, which stay inside the support because supports
    are closed under boundaries; so all three are built unchecked.
    """
    dst = sigma.dst
    supp = support_morphism(sigma)
    gens = {
        s: tuple(g for g in dst.generators_at(s) if g in supp.get(s, frozenset()))
        for s in dst.base.sorts
    }
    glue = {
        (g, face): t
        for (g, face), t in dst.glue.items()
        if g in {x for gs in gens.values() for x in gs}
    }
    middle = Computad(dst.signature, gens, glue)
    pi = ComputadMorphism(sigma.src, middle, dict(sigma.assign))
    return pi, middle, inclusion(middle, dst)


def split_idempotent(
    e: ComputadMorphism,
) -> tuple[ComputadMorphism, ComputadMorphism]:
    """Split an idempotent endomorphism as (retraction, section) through its
    support computad; the retraction then section composite is the identity."""
    if e.src.gens != e.dst.gens or compose_morphisms(e, e) != e:
        raise NotIdempotent("split_idempotent requires an idempotent endomorphism")
    pi, middle, iota = image_factorize(e)
    roundtrip = compose_morphisms(pi, iota)
    assert roundtrip == identity_morphism(middle)
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
    diag = lift_through_mono(mono, bottom)
    return diag
