"""Oracle for the constructions the kernel builds without checking.

Colimits, image factorisations, lifts through monos, counits, representing
computads, replayed filtrations and underlying computads are well formed by
construction, so the kernel builds them unchecked.  This test re-runs the
checked constructors on every computad and morphism they return.
"""

import random

import pytest

from computads.algebra import morphism_from_generators
from computads.cofibrant import (
    boundary_inclusion,
    replay_filtration,
    skeletal_filtration,
    underlying_computad,
    verify_stage_pushout,
)
from computads.computad import (
    Computad,
    coproduct,
    enumerate_var_to_var,
    identity_morphism,
    make_computad,
    make_morphism,
    pushout,
    skeleton_counit,
)
from computads.factorization import image_factorize, lift_through_mono
from computads.monad import counit, enumerate_terms
from computads.packs import sigma_kan
from computads.plex import (
    classifying_morphism,
    enumerate_polyplexes,
    polyplex_computad,
    reconstruct_from_nerve,
)
from computads.terms import Var

from fixtures import (
    comp_signature,
    comp_uv,
    pathcat_algebra,
    random_computad_comp,
    random_morphism_comp,
    walk2,
    walk_n,
    z5_algebra,
)


def _computads(seed: int, count: int = 6):
    sig = comp_signature()
    rng = random.Random(seed)
    return [walk2(sig), walk_n(sig, 3)] + [
        random_computad_comp(sig, rng, tag=f"c{i}") for i in range(count)
    ]


def _random_morphisms(seed: int, count: int = 8):
    sig = comp_signature()
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        src = random_computad_comp(sig, rng, tag="a")
        dst = random_computad_comp(sig, rng, tag="b")
        m = random_morphism_comp(sig, src, dst, rng)
        if m is not None:
            out.append(m)
    return out


def _colimits():
    sig = comp_signature()
    cs = _computads(1)
    out = []
    colims = [coproduct(cs[:3]), coproduct(cs[3:])]
    rng = random.Random(2)
    for _ in range(6):
        a, b, d = (random_computad_comp(sig, rng, tag=t) for t in "abd")
        left, right = enumerate_var_to_var(a, b), enumerate_var_to_var(a, d)
        if left and right:
            colims.append(pushout(rng.choice(left), rng.choice(right)))
    for c in (walk2(sig), walk_n(sig, 2)):
        # quotients of c by its own endomorphisms
        for m in enumerate_var_to_var(c, c)[:4]:
            colims.append(pushout(m, identity_morphism(c)))
    for colim in colims:
        out.append(colim.computad)
        out.extend(colim.legs.values())
    return out


def _skeleton_counits():
    return [skeleton_counit(c, n) for c in _computads(3) for n in (0, 1)]


def _counits():
    sig = comp_signature()
    return [counit(walk2(sig), 1), counit(walk_n(sig, 3), 0)] + [
        counit(c, 1) for c in _computads(4, 3)
    ]


def _factorizations():
    out = []
    for sigma in _random_morphisms(5):
        pi, middle, iota = image_factorize(sigma)
        out += [pi, middle, iota]
    return out


def _lifts():
    out = []
    for sigma in _random_morphisms(6):
        _, _, iota = image_factorize(sigma)
        lift = lift_through_mono(iota, sigma)
        assert lift is not None
        out.append(lift)
    return out


def _representing_computads():
    out = []
    for sig, sorts in ((comp_signature(), ("o", "a")), (sigma_kan(2), ("[1]",))):
        for sort in sorts:
            for p in enumerate_polyplexes(sig, sort, 2):
                rep = polyplex_computad(sig, p)
                out += [rep.computad, classifying_morphism(rep.computad, rep.universal)]
                if rep.colimit is not None:
                    out += list(rep.colimit.legs.values())
    return out


def _classifying_morphisms():
    out = []
    for c in _computads(7):
        terms = [Var(g) for _, g in c.all_generators()] + enumerate_terms(c, "a", 1)
        out += [classifying_morphism(c, t) for t in terms]
        out.append(reconstruct_from_nerve(c))
    out.append(classifying_morphism(walk2(), comp_uv()))
    return out


def _filtrations():
    sig = comp_signature()
    incls = []

    def recording_pushout(left, right):
        incls.append(left)
        return pushout(left, right)

    out = [boundary_inclusion(sig, s) for s in sig.base.sorts]
    with pytest.MonkeyPatch.context() as mp:
        # verify_stage_pushout builds its boundary inclusion internally and
        # hands it to pushout as the left leg
        mp.setattr("computads.computad.pushout", recording_pushout)
        mp.setattr("computads.cofibrant.pushout", recording_pushout, raising=False)
        for c in _computads(8):
            filt = skeletal_filtration(c)
            out.append(replay_filtration(filt))
            out += filt.inclusions()
            for lo, hi in zip(filt.stages, filt.stages[1:]):
                verify_stage_pushout(lo, hi.computad)
    assert incls
    return out + incls


def _underlying():
    out = []
    for alg, depth in ((z5_algebra(), 2), (pathcat_algebra(), 2), (pathcat_algebra(), 1)):
        und = underlying_computad(alg, depth)
        morphism_from_generators(und.computad, alg, und.r_assign)
        out.append(und.computad)
    return out


def _recheck(obj) -> None:
    if isinstance(obj, Computad):
        assert make_computad(obj.signature, obj.gens, obj.glue) == obj
    else:
        _recheck(obj.src)
        _recheck(obj.dst)
        assert make_morphism(obj.src, obj.dst, obj.assign) == obj


@pytest.mark.parametrize(
    "construct",
    [
        _colimits,
        _skeleton_counits,
        _counits,
        _factorizations,
        _lifts,
        _representing_computads,
        _classifying_morphisms,
        _filtrations,
        _underlying,
    ],
    ids=lambda f: f.__name__.lstrip("_"),
)
def test_unchecked_constructions_pass_the_checked_constructors(construct):
    results = construct()
    assert results
    for obj in results:
        _recheck(obj)
