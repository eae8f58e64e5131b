import random

import pytest

from computads.computad import (
    apply_morphism,
    enumerate_var_to_var,
    free_computad,
    isomorphic,
    make_computad,
)
from computads.errors import KernelError
from computads.io_json import computad_to_json
from computads.monad import enumerate_terms
from computads.plex import (
    classify,
    classifying_morphism,
    enumerate_polyplexes,
    is_plex,
    nerve,
    pboundary,
    polyplex_computad,
    pvar,
    reconstruct_from_nerve,
)
from computads.presheaf import make_presheaf, representable
from computads.signature import build_signature
from computads.terms import app, boundary, var

import oracles
from fixtures import (
    arrow_category,
    comp_signature,
    comp_uv,
    law_families,
    random_computad,
    random_computad_comp,
    random_families,
    relabelled,
    walk2,
    walk_n,
)
from oracles import mediated_classifying_morphism


def generic_object():
    return pvar("o", {})


def generic_arrow():
    return pvar("a", {"s": generic_object(), "t": generic_object()})


def test_classify_zero_generator():
    c = walk2()
    assert classify(c, var("p")) == generic_object()


def test_classify_arrow_generator():
    c = walk2()
    assert classify(c, var("u")) == generic_arrow()


def test_classify_composite():
    c = walk2()
    p = classify(c, comp_uv())
    assert not is_plex(p)
    assert p.symbol == "comp"
    assert p.arg_map()["f"] == generic_arrow()
    assert p.arg_map()["x"] == generic_object()


def test_classify_commutes_with_boundary():
    sig = comp_signature()
    rng = random.Random(9)
    for _ in range(15):
        c = random_computad_comp(sig, rng)
        for t in enumerate_terms(c, "a", 2):
            p = classify(c, t)
            for face in ("s", "t"):
                assert classify(c, boundary(c, face, t)) == pboundary(sig, face, p)


def test_classification_invariant_under_var_to_var():
    sig = comp_signature()
    c = walk2(sig)
    d = random_computad_comp(sig, random.Random(1), max_obj=4, max_arr=4)
    for m in enumerate_var_to_var(c, d)[:10]:
        for t in enumerate_terms(c, "a", 2):
            assert classify(d, apply_morphism(m, t)) == classify(c, t)


def test_enumerate_polyplexes_objects():
    sig = comp_signature()
    assert enumerate_polyplexes(sig, "o", 3) == [generic_object()]


def test_enumerate_polyplexes_arrows():
    sig = comp_signature()
    at0 = enumerate_polyplexes(sig, "a", 0)
    assert at0 == [generic_arrow()]
    at1 = enumerate_polyplexes(sig, "a", 1)
    assert len(at1) == 2
    assert generic_arrow() in at1
    at2 = enumerate_polyplexes(sig, "a", 2)
    # chains of composition shapes: ga, c[ga,ga], c[c,ga], c[ga,c], c[c,c]
    assert len(at2) == 5


def test_polyplex_computad_object_is_disk():
    sig = comp_signature()
    rep = polyplex_computad(sig, generic_object())
    disk = free_computad(representable(sig.base, "o"), sig)
    assert isomorphic(rep.computad, disk)
    assert rep.universal == var("*o")


def test_polyplex_computad_arrow_is_disk():
    sig = comp_signature()
    rep = polyplex_computad(sig, generic_arrow())
    disk = free_computad(representable(sig.base, "a"), sig)
    assert isomorphic(rep.computad, disk)


def test_polyplex_computad_of_composite_is_walk2():
    sig = comp_signature()
    c = walk2(sig)
    p = classify(c, comp_uv())
    rep = polyplex_computad(sig, p)
    assert isomorphic(rep.computad, c)
    assert classify(rep.computad, rep.universal) == p


def test_classifying_morphism_sends_universal_to_term():
    sig = comp_signature()
    c = walk2(sig)
    for t in enumerate_terms(c, "a", 2):
        m = classifying_morphism(c, t)
        rep = polyplex_computad(sig, classify(c, t))
        assert m.is_var_to_var()
        assert apply_morphism(m, rep.universal) == t


def test_representability_counts():
    # |Hom_var(|p|, C)| equals the number of terms of C with shape p.
    sig = comp_signature()
    cs = {
        "walk2": walk2(sig),
        "disk": free_computad(representable(sig.base, "a"), sig),
    }
    for c in cs.values():
        for sort in ("o", "a"):
            terms = enumerate_terms(c, sort, 2)
            for p in enumerate_polyplexes(sig, sort, 2):
                rep = polyplex_computad(sig, p)
                homs = enumerate_var_to_var(rep.computad, c)
                fibre = [t for t in terms if classify(c, t) == p]
                assert len(homs) == len(fibre), (sort, p)


def test_nerve_of_walk2():
    c = walk2()
    fibres = nerve(c)
    assert fibres[generic_object()] == ("p", "q", "r")
    assert fibres[generic_arrow()] == ("u", "v")


def test_nerve_of_empty():
    from computads.computad import make_computad

    empty = make_computad(comp_signature(), {}, {})
    assert nerve(empty) == {}


def test_nerve_of_disk():
    sig = comp_signature()
    disk = free_computad(representable(sig.base, "a"), sig)
    fibres = nerve(disk)
    assert fibres[generic_object()] == ("s", "t")
    assert fibres[generic_arrow()] == ("id_a",)


def test_reconstruct_walk2():
    c = walk2()
    rebuilt = reconstruct_from_nerve(c)
    assert isomorphic(rebuilt, c)


def test_reconstruct_random_comp_computads():
    sig = comp_signature()
    rng = random.Random(17)
    for _ in range(10):
        c = random_computad_comp(sig, rng)
        rebuilt = reconstruct_from_nerve(c)
        assert isomorphic(rebuilt, c)


def test_reconstruction_matches_the_searched_reconstruction():
    cs = random_families()
    assert sum(c.base.dim(s) == 2 for c in cs for s, _ in c.all_generators()) > 5
    for c in cs:
        rebuilt = reconstruct_from_nerve(c)
        assert computad_to_json(rebuilt) == computad_to_json(oracles.searched_reconstruction(c))
        assert isomorphic(rebuilt, c)


def test_reconstruction_searches_nothing(monkeypatch):
    from computads import presheaf
    from computads.packs import sigma_kan

    cs = [relabelled(walk_n(comp_signature(), 6), random.Random(3)), _kan_fixture()[1]]
    cs.append(random_computad(sigma_kan(1), random.Random(4), max_gens=3))
    expected = [computad_to_json(oracles.searched_reconstruction(c)) for c in cs]

    def refuse(*args):
        raise AssertionError("the nerve's realisation searched")

    monkeypatch.setattr(presheaf, "search", refuse)
    assert [computad_to_json(reconstruct_from_nerve(c)) for c in cs] == expected


def _kan_fixture():
    # one 1-generator glued onto a formal missing-face term: its shape has an
    # application in its boundary family
    from computads.computad import make_computad
    from computads.packs import delta_face, sigma_kan, simplex_sort
    from computads.terms import app

    sig = sigma_kan(1)
    s0, s1 = simplex_sort(0), simplex_sort(1)
    face_term = app("face_0_1", {delta_face(1, 1): var("k0")})
    c = make_computad(
        sig,
        {s0: ("k0", "k1"), s1: ("E",)},
        {
            ("E", delta_face(1, 0)): face_term,
            ("E", delta_face(1, 1)): var("k1"),
        },
    )
    return sig, c


def test_classify_with_app_boundaries():
    from computads.plex import PApp, PVar

    sig, c = _kan_fixture()
    p = classify(c, var("E"))
    assert isinstance(p, PVar)
    members = dict(p.btype)
    from computads.packs import delta_face

    assert isinstance(members[delta_face(1, 0)], PApp)
    assert isinstance(members[delta_face(1, 1)], PVar)
    assert p.weight == 1


def test_representability_with_app_boundaries():
    from computads.computad import enumerate_var_to_var

    sig, c = _kan_fixture()
    from computads.packs import simplex_sort

    for sort in (simplex_sort(0), simplex_sort(1)):
        terms = enumerate_terms(c, sort, 2)
        for p in enumerate_polyplexes(sig, sort, 2):
            rep = polyplex_computad(sig, p)
            homs = enumerate_var_to_var(rep.computad, c)
            fibre = [t for t in terms if classify(c, t) == p]
            assert len(homs) == len(fibre), (sort, p)


def test_reconstruct_kan_fixture():
    _, c = _kan_fixture()
    assert isomorphic(reconstruct_from_nerve(c), c)


def test_classifying_morphism_matches_the_mediating_oracle():
    sig = comp_signature()
    rng = random.Random(29)
    cases = [(walk2(sig), 2), (walk_n(sig, 3), 2), (_kan_fixture()[1], 2)]
    cases += [(random_computad_comp(sig, rng, tag=f"c{i}"), 1) for i in range(8)]
    cases += [(c, 1) for c in law_families()]
    checked = 0
    for c, depth in cases:
        for sort in c.base.sorts:
            for t in enumerate_terms(c, sort, depth):
                assert classifying_morphism(c, t) == mediated_classifying_morphism(c, t), t
                checked += 1
    assert checked > 50


def test_colimit_classes_whose_names_coincide_are_rejected():
    """The arrow ``x:y`` of ``f`` and the loop ``y`` inside its argument
    ``x`` are two classes of |p|, both named ``x:y:*a``; merging them would
    send the universal term back to ``k`` at ``y``, not ``l``."""
    cat = arrow_category()
    loop = make_presheaf(cat, {"o": ("p",), "a": ("y",)}, {("s", "y"): "p", ("t", "y"): "p"})
    pair = make_presheaf(
        cat,
        {"o": ("u", "w"), "a": ("x", "x:y")},
        {("s", "x"): "u", ("t", "x"): "u", ("s", "x:y"): "u", ("t", "x:y"): "w"},
    )
    sig = build_signature(
        cat,
        [
            ("g", "a", loop, {"s": var("p"), "t": var("p")}),
            ("f", "a", pair, {"s": var("u"), "t": var("w")}),
        ],
    )
    glue = {("l", "s"): "m", ("l", "t"): "m", ("k", "s"): "m", ("k", "t"): "n"}
    c = make_computad(
        sig, {"o": ("m", "n"), "a": ("l", "k")}, {k: var(v) for k, v in glue.items()}
    )
    inner = app("g", {"p": var("m"), "y": var("l")})
    t = app("f", {"u": var("m"), "w": var("n"), "x": inner, "x:y": var("k")})
    with pytest.raises(KernelError):
        classifying_morphism(c, t)
