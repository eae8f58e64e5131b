import random

import pytest

from computads import presheaf
from computads.computad import (
    apply_morphism,
    colimit_var,
    compose_morphisms,
    coproduct,
    enumerate_var_to_var,
    find_isomorphism,
    free_computad,
    identity_morphism,
    inclusion,
    is_isomorphism,
    isomorphic,
    make_computad,
    make_morphism,
    pushout,
    skeleton_computad,
    skeleton_counit,
    truncate_computad,
    var_to_var_morphism,
)
from computads.errors import CocycleFailure, GluingIllTyped
from computads.presheaf import boundary_representable, representable
from computads.terms import App, app, rename, var

from fixtures import (
    arrow_arity,
    comp_signature,
    comp_uv,
    globe2,
    globe2_glue,
    law_families,
    random_computad,
    random_computad_comp,
    relabelled,
    relabelling,
    walk2,
    walk_n,
)


def test_walk2_valid():
    c = walk2()
    assert c.generators_at("o") == ("p", "q", "r")
    assert c.gluing("u", "s") == var("p")


def test_gluing_ill_typed():
    sig = comp_signature()
    with pytest.raises(GluingIllTyped):
        make_computad(
            sig,
            {"o": ("p",), "a": ("u", "w")},
            {
                ("u", "s"): var("p"),
                ("u", "t"): var("p"),
                ("w", "s"): var("u"),
                ("w", "t"): var("p"),
            },
        )
    with pytest.raises(GluingIllTyped):
        make_computad(sig, {"o": ("p",), "a": ("u",)}, {("u", "s"): var("p")})


def test_gluing_cocycle_failure():
    # the s0:2 gluing of a 2-cell must be the source of its s1:2 gluing
    glue = globe2_glue()
    assert globe2(glue).generators_at("g2") == ("al",)
    glue[("al", "s0:2")] = var("y")
    with pytest.raises(CocycleFailure):
        globe2(glue)


def test_empty_computad_valid():
    c = make_computad(comp_signature(), {}, {})
    assert c.is_empty()


def test_free_computad_transcribes_action():
    sig = comp_signature()
    c = free_computad(arrow_arity(sig.base), sig)
    assert c.generators_at("a") == ("f", "g")
    assert c.gluing("f", "s") == var("x")
    assert c.gluing("g", "t") == var("z")


def test_free_computad_on_representable_is_disk():
    sig = comp_signature()
    disk = free_computad(representable(sig.base, "a"), sig)
    assert disk.generators_at("a") == ("id_a",)
    assert disk.gluing("id_a", "s") == var("s")


def test_truncate_skeleton_computad():
    sig = comp_signature()
    c = walk2(sig)
    tr = truncate_computad(c, 0)
    assert tr.generators_at("o") == ("p", "q", "r")
    assert "a" not in tr.gens
    sk = skeleton_computad(tr, sig)
    assert sk.generators_at("a") == ()
    kappa = skeleton_counit(c, 0)
    assert kappa.is_var_to_var() and kappa.is_injective()
    assert sorted(kappa.assign) == ["p", "q", "r"]
    # truncating the counit back down gives the identity
    assert truncate_computad(kappa.src, 0).gens == tr.gens


def test_skeleton_counit_is_the_inclusion_of_the_reextended_truncation():
    # law: sk_n tr_n C built over C's own signature is the truncation
    # re-extended by empty sets, for every n up to the dimension
    for c in law_families():
        for n in range(c.base.dimension() + 1):
            sk = skeleton_computad(truncate_computad(c, n), c.signature)
            assert skeleton_counit(c, n) == inclusion(sk, c)


def test_morphism_validation_and_application():
    sig = comp_signature()
    c = walk2(sig)
    disk = free_computad(representable(sig.base, "a"), sig)
    chi = make_morphism(
        disk, c, {"id_a": comp_uv(), "s": var("p"), "t": var("r")}
    )
    assert apply_morphism(chi, var("id_a")) == comp_uv()
    with pytest.raises(GluingIllTyped):
        make_morphism(disk, c, {"id_a": comp_uv(), "s": var("q"), "t": var("r")})


def test_compose_morphisms_functorial():
    sig = comp_signature()
    c = walk2(sig)
    ident = identity_morphism(c)
    swap = make_morphism(
        c,
        c,
        {
            "p": var("p"),
            "q": var("q"),
            "r": var("r"),
            "u": var("u"),
            "v": var("v"),
        },
    )
    composed = compose_morphisms(ident, swap)
    assert composed == swap
    assert apply_morphism(composed, comp_uv()) == comp_uv()


def test_morphism_composition_associative_random():
    sig = comp_signature()
    rng = random.Random(11)
    from computads.monad import enumerate_terms

    for _ in range(25):
        a = random_computad_comp(sig, rng, tag="a")
        # endo-morphisms of a: send each generator somewhere valid
        morphisms = []
        for _ in range(3):
            assign = {}
            ok = True
            for g in a.generators_at("o"):
                assign[g] = var(rng.choice(a.generators_at("o")))
            for g in a.generators_at("a"):
                want_s = assign[a.gluing(g, "s").gen]
                want_t = assign[a.gluing(g, "t").gen]
                cands = [
                    t
                    for t in enumerate_terms(a, "a", 2)
                    if a_boundary(a, t) == (want_s, want_t)
                ]
                if not cands:
                    ok = False
                    break
                assign[g] = rng.choice(cands)
            if ok:
                morphisms.append(make_morphism(a, a, assign))
        if len(morphisms) < 3:
            continue
        f, g, h = morphisms
        lhs = compose_morphisms(h, compose_morphisms(g, f))
        rhs = compose_morphisms(compose_morphisms(h, g), f)
        assert lhs == rhs


def a_boundary(c, t):
    from computads.terms import boundary

    return (boundary(c, "s", t), boundary(c, "t", t))


def test_var_to_var_composite_implies_first_factor():
    # if later . earlier is var-to-var then earlier must be: applying any
    # morphism to a composite term yields a composite term
    sig = comp_signature()
    c = walk2(sig)
    disk = free_computad(representable(sig.base, "a"), sig)
    chi = make_morphism(
        disk, c, {"id_a": comp_uv(), "s": var("p"), "t": var("r")}
    )
    for later in (identity_morphism(c),):
        composed = compose_morphisms(later, chi)
        assert not chi.is_var_to_var()
        assert not composed.is_var_to_var()
    ident = identity_morphism(c)
    assert compose_morphisms(ident, ident).is_var_to_var()


def test_hom_enumeration_base_mismatch():
    import pytest as _pytest

    from computads.errors import BaseMismatch
    from computads.presheaf import enumerate_hom, make_presheaf
    from fixtures import arrow_category, group_base

    x = make_presheaf(arrow_category(), {}, {})
    y = make_presheaf(group_base(), {}, {})
    with _pytest.raises(BaseMismatch):
        enumerate_hom(x, y)


def test_coproduct_of_disks():
    sig = comp_signature()
    do = free_computad(representable(sig.base, "o"), sig)
    result = coproduct([do, do])
    assert result.computad.generator_count() == 2
    assert set(result.computad.generators_at("o")) == {"n0:id_o", "n1:id_o"}


def test_pushout_attaches_fresh_arrow():
    sig = comp_signature()
    c = walk2(sig)
    sphere = boundary_representable(sig.base, "a")
    sph = free_computad(sphere, sig)
    disk = free_computad(representable(sig.base, "a"), sig)
    incl = var_to_var_morphism(sph, disk, {"s": "s", "t": "t"})
    pick = var_to_var_morphism(sph, c, {"s": "p", "t": "q"})
    result = pushout(incl, pick)
    assert result.computad.generator_count() == 6
    assert len(result.computad.generators_at("a")) == 3
    fresh = [g for g in result.computad.generators_at("a") if g.endswith("id_a")]
    assert len(fresh) == 1
    # the fresh arrow is glued onto the images of p and q
    assert result.computad.gluing(fresh[0], "s") == var(result.legs["c"]["p"])
    assert result.computad.gluing(fresh[0], "t") == var(result.legs["c"]["q"])


def test_coequalizer_of_identities():
    sig = comp_signature()
    c = walk2(sig)
    ident = identity_morphism(c)
    edges = [("x", "y", ident.gen_map()), ("x", "y", ident.gen_map())]
    result = colimit_var({"x": c, "y": c}, edges)
    assert isomorphic(result.computad, c)


def test_colimit_universal_property():
    sig = comp_signature()
    c = walk2(sig)
    sphere = boundary_representable(sig.base, "a")
    sph = free_computad(sphere, sig)
    disk = free_computad(representable(sig.base, "a"), sig)
    incl = var_to_var_morphism(sph, disk, {"s": "s", "t": "t"})
    pick = var_to_var_morphism(sph, c, {"s": "p", "t": "q"})
    result = pushout(incl, pick)
    # the cocone legs are jointly surjective on generators
    hit = {cls for leg in result.legs.values() for cls in leg.values()}
    assert hit == {g for _, g in result.computad.all_generators()}
    # cocone to walk2 itself: disk -> c picking u, and id on c
    leg_disk = var_to_var_morphism(disk, c, {"id_a": "u", "s": "p", "t": "q"})
    mediated = result.mediate({"a": pick, "b": leg_disk, "c": identity_morphism(c)})
    nodes = {"a": sph, "b": disk, "c": c}
    for key, leg in result.legs.items():
        target = {"a": pick, "b": leg_disk, "c": identity_morphism(c)}[key]
        leg = var_to_var_morphism(nodes[key], result.computad, leg)
        assert compose_morphisms(mediated, leg) == target


def test_colimit_builds_no_morphism(monkeypatch):
    # a colimit is computed on generator sets: its diagram and its legs are
    # generator maps, so it answers without building a morphism
    from computads import computad

    sig = comp_signature()
    c = walk2(sig)
    sph = free_computad(boundary_representable(sig.base, "a"), sig)
    disk = free_computad(representable(sig.base, "a"), sig)
    expected = pushout(
        var_to_var_morphism(sph, disk, {"s": "s", "t": "t"}),
        var_to_var_morphism(sph, c, {"s": "p", "t": "q"}),
    )

    def refuse(*args, **kwargs):
        raise AssertionError("the colimit built a morphism")

    monkeypatch.setattr(computad, "ComputadMorphism", refuse)
    edges = [("a", "b", {"s": "s", "t": "t"}), ("a", "c", {"s": "p", "t": "q"})]
    result = colimit_var({"a": sph, "b": disk, "c": c}, edges)
    assert result == expected
    assert result.legs["b"] == {"id_a": "b:id_a", "s": "a:s", "t": "a:t"}


def test_isomorphism_detects_relabelling():
    sig = comp_signature()
    c = walk2(sig)
    d = make_computad(
        sig,
        {"o": ("P", "Q", "R"), "a": ("U", "V")},
        {
            ("U", "s"): var("P"),
            ("U", "t"): var("Q"),
            ("V", "s"): var("Q"),
            ("V", "t"): var("R"),
        },
    )
    iso = find_isomorphism(c, d)
    assert iso == {"p": "P", "q": "Q", "r": "R", "u": "U", "v": "V"}
    # breaking a gluing breaks the isomorphism
    e = make_computad(
        sig,
        {"o": ("P", "Q", "R"), "a": ("U", "V")},
        {
            ("U", "s"): var("P"),
            ("U", "t"): var("Q"),
            ("V", "s"): var("P"),
            ("V", "t"): var("R"),
        },
    )
    assert find_isomorphism(c, e) is None


def _brute_force_var_to_var(c, d):
    # every generator map, in the order itertools.product lists them,
    # filtered by the gluings
    import itertools

    gens = [g for _, g in c.all_generators()]
    choices = [d.generators_at(c.gen_sort(g)) for g in gens]
    maps = []
    for values in itertools.product(*choices):
        m = dict(zip(gens, values))
        if all(
            rename(c.gluing(g, f), m) == d.gluing(m[g], f)
            for g in gens
            for f in c.base.faces_into(c.gen_sort(g))
        ):
            maps.append(m)
    return maps


def test_var_to_var_and_isomorphism_match_brute_force():
    sig = comp_signature()
    rng = random.Random(23)
    found = set()
    for _ in range(25):
        c = random_computad_comp(sig, rng, max_obj=3)
        for d in (random_computad_comp(sig, rng, max_obj=3, tag="d"), relabelled(c, rng)):
            maps = _brute_force_var_to_var(c, d)
            assert [m.gen_map() for m in enumerate_var_to_var(c, d)] == maps
            bijections = [
                m for m in maps if len(set(m.values())) == len(m) == d.generator_count()
            ]
            iso = find_isomorphism(c, d)
            assert iso == next(iter(bijections), None)
            found.add(iso is None)
    assert found == {True, False}


def test_var_to_var_and_isomorphism_match_brute_force_over_applications():
    # gluings that are applications, over the Kan signature and the
    # 2-globe composite, so that leaves repeat and subterms are shared
    from computads.globular import globe_category, tree_composite
    from computads.packs import sigma_kan

    rng = random.Random(7)
    sigs = [sigma_kan(1), tree_composite(globe_category(2), [[], []])[0]]
    applications, found = 0, set()
    for _ in range(30):
        for sig in sigs:
            c = random_computad(sig, rng, max_gens=3)
            applications += sum(isinstance(t, App) for t in c.glue.values())
            for d in (random_computad(sig, rng, max_gens=3), relabelled(c, rng)):
                maps = _brute_force_var_to_var(c, d)
                assert [m.gen_map() for m in enumerate_var_to_var(c, d)] == maps
                bijections = [
                    m for m in maps if len(set(m.values())) == len(m) == d.generator_count()
                ]
                iso = find_isomorphism(c, d)
                assert iso == next(iter(bijections), None)
                found.add(iso is None)
    assert applications and found == {True, False}


def test_generator_map_onto_a_shared_leaf():
    # al : coh(f, g) => h for x -f-> y -g-> z and h : x -> z, into
    # be : coh(l, l) => k for loops l, k on p; the gluing of be names the
    # leaves p and l more than once, so they must be read per occurrence
    from computads.globular import globe_category, tree_composite

    sig = tree_composite(globe_category(2), [[], []])[0]
    (coh,) = sig.symbols

    def composite(x, y, z, f, g):
        return app(coh, {"q0": var(x), "q1": var(y), "q2": var(z), "q0_0": var(f), "q1_0": var(g)})

    def ends(gen, s, t):
        return {(gen, "s0:1"): var(s), (gen, "t0:1"): var(t)}

    c = make_computad(
        sig,
        {"g0": ("x", "y", "z"), "g1": ("f", "g", "h"), "g2": ("al",)},
        {
            **ends("f", "x", "y"), **ends("g", "y", "z"), **ends("h", "x", "z"),
            ("al", "s0:2"): var("x"), ("al", "t0:2"): var("z"),
            ("al", "s1:2"): composite("x", "y", "z", "f", "g"), ("al", "t1:2"): var("h"),
        },
    )
    d = make_computad(
        sig,
        {"g0": ("p",), "g1": ("l", "k"), "g2": ("be",)},
        {
            **ends("l", "p", "p"), **ends("k", "p", "p"),
            ("be", "s0:2"): var("p"), ("be", "t0:2"): var("p"),
            ("be", "s1:2"): composite("p", "p", "p", "l", "l"), ("be", "t1:2"): var("k"),
        },
    )
    maps = [m.gen_map() for m in enumerate_var_to_var(c, d)]
    assert maps == _brute_force_var_to_var(c, d)
    assert maps == [{"x": "p", "y": "p", "z": "p", "f": "l", "g": "l", "h": "k", "al": "be"}]


def _counted(monkeypatch, limit):
    """Make every bucket of ``presheaf.search`` count its lookups and fail the
    test after ``limit`` of them, so a search that does too much work stops."""
    calls = [0]
    search = presheaf.search

    class Counted(dict):
        def get(self, profile, default=None):
            calls[0] += 1
            if calls[0] > limit:
                pytest.fail(f"more than {limit} bucket lookups")
            return super().get(profile, default)

    def counted(cells, *args):
        return search([(name, below, Counted(b)) for name, below, b in cells], *args)

    monkeypatch.setattr(presheaf, "search", counted)
    return calls


def test_isomorphism_search_work_is_bounded(monkeypatch):
    sig = comp_signature()
    rng = random.Random(5)
    c = walk_n(sig, 20)
    d = relabelled(c, rng)
    calls = _counted(monkeypatch, 50_000)
    iso = find_isomorphism(c, d)
    assert calls[0] and iso is not None and len(set(iso.values())) == c.generator_count()
    var_to_var_morphism(c, d, iso)
    # the last arrow glued back onto the first object closes a cycle
    glue = dict(c.glue)
    glue[("e19", "t")] = var("o0")
    broken = relabelled(make_computad(sig, c.gens, glue), rng)
    assert find_isomorphism(c, broken) is None


def test_is_isomorphism_holds_for_relabelled_copies_under_their_renaming():
    for seed, c in enumerate(law_families()):
        copy, names = relabelling(c, random.Random(seed))
        assert is_isomorphism(c, copy, names)
        assert is_isomorphism(copy, c, {new: g for g, new in names.items()})


def test_is_isomorphism_planted_faults():
    from computads.signature import Signature

    c = walk2()
    ident = {g: g for _, g in c.all_generators()}
    assert is_isomorphism(c, c, ident)
    # u : p -> q and v : q -> r swapped: a bijection that breaks the gluings
    assert not is_isomorphism(c, c, {**ident, "u": "v", "v": "u"})
    # one more object in the target: not onto
    bigger = make_computad(c.signature, {**c.gens, "o": ("p", "q", "r", "z")}, c.glue)
    assert not is_isomorphism(c, bigger, ident)
    # an object sent to an arrow and back: a bijection across sorts
    assert not is_isomorphism(c, c, {**ident, "p": "u", "u": "p"})
    # the same generators and gluings over the signature without symbols
    bare = make_computad(Signature(c.base, {}), c.gens, c.glue)
    assert not is_isomorphism(c, bare, ident) and not is_isomorphism(bare, c, ident)


def test_free_computad_rejects_a_presheaf_over_another_base():
    from computads.errors import BaseMismatch
    from computads.packs import group_signature

    with pytest.raises(BaseMismatch):
        free_computad(arrow_arity(), group_signature())


def _point_computads():
    """One generator over the group signature, and over the signature with
    only its constant: the same category, different signatures."""
    from computads.packs import discrete_signature, group_signature

    constant = discrete_signature(["*"], [("zero", "*", {})])
    return [make_computad(sig, {"*": ("x",)}, {}) for sig in (group_signature(), constant)]


def test_make_morphism_across_signatures_is_rejected():
    from computads.errors import BaseMismatch

    c, d = _point_computads()
    with pytest.raises(BaseMismatch):
        make_morphism(c, d, {"x": var("x")})


def test_isomorphic_across_signatures_is_false():
    c, d = _point_computads()
    assert isomorphic(c, c) and isomorphic(d, d)
    assert not isomorphic(c, d) and find_isomorphism(d, c) is None


def test_morphism_equality_compares_gluings_and_signatures():
    from computads.computad import ComputadMorphism
    from computads.errors import EndpointMismatch
    from computads.signature import Signature

    ident = identity_morphism(walk2())
    assert ident == identity_morphism(walk2())  # built apart, equal
    assert comp_signature() == comp_signature()
    # the same generators and assignment into a target that glues v elsewhere
    glue = {**ident.dst.glue, ("v", "s"): var("p")}
    elsewhere = make_computad(ident.dst.signature, ident.dst.gens, glue)
    assert ComputadMorphism(ident.src, elsewhere, ident.assign) != ident
    # ... or into the same computad over a signature without symbols
    bare = make_computad(Signature(ident.dst.base, {}), ident.dst.gens, ident.dst.glue)
    assert ComputadMorphism(ident.src, bare, ident.assign) != ident
    with pytest.raises(EndpointMismatch):
        compose_morphisms(identity_morphism(bare), ident)
