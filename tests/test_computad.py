import random

import pytest

from computads.computad import (
    _gen_cells,
    apply_morphism,
    colimit_var,
    compose_morphisms,
    coproduct,
    enumerate_var_to_var,
    find_isomorphism,
    free_computad,
    identity_morphism,
    isomorphic,
    make_computad,
    make_morphism,
    pushout,
    skeleton_computad,
    truncate_computad,
    var_to_var_morphism,
)
from computads.errors import GluingIllTyped
from computads.presheaf import boundary_representable, representable, search
from computads.terms import rename, var

from fixtures import (
    arrow_arity,
    comp_signature,
    comp_uv,
    random_computad_comp,
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
    from computads.computad import skeleton_counit

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
    sphere, _ = boundary_representable(sig.base, "a")
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
    assert result.computad.gluing(fresh[0], "s") == result.legs["c"].assign["p"]
    assert result.computad.gluing(fresh[0], "t") == result.legs["c"].assign["q"]


def test_coequalizer_of_identities():
    sig = comp_signature()
    c = walk2(sig)
    ident = identity_morphism(c)
    result = colimit_var({"x": c, "y": c}, [("x", "y", ident), ("x", "y", ident)])
    assert isomorphic(result.computad, c)


def test_colimit_universal_property():
    sig = comp_signature()
    c = walk2(sig)
    sphere, _ = boundary_representable(sig.base, "a")
    sph = free_computad(sphere, sig)
    disk = free_computad(representable(sig.base, "a"), sig)
    incl = var_to_var_morphism(sph, disk, {"s": "s", "t": "t"})
    pick = var_to_var_morphism(sph, c, {"s": "p", "t": "q"})
    result = pushout(incl, pick)
    # the cocone legs are jointly surjective on generators
    hit = {t.gen for leg in result.legs.values() for t in leg.assign.values()}
    assert hit == {g for _, g in result.computad.all_generators()}
    # cocone to walk2 itself: disk -> c picking u, and id on c
    leg_disk = var_to_var_morphism(disk, c, {"id_a": "u", "s": "p", "t": "q"})
    mediated = result.mediate({"a": pick, "b": leg_disk, "c": identity_morphism(c)})
    for key, leg in result.legs.items():
        target = {"a": pick, "b": leg_disk, "c": identity_morphism(c)}[key]
        assert compose_morphisms(mediated, leg) == target


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


def _relabelled(c, rng):
    """A copy of ``c`` with fresh generator names, listed in shuffled order."""
    gens = [g for _, g in c.all_generators()]
    names = dict(zip(gens, rng.sample([f"R{i}" for i in range(len(gens))], len(gens))))
    new_gens = {
        s: tuple(rng.sample([names[g] for g in gs], len(gs))) for s, gs in c.gens.items()
    }
    glue = {(names[g], f): rename(t, names) for (g, f), t in c.glue.items()}
    return make_computad(c.signature, new_gens, glue)


def test_var_to_var_and_isomorphism_match_brute_force():
    sig = comp_signature()
    rng = random.Random(23)
    found = set()
    for _ in range(25):
        c = random_computad_comp(sig, rng, max_obj=3)
        for d in (random_computad_comp(sig, rng, max_obj=3, tag="d"), _relabelled(c, rng)):
            maps = _brute_force_var_to_var(c, d)
            assert [m.gen_map() for m in enumerate_var_to_var(c, d)] == maps
            bijections = [
                m for m in maps if len(set(m.values())) == len(m) == d.generator_count()
            ]
            iso = find_isomorphism(c, d)
            assert iso == next(iter(bijections), None)
            found.add(iso is None)
    assert found == {True, False}


def _counted(cells, limit):
    """``cells`` with every profile wrapped in a counter that fails the test
    after ``limit`` evaluations, so a search that does too much work stops."""
    calls = [0]

    def wrap(profile):
        def counted(assign):
            calls[0] += 1
            if calls[0] > limit:
                pytest.fail(f"more than {limit} profile evaluations")
            return profile(assign)

        return counted

    return [(name, wrap(profile), *rest) for name, profile, *rest in cells]


def test_isomorphism_search_work_is_bounded():
    sig = comp_signature()
    rng = random.Random(5)
    c = walk_n(sig, 20)
    d = _relabelled(c, rng)
    iso = next(search(_counted(_gen_cells(c, d), 50_000), injective=True), None)
    assert iso is not None and len(set(iso.values())) == c.generator_count()
    var_to_var_morphism(c, d, iso)
    # the last arrow glued back onto the first object closes a cycle
    glue = dict(c.glue)
    glue[("e19", "t")] = var("o0")
    broken = _relabelled(make_computad(sig, c.gens, glue), rng)
    assert next(search(_counted(_gen_cells(c, broken), 50_000), injective=True), None) is None
