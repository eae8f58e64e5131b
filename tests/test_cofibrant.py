import itertools
import random

import pytest

from computads import cofibrant
from computads.algebra import free_algebra, morphism_from_generators
from computads.cofibrant import (
    boundary_inclusion,
    cofibrant_replacement,
    check_trivial_fibration,
    classify_term,
    classify_type,
    disk_computad,
    replay_filtration,
    skeletal_filtration,
    underlying_computad,
    verify_stage_pushout,
)
from computads.computad import (
    compose_morphisms,
    enumerate_var_to_var,
    is_isomorphism,
    isomorphic,
    make_computad,
    make_morphism,
)
from computads.errors import BaseMismatch, NotCompatible
from computads.factorization import split_idempotent
from computads.io_json import computad_to_json
from computads.monad import enumerate_terms
from computads.packs import sigma_kan
from computads.terms import var

import oracles
from fixtures import (
    chain_algebra,
    comp_signature,
    comp_uv,
    kan_nerve,
    law_families,
    pathcat_algebra,
    random_computad,
    random_computad_comp,
    random_families,
    relabelled,
    walk2,
    walk_n,
    z5_algebra,
    zero_algebra,
)


def test_boundary_inclusion_shapes():
    sig = comp_signature()
    incl_o = boundary_inclusion(sig, "o")
    assert incl_o.src.is_empty()
    assert incl_o.dst.generators_at("o") == ("id_o",)
    incl_a = boundary_inclusion(sig, "a")
    assert set(incl_a.src.generators_at("o")) == {"s", "t"}
    assert incl_a.is_var_to_var() and incl_a.is_injective()


def test_boundary_inclusion_kan_interval():
    from computads.packs import sigma_kan, simplex_sort

    sig = sigma_kan(2)
    incl = boundary_inclusion(sig, simplex_sort(1))
    # the boundary of the interval: its two endpoints
    assert len(incl.src.generators_at(simplex_sort(0))) == 2
    assert incl.src.generators_at(simplex_sort(1)) == ()
    assert len(incl.dst.generators_at(simplex_sort(1))) == 1


def test_classifiers_represent_terms_and_types():
    sig = comp_signature()
    c = walk2(sig)
    chi = classify_term(c, comp_uv(), "a")
    assert chi.assign["id_a"] == comp_uv()
    assert chi.assign["s"] == var("p")
    # representability: morphisms from the disk = terms of sort a
    homs_as_terms = {m.assign["id_a"] for m in _all_disk_morphisms(c)}
    assert homs_as_terms == set(enumerate_terms(c, "a", 2))
    phi = classify_type(c, "a", {"s": var("p"), "t": var("r")})
    assert phi.assign == {"s": var("p"), "t": var("r")}


def _all_disk_morphisms(c):
    # brute force all morphisms disk -> c by picking any term for id_a
    sig = c.signature
    disk = disk_computad(sig, "a")
    out = []
    for t in enumerate_terms(c, "a", 2):
        out.append(classify_term(c, t, "a"))
    return out


def test_skeletal_filtration_walk2():
    c = walk2()
    filt = skeletal_filtration(c)
    assert [st.dim for st in filt.stages] == [0, 1, 2]
    assert filt.stages[0].computad.is_empty()
    assert len(filt.stages[0].attachments) == 3
    assert len(filt.stages[1].attachments) == 2
    assert filt.stages[2].computad.gens == c.gens
    # the stage inclusions are injective generator inclusions
    for kappa in filt.inclusions():
        assert kappa.is_var_to_var() and kappa.is_injective()


def test_filtration_replay_and_pushouts():
    sig = comp_signature()
    for c in (walk2(sig), disk_computad(sig, "a"), make_computad(sig, {}, {})):
        filt = skeletal_filtration(c)
        rebuilt = replay_filtration(filt)
        assert isomorphic(rebuilt, c)
        for lo, hi in zip(filt.stages, filt.stages[1:]):
            verdict = verify_stage_pushout(lo, hi.computad)
            assert verdict is True  # all fixtures here attach along generators


def test_stage_pushout_against_the_wrong_next_stage_is_false():
    # each stage of a 2-chain, pushed out along its attachments, against the
    # next stage of a 3-chain: one object short, then one arrow short
    sig = comp_signature()
    short = skeletal_filtration(walk_n(sig, 2)).stages
    long = skeletal_filtration(walk_n(sig, 3)).stages
    verdicts = [verify_stage_pushout(lo, hi.computad) for lo, hi in zip(short, long[1:])]
    assert verdicts == [False, False]


def test_stage_pushout_glued_elsewhere_is_false():
    # the next stage meant is *the* pushout, under the stage inclusion and the
    # attached generators' own names: the stage with e : o0 -> o1 attached,
    # against a computad with e : o2 -> o3, which is a pushout only under
    # another identification of the objects
    sig = comp_signature()

    def arrow(src, dst):
        objects = tuple(f"o{i}" for i in range(4))
        glue = {("e", "s"): var(src), ("e", "t"): var(dst)}
        return make_computad(sig, {"o": objects, "a": ("e",)}, glue)

    stage = skeletal_filtration(arrow("o0", "o1")).stages[1]
    elsewhere = skeletal_filtration(arrow("o2", "o3")).stages[2].computad
    assert oracles.searched_stage_pushout(stage, elsewhere) is True
    assert verify_stage_pushout(stage, elsewhere) is False


def _law_families():
    cs = law_families()
    cs += [random_computad(sigma_kan(2), random.Random(seed), max_gens=3) for seed in (0, 1, 3)]
    return cs


def test_stage_pushout_over_another_signature_is_false():
    # the next stage of walk2 with the same generators and gluings, over the
    # arrow category without the composition symbol
    from computads.signature import Signature

    lo, hi = skeletal_filtration(walk2()).stages[1:3]
    bare = make_computad(Signature(hi.computad.base, {}), hi.computad.gens, hi.computad.glue)
    assert verify_stage_pushout(lo, hi.computad) is True
    assert verify_stage_pushout(lo, bare) is False


def test_stage_pushout_is_none_exactly_when_an_attaching_map_is_not_var_to_var():
    # law: on its own next stage, each stage check answers True when every
    # attaching map is a generator map, and None otherwise
    verdicts = {True: 0, None: 0}
    for c in _law_families():
        stages = skeletal_filtration(c).stages
        for lo, hi in zip(stages, stages[1:]):
            var_to_var = all(att.phi.is_var_to_var() for att in lo.attachments)
            verdict = verify_stage_pushout(lo, hi.computad)
            assert verdict is (True if var_to_var else None)
            verdicts[verdict] += 1
    assert min(verdicts.values()) > 0, verdicts


def test_stage_pushout_matches_the_searched_oracle(monkeypatch):
    # the verdict is ``is_isomorphism``'s on the colimit's comparison map, so
    # on the true next stage it is the oracle's; against the next stage of
    # another draw, the oracle also finds any pushout that is one under other
    # names, so only True carries over
    known = []

    def recorded(c, d, gen_map):
        known.append(is_isomorphism(c, d, gen_map))
        return known[-1]

    monkeypatch.setattr(cofibrant, "is_isomorphism", recorded)

    def checked(lo, nxt):
        known.clear()
        verdict = verify_stage_pushout(lo, nxt)
        assert known == ([] if verdict is None else [verdict])
        return verdict

    cs = _law_families()
    verdicts = {True: 0, False: 0, None: 0}
    for c, other in zip(cs, cs[1:] + cs[:1]):
        stages = skeletal_filtration(c).stages
        for lo, hi in zip(stages, stages[1:]):
            verdict = checked(lo, hi.computad)
            assert verdict == oracles.searched_stage_pushout(lo, hi.computad)
            verdicts[verdict] += 1
        others = skeletal_filtration(other).stages
        for lo, hi in zip(stages, others[1:]):
            verdict = checked(lo, hi.computad)
            if verdict:
                assert oracles.searched_stage_pushout(lo, hi.computad)
            verdicts[verdict] += 1
    assert min(verdicts.values()) > 0, verdicts


def test_stage_pushout_searches_nothing(monkeypatch):
    from computads import presheaf

    stages = skeletal_filtration(relabelled(walk_n(comp_signature(), 30), random.Random(5))).stages
    pairs = [(lo, hi.computad) for lo, hi in zip(stages, stages[1:])]

    def refuse(*args):
        raise AssertionError("the stage check searched")

    monkeypatch.setattr(presheaf, "search", refuse)
    assert [verify_stage_pushout(lo, nxt) for lo, nxt in pairs] == [True, True]


def test_random_computad_draws_match_the_brute_force():
    # the families found by homs, in product order, are the brute force's
    # list, so every seeded draw is the same computad
    for sig, max_gens in ((comp_signature(), 3), (sigma_kan(1), 3), (sigma_kan(2), 2)):
        for seed in range(4):
            drawn = random_computad(sig, random.Random(seed), max_gens)
            reference = oracles.product_random_computad(sig, random.Random(seed), max_gens)
            assert computad_to_json(drawn) == computad_to_json(reference)


def test_filtration_replay_nonvar_attachment():
    # a 2-dimensional base where a top generator is glued to a composite term
    from computads.base import validate_category
    from computads.presheaf import make_presheaf
    from computads.signature import build_signature

    cat = validate_category(
        {
            "sorts": [{"id": "o", "dim": 0}, {"id": "a", "dim": 1}, {"id": "c", "dim": 2}],
            "faces": [
                {"id": "s", "src": "o", "dst": "a"},
                {"id": "t", "src": "o", "dst": "a"},
                {"id": "m", "src": "a", "dst": "c"},
                {"id": "ms", "src": "o", "dst": "c"},
                {"id": "mt", "src": "o", "dst": "c"},
            ],
            "compose": [
                {"first": "s", "second": "m", "result": "ms"},
                {"first": "t", "second": "m", "result": "mt"},
            ],
        }
    )
    arity = make_presheaf(
        cat,
        {"o": ("x", "y", "z"), "a": ("f", "g")},
        {("s", "f"): "x", ("t", "f"): "y", ("s", "g"): "y", ("t", "g"): "z"},
    )
    sig = build_signature(cat, [("comp", "a", arity, {"s": var("x"), "t": var("z")})])
    from computads.terms import app

    cuv = app(
        "comp",
        {"x": var("p"), "y": var("q"), "z": var("r"), "f": var("u"), "g": var("v")},
    )
    c = make_computad(
        sig,
        {"o": ("p", "q", "r"), "a": ("u", "v"), "c": ("w",)},
        {
            ("u", "s"): var("p"),
            ("u", "t"): var("q"),
            ("v", "s"): var("q"),
            ("v", "t"): var("r"),
            ("w", "m"): cuv,
            ("w", "ms"): var("p"),
            ("w", "mt"): var("r"),
        },
    )
    filt = skeletal_filtration(c)
    assert isomorphic(replay_filtration(filt), c)
    verdicts = [
        verify_stage_pushout(lo, hi.computad)
        for lo, hi in zip(filt.stages, filt.stages[1:])
    ]
    assert verdicts[-1] is None  # composite attachment: no var-to-var pushout
    assert all(v is True for v in verdicts[:-1])


def test_underlying_computad_discrete_z5():
    z5 = z5_algebra()
    und = underlying_computad(z5, 2)
    assert und.exact
    assert len(und.computad.generators_at("*")) == 5
    assert sorted(und.r_assign.values()) == ["0", "1", "2", "3", "4"]


def test_underlying_computad_pathcat():
    alg = pathcat_algebra()
    und = underlying_computad(alg, 2)
    assert und.exact
    assert len(und.computad.generators_at("o")) == 3
    assert len(und.computad.generators_at("a")) == 6
    # every arrow generator is glued onto the endpoint objects of its path
    for name in und.computad.generators_at("a"):
        s_obj = und.r_assign[und.computad.gluing(name, "s").gen]
        assert s_obj == alg.act("s", und.r_assign[name])


def test_underlying_computad_matches_the_scanned_oracle():
    for alg, depth in (
        (z5_algebra(), 2), (pathcat_algebra(), 2), (chain_algebra(3), 2), (kan_nerve(2), 1)
    ):
        und = underlying_computad(alg, depth)
        scanned = oracles.scanned_underlying_computad(alg, depth)
        assert und.computad == scanned.computad
        assert list(und.r_assign.items()) == list(scanned.r_assign.items())
        assert und.exact == scanned.exact


def test_counit_is_trivial_fibration_kan_nerve():
    # the nerve of Z/2 as a 2-dimensional algebra: the depth-1 replacement is
    # not exact (the fillers apply to each other without end), and its
    # counit is a trivial fibration, as criterion 11 finds for Z5
    alg = kan_nerve(2)
    cof = cofibrant_replacement(alg, 1)
    assert not cof.und.exact
    fa = free_algebra(cof.und.computad, 1)
    component = {cell: cof.r(fa.decode[cell]) for cell in fa.decode}
    ok, counterexample = check_trivial_fibration(fa, alg, component)
    assert ok, counterexample


def test_underlying_computad_evaluates_each_face_term_once():
    # a count, not a timing: 16 distinct applications occur in the boundary
    # types of the nerve of Z/2 at depth 1, and each is interpreted once (a
    # scan over every type and carrier cell interprets 18,899 times)
    alg = kan_nerve(2)
    calls = []
    for symbol, callback in list(alg.interp.items()):
        alg.interp[symbol] = lambda env, f=callback: calls.append(env) or f(env)
    underlying_computad(alg, 1)
    assert 0 < len(calls) <= 100


def test_underlying_computad_spells_each_face_term_once(monkeypatch):
    # a count, not a timing: the generator names spell the face terms through
    # one memo for the run, so each of the 35 terms and subterms that occur is
    # spelled once (spelling each family afresh makes 20,568 node spellings)
    from computads.terms import App, Var

    alg = kan_nerve(2)
    calls = [0]
    for cls in (Var, App):
        def counted(self, family, spell=cls.spell):
            calls[0] += 1
            return spell(self, family)

        monkeypatch.setattr(cls, "spell", counted)
    underlying_computad(alg, 1)
    assert 0 < calls[0] <= 100


def test_underlying_empty_carrier():
    from computads.presheaf import make_presheaf
    from computads.algebra import algebra_from_callbacks

    sig = comp_signature()
    carrier = make_presheaf(sig.base, {}, {})
    alg = algebra_from_callbacks(sig, carrier, {"comp": lambda env: None})
    und = underlying_computad(alg, 1)
    assert und.computad.is_empty()


def test_counit_and_lifts_z5():
    z5 = z5_algebra()
    cof = cofibrant_replacement(z5, 2)
    gen = cof.und.computad.generators_at("*")[0]
    assert cof.r(var(gen)) == cof.und.r_assign[gen]
    lifted = cof.lift_v("*", {}, "3")
    assert cof.r(lifted) == "3"
    with pytest.raises(NotCompatible):
        cof.lift_v("*", {}, "not-a-cell")


def test_counit_is_trivial_fibration_z5():
    z5 = z5_algebra()
    cof = cofibrant_replacement(z5, 2)
    fa = free_algebra(cof.und.computad, 2)
    component = {cell: cof.r(fa.decode[cell]) for cell in fa.decode}
    ok, counterexample = check_trivial_fibration(fa, z5, component)
    assert ok, counterexample


def test_lifts_on_sampled_pathcat_generators():
    # chosen lifts: v(sort, T, t) is the generator named by the square, its
    # counit value is t, and its boundaries are the family T
    from computads.terms import boundary, parts

    alg = pathcat_algebra()
    cof = cofibrant_replacement(alg, 2)
    und = cof.und
    rng = random.Random(50)
    names = [g for _, g in und.computad.all_generators()]
    samples = [rng.choice(names) for _ in range(50)]
    for name in samples:
        family, cell = dict(parts(und.computad, var(name))), und.r_assign[name]
        lifted = cof.lift_v(und.computad.gen_sort(name), family, cell)
        assert lifted == var(name) and cof.r(lifted) == cell
        for face, expected in family.items():
            assert boundary(und.computad, face, lifted) == expected


def test_counit_is_trivial_fibration_pathcat():
    alg = pathcat_algebra()
    cof = cofibrant_replacement(alg, 2)
    fa = free_algebra(cof.und.computad, 2)
    component = {cell: cof.r(fa.decode[cell]) for cell in fa.decode}
    ok, counterexample = check_trivial_fibration(fa, alg, component)
    assert ok, counterexample


def test_identity_is_trivial_fibration():
    alg = pathcat_algebra()
    ident = {c: c for cs in alg.carrier.cells.values() for c in cs}
    ok, _ = check_trivial_fibration(alg, alg, ident)
    assert ok


def test_trivial_fibration_across_signatures_is_rejected():
    ident = {str(k): str(k) for k in range(5)}
    for src, dst in ((z5_algebra(), zero_algebra()), (zero_algebra(), z5_algebra())):
        with pytest.raises(BaseMismatch):
            check_trivial_fibration(src, dst, ident)


def test_subalgebra_inclusion_fails_tfib():
    from computads.presheaf import make_presheaf
    from computads.algebra import algebra_from_callbacks
    from computads.packs import group_signature

    sig = group_signature()
    zero_only = make_presheaf(sig.base, {"*": ("0",)}, {})
    sub = algebra_from_callbacks(
        sig,
        zero_only,
        {"plus": lambda env: "0", "zero": lambda env: "0", "neg": lambda env: "0"},
    )
    z5 = z5_algebra()
    ok, counterexample = check_trivial_fibration(sub, z5, {"0": "0"})
    assert not ok
    assert counterexample[0] == "*" and counterexample[2] in {"1", "2", "3", "4"}


def test_adjunction_counts_z5():
    z5 = z5_algebra()
    und = underlying_computad(z5, 2)
    rng = random.Random(31)
    sig = z5.signature
    for _ in range(5):
        n = rng.randint(0, 3)
        c = make_computad(sig, {"*": tuple(f"g{i}" for i in range(n))}, {})
        lhs = len(enumerate_var_to_var(c, und.computad))
        rhs = 0
        for assign in itertools.product(z5.cells_at("*"), repeat=n):
            try:
                morphism_from_generators(
                    c, z5, dict(zip((f"g{i}" for i in range(n)), assign))
                )
                rhs += 1
            except Exception:
                continue
        assert lhs == rhs == 5 ** n


def test_adjunction_counts_pathcat():
    alg = pathcat_algebra()
    und = underlying_computad(alg, 2)
    sig = alg.signature
    rng = random.Random(13)
    for _ in range(8):
        c = random_computad_comp(sig, rng, max_obj=2, max_arr=2)
        lhs = len(enumerate_var_to_var(c, und.computad))
        rhs = 0
        gens = [g for _, g in c.all_generators()]
        obj_gens = [g for g in gens if g in c.generators_at("o")]
        arr_gens = [g for g in gens if g in c.generators_at("a")]
        for objs in itertools.product(alg.cells_at("o"), repeat=len(obj_gens)):
            for arrs in itertools.product(alg.cells_at("a"), repeat=len(arr_gens)):
                assign = dict(zip(obj_gens, objs)) | dict(zip(arr_gens, arrs))
                try:
                    morphism_from_generators(c, alg, assign)
                    rhs += 1
                except Exception:
                    continue
        assert lhs == rhs


def test_retract_splitting_recovers_presentation():
    # the free algebra on walk2 is cofibrant: a section of r exists, and
    # splitting the induced idempotent recovers walk2 itself.
    sig = comp_signature()
    c = walk2(sig)
    alg = free_algebra(c, 2)
    cof = cofibrant_replacement(alg, 2)
    und = cof.und
    assert und.exact

    fa_u = free_algebra(und.computad, 3)

    # the section: each walk2 generator goes to the replacement generator
    # whose counit value is that generator's term
    by_value = {cell: name for name, cell in und.r_assign.items()}
    s_assign = {g: fa_u.encode[var(by_value[alg.encode[var(g)]])]
                for _, g in c.all_generators()}
    section = morphism_from_generators(c, fa_u, s_assign)

    # r . s = id on the carrier of the algebra
    for cell, t in alg.decode.items():
        assert cof.r(fa_u.decode[section(t)]) == cell

    # the induced idempotent on the replacement computad
    e_assign = {}
    for name in (g for _, g in und.computad.all_generators()):
        walk2_term = alg.decode[und.r_assign[name]]
        e_assign[name] = fa_u.decode[section(walk2_term)]
    e = make_morphism(und.computad, und.computad, e_assign)
    assert compose_morphisms(e, e) == e
    retr, sect = split_idempotent(e)
    assert isomorphic(retr.dst, c)
