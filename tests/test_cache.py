"""The contract of the kernel's derived-data caches (``base.memoized`` and the
folds that keep their memo in ``base.memo_table``)."""

import ast
import random
from pathlib import Path

import pytest

import computads
from computads.algebra import Algebra, eval_term
from computads.base import truncate_category
from computads.cofibrant import disk_computad, sphere_computad
from computads.computad import (
    Computad,
    ComputadMorphism,
    free_computad,
    inclusion,
    make_computad,
    sub_computad,
)
from computads.errors import DepthExceeded, NotMono, UnknownGenerator, UnknownSort
from computads.globular import globe_category, parse_tree, tree_composite, tree_presheaf
from computads.factorization import (
    _mono_inverse,
    image_factorize,
    is_epi,
    lift_through_mono,
    support,
    support_morphism,
)
from computads.monad import enumerate_terms, term_presheaf
from computads.packs import sigma_kan, simplex
from computads.plex import classify, enumerate_polyplexes, polyplex_computad
from computads.presheaf import boundary_representable, representable
from computads.terms import app, var

from fixtures import (
    chain_algebra,
    comp_signature,
    comp_uv,
    random_computad_comp,
    random_morphism_comp,
    walk2,
    walk_n,
    z5_algebra,
    zn_algebra,
)


def test_repeat_calls_return_the_cached_object():
    c = walk2()
    sig = c.signature
    assert enumerate_terms(c, "a", 2) is enumerate_terms(c, "a", 2)
    assert enumerate_polyplexes(sig, "a", 1) is enumerate_polyplexes(sig, "a", 1)
    p = classify(c, comp_uv())
    assert polyplex_computad(sig, p) is polyplex_computad(sig, p)
    assert support(c, comp_uv()) is support(c, comp_uv())
    # the tables keep the names the benchmark harness counts entries under
    for table in ("_terms_by_depth", "_supp_cache"):
        assert c.__dict__[table]
    for table in ("_pplex_cache", "_rep_cache"):
        assert sig.__dict__[table]


def test_entries_belong_to_their_owner():
    sig = comp_signature()
    gens = {"o": ("p", "q"), "a": ("x",)}
    loop = make_computad(sig, gens, {("x", "s"): var("p"), ("x", "t"): var("p")})
    arrow = make_computad(sig, gens, {("x", "s"): var("p"), ("x", "t"): var("q")})
    assert support(loop, var("x"))["o"] == {"p"}
    assert support(arrow, var("x"))["o"] == {"p", "q"}
    # an equal computad gets its own entry, not one shared by equality
    twin = make_computad(sig, gens, dict(arrow.glue))
    assert twin == arrow
    assert support(twin, var("x")) == support(arrow, var("x"))
    assert support(twin, var("x")) is not support(arrow, var("x"))


def test_representables_are_built_once_per_category_and_signature():
    sig = comp_signature()
    cat = sig.base
    assert representable(cat, "a") is representable(cat, "a")
    assert boundary_representable(cat, "a") is boundary_representable(cat, "a")
    assert disk_computad(sig, "a") is disk_computad(sig, "a")
    assert sphere_computad(sig, "a") is sphere_computad(sig, "a")
    for table in ("_representable_cache", "_boundary_representable_cache"):
        assert cat.__dict__[table]
    for table in ("_disk_cache", "_sphere_cache"):
        assert sig.__dict__[table]
    # a truncated category is a new owner, even where it agrees with cat
    low = truncate_category(cat, 0)
    assert representable(low, "o").cells_at("o") == representable(cat, "o").cells_at("o")
    assert representable(low, "o") is not representable(cat, "o")
    assert boundary_representable(low, "o") is not boundary_representable(cat, "o")
    # so is a second, equal signature
    twin = comp_signature()
    assert twin == sig
    assert disk_computad(twin, "a") == disk_computad(sig, "a")
    assert disk_computad(twin, "a") is not disk_computad(sig, "a")
    assert sphere_computad(twin, "a") is not sphere_computad(sig, "a")


def test_tree_positions_are_built_once_per_category_and_tree():
    cat = globe_category(3)
    tree = parse_tree("[[[],[]],[[]]]")
    assert tree_presheaf(cat, tree) is tree_presheaf(cat, [[[], []], [[]]])
    tree_composite(cat, tree)
    # the tree and its two cuts, however often the composite asks for them
    cuts = {(((), ()),), ((),)}
    assert set(cat.__dict__["_tree_presheaf_cache"]) == {(tree,)} | cuts


def test_lookups_on_a_term_are_kept_by_their_owner():
    c = walk2()
    t = comp_uv()
    assert classify(c, t) is classify(c, t)
    assert c.__dict__["_shape_cache"][t] is classify(c, t)
    z5 = z5_algebra()
    t = app("plus", {"plus.*0": var("2"), "plus.*1": app("neg", {"neg.*0": var("4")})})
    assert eval_term(z5, t) == "3"
    assert z5.__dict__["_value_cache"][t] == "3"
    # an equal computad or algebra gets its own entries
    twin = Computad(c.signature, c.gens, c.glue)
    assert twin == c
    assert classify(twin, comp_uv()) is classify(c, comp_uv())
    assert twin.__dict__["_shape_cache"] is not c.__dict__["_shape_cache"]
    alg_twin = Algebra(z5.signature, z5.carrier, z5.interp)
    assert eval_term(alg_twin, t) == "3"
    assert alg_twin.__dict__["_value_cache"] is not z5.__dict__["_value_cache"]


def test_lookups_on_a_morphism_are_kept_by_the_morphism():
    c = walk2()
    sub = sub_computad(c, c.signature, lambda s, g: g in ("p", "q", "u"))
    rho = inclusion(sub, c)
    sigma = ComputadMorphism(sub, c, {"p": var("p"), "q": var("r"), "u": comp_uv()})
    assert support_morphism(sigma) is support_morphism(sigma)
    assert _mono_inverse(rho) is _mono_inverse(rho)
    assert sigma.__dict__["_supp_morphism_cache"]
    assert rho.__dict__["_mono_inverse_cache"]
    # an equal morphism gets its own entry
    twin = ComputadMorphism(sub, c, dict(sigma.assign))
    assert twin == sigma
    assert support_morphism(twin) == support_morphism(sigma)
    assert support_morphism(twin) is not support_morphism(sigma)
    assert _mono_inverse(inclusion(sub, c)) is not _mono_inverse(rho)
    # a morphism that is not a mono raises every time, and caches nothing
    for _ in range(2):
        with pytest.raises(NotMono):
            _mono_inverse(sigma)
    assert not sigma.__dict__.get("_mono_inverse_cache")


def test_image_factorisations_are_kept_by_the_morphism():
    c = walk2()
    sub = sub_computad(c, c.signature, lambda s, g: g in ("p", "q", "u"))
    sigma = ComputadMorphism(sub, c, {"p": var("p"), "q": var("r"), "u": comp_uv()})
    assert image_factorize(sigma) is image_factorize(sigma)
    assert sigma.__dict__["_image_cache"]
    # an equal morphism gets its own entry
    twin = ComputadMorphism(sub, c, dict(sigma.assign))
    assert image_factorize(twin) == image_factorize(sigma)
    assert image_factorize(twin) is not image_factorize(sigma)
    # a morphism naming a generator its target lacks raises every time, and
    # caches nothing
    bad = ComputadMorphism(sub, c, {"p": var("p"), "q": var("zz"), "u": comp_uv()})
    for _ in range(2):
        with pytest.raises(UnknownGenerator):
            image_factorize(bad)
    assert not bad.__dict__.get("_image_cache")


def test_a_call_that_raises_caches_nothing():
    c = walk2()
    for _ in range(2):
        with pytest.raises(UnknownSort):
            enumerate_terms(c, "zz", 1)
    assert ("zz", 1) not in c.__dict__.get("_terms_by_depth", {})
    free = term_presheaf(c, 0)
    deep = app("comp", {cell: var(free.encode[t]) for cell, t in comp_uv().args})
    for _ in range(2):
        with pytest.raises(DepthExceeded):
            eval_term(free, deep)
    assert deep not in free.__dict__.get("_value_cache", {})


def test_only_base_reads_an_owners_dict():
    # one memo mechanism: every table is reached through base.memo_table
    package = Path(computads.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute) and node.attr == "__dict__"
                or isinstance(node, ast.Name) and node.id == "__dict__"
                or isinstance(node, ast.Constant) and node.value == "__dict__"
            ):
                found.append((path.name, node.lineno))
    assert found and {name for name, _ in found} == {"base.py"}


def test_only_homs_and_the_generator_map_search_call_search():
    # one family search: every presheaf morphism and every generator map is
    # found through presheaf.homs
    package = Path(computads.__file__).parent
    found = set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef):
                for node in ast.walk(fn):
                    if isinstance(node, ast.Call) and (
                        isinstance(node.func, ast.Name) and node.func.id == "search"
                        or isinstance(node.func, ast.Attribute) and node.func.attr == "search"
                    ):
                        found.add((path.name, fn.name, ast.unparse(node.args[0])))
    assert found == {("presheaf.py", "homs", "cells")}


# -- warm against cold: a memo never changes an answer ------------------------------

def _fresh(c: Computad) -> Computad:
    """An equal computad with empty tables."""
    return Computad(c.signature, c.gens, c.glue)


def _kan2_interval() -> Computad:
    sig = sigma_kan(2)
    return free_computad(simplex(sig.base, 1), sig)


def _terms(c: Computad, depth: int = 2) -> list:
    return [t for s in c.base.sorts for t in enumerate_terms(c, s, depth)]


def _two_orders(items: list) -> list[list]:
    shuffled = list(items)
    random.Random(0).shuffle(shuffled)
    return [list(items), shuffled[::-1]]


def _random_comp(seed: int) -> Computad:
    rng = random.Random(seed)
    return random_computad_comp(comp_signature(), rng, max_obj=3, max_arr=3, tag=f"s{seed}")


COMPUTADS = {
    "walk2": walk2,
    "walk3": lambda: walk_n(comp_signature(), 3),
    "kan": _kan2_interval,
    **{f"comp{seed}": (lambda seed=seed: _random_comp(seed)) for seed in range(4)},
}


@pytest.mark.parametrize("name", sorted(COMPUTADS))
def test_shapes_and_supports_from_a_warm_computad_match_a_cold_one(name):
    c = COMPUTADS[name]()
    ts = _terms(c)
    cold = {}
    for t in ts:
        fresh = _fresh(c)
        cold[t] = (classify(fresh, t), support(fresh, t))
    for order in _two_orders(ts):
        warm = _fresh(c)
        for _ in range(2):  # filling the tables, then reading them
            for t in order:
                shape, supp = cold[t]
                assert classify(warm, t) is shape
                assert support(warm, t) == supp


def _path_morphisms(seed: int) -> list[tuple[ComputadMorphism, list[ComputadMorphism]]]:
    """Random morphisms between random comp computads, each with two monos
    into its target: the inclusions of its image and of the target's objects."""
    rng = random.Random(seed)
    sig = comp_signature()
    out = []
    while len(out) < 4:
        src = random_computad_comp(sig, rng, tag="x")
        dst = random_computad_comp(sig, rng, tag="y")
        m = random_morphism_comp(sig, src, dst, rng)
        if m is not None:
            objects = sub_computad(dst, sig, lambda s, g: s == "o")
            out.append((m, [image_factorize(m)[2], inclusion(objects, dst)]))
    return out


def _fresh_morphisms(m: ComputadMorphism, monos: list[ComputadMorphism]) -> tuple:
    """Equal morphisms over equal computads, all with empty tables."""
    dst = _fresh(m.dst)
    return (
        ComputadMorphism(_fresh(m.src), dst, dict(m.assign)),
        [ComputadMorphism(_fresh(r.src), dst, dict(r.assign)) for r in monos],
    )


def _morphism_answers(m: ComputadMorphism, monos: list[ComputadMorphism]) -> tuple:
    try:
        inverse = _mono_inverse(m)
    except NotMono:
        inverse = None
    pi, middle, iota = image_factorize(m)
    lifts = [lift_through_mono(rho, m) for rho in monos]
    return (
        support_morphism(m),
        is_epi(m),
        inverse,
        (middle.gens, middle.glue, pi.assign, iota.assign),
        [_mono_inverse(rho) for rho in monos],
        [None if lift is None else lift.assign for lift in lifts],
    )


@pytest.mark.parametrize("seed", range(3))
def test_lookups_on_warm_morphisms_match_cold_ones(seed):
    cases = _path_morphisms(seed)
    cold = [_morphism_answers(*_fresh_morphisms(*case)) for case in cases]
    for order in _two_orders(list(range(len(cases)))):
        warm = [_fresh_morphisms(*case) for case in cases]
        for _ in range(2):
            for i in order:
                assert _morphism_answers(*warm[i]) == cold[i]


ALGEBRAS = {
    **{f"Z/{n}": (lambda n=n: zn_algebra(n)) for n in (2, 3, 5)},
    **{f"chain{k}": (lambda k=k: chain_algebra(k)) for k in (2, 3, 4)},
}


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_values_from_a_warm_algebra_match_a_cold_one(name):
    alg = ALGEBRAS[name]()
    ts = _terms(free_computad(alg.carrier, alg.signature))
    cold = {t: eval_term(Algebra(alg.signature, alg.carrier, alg.interp), t) for t in ts}
    for order in _two_orders(ts):
        warm = Algebra(alg.signature, alg.carrier, alg.interp)
        for _ in range(2):
            for t in order:
                assert eval_term(warm, t) == cold[t]
