import random

import pytest

from computads.algebra import free_algebra
from computads.computad import apply_morphism, free_computad, identity_morphism, make_computad
from computads.errors import FunctorialityFailure
from computads.monad import (
    FreeAlgebra,
    counit,
    enumerate_terms,
    mult,
    term_action,
    term_presheaf,
    terms_saturated,
    transpose,
    unit,
    untranspose,
)
from computads.packs import discrete_signature
from computads.presheaf import representable
from computads.terms import app, boundary, var

from fixtures import (
    arrow_arity,
    classifying_morphisms,
    comp_signature,
    comp_uv,
    law_families,
    random_computad_comp,
    walk2,
)


def test_enumerate_depth0_is_generators():
    c = walk2()
    assert enumerate_terms(c, "a", 0) == [var("u"), var("v")]
    assert enumerate_terms(c, "o", 0) == [var("p"), var("q"), var("r")]


def test_enumerate_depth1_adds_single_composite():
    c = walk2()
    ts = enumerate_terms(c, "a", 1)
    assert ts == [var("u"), var("v"), comp_uv()]
    # saturation: no new composable pairs appear at greater depth
    assert terms_saturated(c, "a", 1)
    assert enumerate_terms(c, "a", 5) == ts


def test_enumerate_empty_computad():
    from computads.computad import make_computad

    empty = make_computad(comp_signature(), {}, {})
    assert enumerate_terms(empty, "a", 3) == []
    assert enumerate_terms(empty, "o", 3) == []


def test_the_term_presheaf_is_the_free_algebra():
    c = walk2()
    view, fa = term_presheaf(c, 1), free_algebra(c, 1)
    assert type(view) is FreeAlgebra and type(fa) is FreeAlgebra
    assert view.presheaf is view.carrier
    assert view.carrier == fa.carrier and view.decode == fa.decode
    assert view.signature is c.signature
    env = {"x": "p", "y": "q", "z": "r", "f": "u", "g": "v"}
    env = {cell: view.encode[var(gen)] for cell, gen in env.items()}
    assert view.decode[view.interpret("comp", env)] == comp_uv()


def test_term_presheaf_closure_and_action():
    c = walk2()
    view = term_presheaf(c, 1)
    assert len(view.presheaf.cells_at("a")) == 3
    assert len(view.presheaf.cells_at("o")) == 3
    cell = view.encode[comp_uv()]
    assert view.presheaf.act("s", cell) == view.encode[var("p")]


def test_unit_is_generator_inclusion():
    sig = comp_signature()
    b = arrow_arity(sig.base)
    eta = unit(b, sig)
    free = free_computad(b, sig)
    view = term_presheaf(free, 0)
    for cell in ("x", "y", "z", "f", "g"):
        assert eta.component[cell] == view.encode[var(cell)]


def test_counit_reads_terms_back():
    c = walk2()
    eps = counit(c, 1)
    cell = [g for g in eps.src.generators_at("a") if g not in ("v(u)", "v(v)")][0]
    assert eps.assign[cell] == comp_uv()
    assert apply_morphism(eps, var("v(u)")) == var("u")


def test_mult_flattens_one_layer():
    c = walk2()
    view = term_presheaf(c, 1)
    # the term var(enc(comp_uv)) over the free computad on terms
    t = var(view.encode[comp_uv()])
    assert mult(t, view.decode) == comp_uv()
    free = free_computad(view.presheaf, c.signature)
    nested = app(
        "comp",
        {
            "x": var(view.encode[var("p")]),
            "y": var(view.encode[var("q")]),
            "z": var(view.encode[var("r")]),
            "f": var(view.encode[var("u")]),
            "g": var(view.encode[var("v")]),
        },
    )
    from computads.terms import check_term

    check_term(free, nested)
    assert mult(nested, view.decode) == comp_uv()


def test_snake_equations_on_walk2():
    # Term(eps) . eta at the presheaf of terms is the identity.
    c = walk2()
    view = term_presheaf(c, 2)
    eps = counit(c, 2)
    for sort in ("o", "a"):
        for t in enumerate_terms(c, sort, 2):
            lifted = var(view.encode[t])  # eta at the term presheaf
            assert apply_morphism(eps, lifted) == t


def test_monad_laws_at_desk_scale():
    c = walk2()
    sig = c.signature
    view1 = term_presheaf(c, 2)
    free1 = free_computad(view1.presheaf, sig)

    # mu . eta = id : lifting a term to a generator term and flattening
    for t in view1.decode.values():
        assert mult(var(view1.encode[t]), view1.decode) == t

    # mu . Term(eta) = id : relabelling generators to generator-terms, then
    # flattening.  eta on the generator presheaf of walk2.
    gen_view = term_presheaf(c, 0)
    eta_component = {g: gen_view.encode[var(g)] for _, g in c.all_generators()}
    for sort in ("o", "a"):
        for t in enumerate_terms(c, sort, 2):
            relabelled = term_action(t, eta_component)
            assert mult(relabelled, gen_view.decode) == t

    # associativity: two ways of flattening doubly-nested terms agree
    view2 = term_presheaf(free1, 1)
    free2 = free_computad(view2.presheaf, sig)
    for sort in ("o", "a"):
        for tt in enumerate_terms(free2, sort, 1):
            # mu . mu: flatten the outer layer, then the result against C
            outer = mult(tt, view2.decode)
            lhs = mult(outer, view1.decode)
            # mu . M(mu): flatten each named middle term, then flatten
            flattened_names = {
                name: view1.encode[mult(middle, view1.decode)]
                for name, middle in view2.decode.items()
            }
            rhs = mult(term_action(tt, flattened_names), view1.decode)
            assert lhs == rhs


def test_transpose_untranspose_roundtrip():
    sig = comp_signature()
    c = walk2(sig)
    b = arrow_arity(sig.base)
    family = {
        "x": var("p"),
        "y": var("q"),
        "z": var("r"),
        "f": var("u"),
        "g": var("v"),
    }
    m = untranspose(b, sig, c, family)
    assert transpose(m) == family
    assert apply_morphism(m, var("f")) == var("u")


def test_transpose_and_untranspose_are_inverse():
    # the morphisms out of the free computads on representables and on
    # the depth-0 term presheaf, rebuilt from their argument families, are
    # equal by the generated ``==`` to the morphisms they came from
    count = 0
    for c in law_families():
        pairs = [(representable(c.base, s), classifying_morphisms(c, s)) for s in c.base.sorts]
        pairs.append((term_presheaf(c, 0).carrier, [counit(c, 0)]))
        for arity, morphisms in pairs:
            for m in morphisms:
                family = transpose(m)
                assert untranspose(arity, c.signature, c, family) == m
                assert transpose(untranspose(arity, c.signature, c, family)) == family
                count += 1
    assert count > 150, count


def test_boundary_naturality_random():
    sig = comp_signature()
    rng = random.Random(23)
    for _ in range(20):
        c = random_computad_comp(sig, rng)
        for t in enumerate_terms(c, "a", 2):
            ident = identity_morphism(c)
            assert apply_morphism(ident, boundary(c, "s", t)) == boundary(
                c, "s", apply_morphism(ident, t)
            )


def test_terms_spelled_alike_are_a_duplicate_cell():
    """Two terms of ``f`` over generators whose ids hold ``v(``, ``,`` and
    ``=`` are both spelled ``f[f.*0=v(1),f.*1=v(2),f.*1=v(3)]``: the term
    presheaf rejects them rather than merge two cells."""
    sig = discrete_signature(["*"], [("f", "*", {"*": 2})])
    c = make_computad(sig, {"*": ("1),f.*1=v(2", "3", "1", "2),f.*1=v(3")}, {})
    with pytest.raises(FunctorialityFailure, match="duplicate cell id"):
        term_presheaf(c, 1)


def test_enumerated_terms_retain_few_bytes_each():
    # a bound on memory, not a timing: a term of the group signature to depth
    # 3 over two generators keeps 325-339 bytes (Python 3.10-3.13) with its
    # children in one tuple under labels its head shares, and 428-442 bytes
    # with a (label, child) pair per argument
    import gc
    import tracemalloc

    from computads.packs import group_signature

    c = make_computad(group_signature(), {"*": ("x", "y")}, {})
    gc.collect()
    tracemalloc.start()
    try:
        ts = enumerate_terms(c, "*", 3)
        gc.collect()
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(ts) == 8745
    assert retained / len(ts) <= 400
