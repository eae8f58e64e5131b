import random

import pytest

from computads.computad import (
    ComputadMorphism,
    apply_morphism,
    compose_morphisms,
    free_computad,
    identity_morphism,
    isomorphic,
    make_morphism,
    var_to_var_morphism,
)
from computads.factorization import (
    image_factorize,
    is_epi,
    lift_through_mono,
    orthogonal_lift,
    split_idempotent,
    support,
    support_term,
)
from computads.monad import enumerate_terms
from computads.presheaf import representable
from computads.terms import app, boundary, var

from fixtures import comp_signature, comp_uv, random_computad_comp, walk2


def test_support_of_var_includes_gluings():
    c = walk2()
    assert support_term(c, var("u"), "o") == {"p", "q"}
    assert support_term(c, var("u"), "a") == {"u"}


def test_support_of_composite_unions_args():
    c = walk2()
    t = comp_uv()
    assert support_term(c, t, "o") == {"p", "q", "r"}
    assert support_term(c, t, "a") == {"u", "v"}


def test_support_of_bare_generator():
    c = walk2()
    assert support_term(c, var("p"), "o") == {"p"}
    assert support_term(c, var("p"), "a") == frozenset()


def test_support_of_a_deep_term_does_not_recurse():
    from computads.computad import make_computad
    from computads.packs import group_signature

    c = make_computad(group_signature(), {"*": ("x",)}, {})
    t = var("x")
    for _ in range(2000):
        t = app("neg", {"neg.*0": t})
    assert support(c, t) == {"*": {"x"}}


def test_support_closed_under_boundary():
    sig = comp_signature()
    rng = random.Random(5)
    for _ in range(20):
        c = random_computad_comp(sig, rng)
        for t in enumerate_terms(c, "a", 2):
            for face in ("s", "t"):
                b = boundary(c, face, t)
                for sort in ("o", "a"):
                    assert support_term(c, b, sort) <= support_term(c, t, sort)


def test_support_of_apply_is_union_formula():
    # supp_i(sigma(t)) = union over v in supp_k(t) of supp_i(sigma_k(v))
    sig = comp_signature()
    c = walk2(sig)
    d = walk2(sig)
    sigma = identity_morphism(c)
    for t in enumerate_terms(c, "a", 2):
        image = apply_morphism(sigma, t)
        for sort in ("o", "a"):
            expected = frozenset()
            for k in ("o", "a"):
                for v in support_term(c, t, k):
                    expected |= support_term(d, sigma.assign[v], sort)
            assert support_term(d, image, sort) == expected


def test_lift_through_identity():
    c = walk2()
    ident = identity_morphism(c)
    disk = free_computad(representable(c.base, "a"), c.signature)
    chi = make_morphism(disk, c, {"id_a": comp_uv(), "s": var("p"), "t": var("r")})
    lifted = lift_through_mono(ident, chi)
    assert lifted == chi


def test_lift_blocked_outside_image():
    sig = comp_signature()
    c = walk2(sig)
    sub = free_computad(representable(sig.base, "o"), sig)
    # include the single object generator as p
    incl = var_to_var_morphism(sub, c, {"id_o": "p"})
    disk_o = free_computad(representable(sig.base, "o"), sig)
    hit_q = var_to_var_morphism(disk_o, c, {"id_o": "q"})
    hit_p = var_to_var_morphism(disk_o, c, {"id_o": "p"})
    assert lift_through_mono(incl, hit_q) is None
    lifted = lift_through_mono(incl, hit_p)
    assert lifted is not None and compose_morphisms(incl, lifted) == hit_p


def test_factorize_classifying_morphism_of_comp():
    sig = comp_signature()
    c = walk2(sig)
    disk = free_computad(representable(sig.base, "a"), sig)
    chi = make_morphism(disk, c, {"id_a": comp_uv(), "s": var("p"), "t": var("r")})
    pi, middle, iota = image_factorize(chi)
    # comp_uv uses everything: middle is walk2 itself
    assert isomorphic(middle, c)
    assert compose_morphisms(iota, pi) == chi
    assert is_epi(pi)
    assert iota.is_var_to_var() and iota.is_injective()


def test_factorize_single_arrow_classifier():
    sig = comp_signature()
    c = walk2(sig)
    disk = free_computad(representable(sig.base, "a"), sig)
    chi = make_morphism(disk, c, {"id_a": var("u"), "s": var("p"), "t": var("q")})
    pi, middle, iota = image_factorize(chi)
    assert set(middle.generators_at("o")) == {"p", "q"}
    assert set(middle.generators_at("a")) == {"u"}
    assert isomorphic(middle, disk)


def test_factorize_injective_var_to_var_has_iso_epi_part():
    sig = comp_signature()
    c = walk2(sig)
    disk = free_computad(representable(sig.base, "a"), sig)
    incl = var_to_var_morphism(disk, c, {"id_a": "u", "s": "p", "t": "q"})
    pi, middle, iota = image_factorize(incl)
    # the epi part of an injective var-to-var morphism is an isomorphism
    assert pi.is_var_to_var() and pi.is_injective()
    assert isomorphic(middle, disk)


def test_epi_criterion():
    c = walk2()
    assert is_epi(identity_morphism(c))
    sig = c.signature
    disk = free_computad(representable(sig.base, "a"), sig)
    chi = make_morphism(disk, c, {"id_a": var("u"), "s": var("p"), "t": var("q")})
    assert not is_epi(chi)  # misses r and v


def test_split_idempotent_collapse():
    from computads.computad import make_computad

    sig = comp_signature()
    # walk2 plus an extra arrow w : p -> r, collapsed onto the composite
    c = make_computad(
        sig,
        {"o": ("p", "q", "r"), "a": ("u", "v", "w")},
        {
            ("u", "s"): var("p"),
            ("u", "t"): var("q"),
            ("v", "s"): var("q"),
            ("v", "t"): var("r"),
            ("w", "s"): var("p"),
            ("w", "t"): var("r"),
        },
    )
    e = make_morphism(
        c,
        c,
        {
            "p": var("p"),
            "q": var("q"),
            "r": var("r"),
            "u": var("u"),
            "v": var("v"),
            "w": comp_uv(),
        },
    )
    assert compose_morphisms(e, e) == e
    retr, sect = split_idempotent(e)
    assert compose_morphisms(retr, sect) == identity_morphism(retr.dst)
    assert isomorphic(retr.dst, walk2(sig))


def test_split_requires_idempotent():
    sig = comp_signature()
    c = walk2(sig)
    swap_like = ComputadMorphism(
        src=c,
        dst=c,
        assign={"p": var("q"), "q": var("r"), "r": var("r"), "u": var("v"), "v": var("r")},
    )
    with pytest.raises(Exception):
        split_idempotent(swap_like)


def test_orthogonal_lifting_square():
    sig = comp_signature()
    c = walk2(sig)
    pi, middle, iota = image_factorize(identity_morphism(c))
    # trivial square: identity epi against iota
    diag = orthogonal_lift(
        epi=pi, mono=iota, top=pi, bottom=identity_morphism(c)
    )
    assert diag is not None
    assert compose_morphisms(iota, diag) == identity_morphism(c)


def test_orthogonal_lifting_random_squares():
    # (epi, var-to-var mono) squares admit a unique diagonal filler
    from fixtures import random_morphism_comp

    sig = comp_signature()
    rng = random.Random(77)
    found = 0
    while found < 20:
        a = random_computad_comp(sig, rng, tag="a")
        b = random_computad_comp(sig, rng, tag="b")
        d = random_computad_comp(sig, rng, tag="d")
        sigma = random_morphism_comp(sig, a, b, rng)
        tau = random_morphism_comp(sig, a, d, rng)
        if sigma is None or tau is None:
            continue
        epi, _, _ = image_factorize(sigma)
        _, sub, mono = image_factorize(tau)
        connect = random_morphism_comp(sig, epi.dst, sub, rng)
        if connect is None:
            continue
        found += 1
        top = compose_morphisms(connect, epi)
        bottom = compose_morphisms(mono, connect)
        diag = orthogonal_lift(epi=epi, mono=mono, top=top, bottom=bottom)
        assert diag is not None
        assert compose_morphisms(mono, diag) == bottom
        assert compose_morphisms(diag, epi) == top
        assert diag == connect  # uniqueness: the filler is forced


def test_agreement_criterion_perturbation():
    # two morphisms agree on a term exactly when they agree on its support
    from computads.computad import make_computad, make_morphism

    sig = comp_signature()
    c = make_computad(
        sig,
        {"o": ("p", "q", "r", "z"), "a": ("u", "v")},
        {
            ("u", "s"): var("p"),
            ("u", "t"): var("q"),
            ("v", "s"): var("q"),
            ("v", "t"): var("r"),
        },
    )
    t = comp_uv()  # support excludes the isolated object z
    base = {g: var(g) for g in ("p", "q", "r", "z", "u", "v")}
    off_support = dict(base, z=var("p"))
    one = make_morphism(c, c, base)
    other = make_morphism(c, c, off_support)
    assert apply_morphism(one, t) == apply_morphism(other, t)
    # perturbing inside the support changes the value
    swapped = dict(base, p=var("z"))
    inside = ComputadMorphism(src=c, dst=c, assign=swapped)
    assert apply_morphism(inside, t) != apply_morphism(one, t)
