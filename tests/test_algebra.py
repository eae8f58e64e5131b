import collections
import itertools

import pytest

from computads.algebra import (
    algebra_from_callbacks,
    algebra_morphisms,
    check_algebra_morphism,
    eval_term,
    free_algebra,
    hom_key,
    morphism_from_generators,
    rows,
    tabulate,
)
from computads.computad import make_computad
from computads.errors import (
    BaseMismatch,
    BoundaryConditionFailure,
    DepthExceeded,
    PartialTable,
    UnknownGenerator,
)
from computads.monad import enumerate_terms
from computads.packs import group_signature
from computads.presheaf import enumerate_hom, make_presheaf
from computads.terms import app, var

from fixtures import (
    comp_signature,
    comp_uv,
    group_base,
    pathcat_algebra,
    pathcat_carrier,
    walk2,
    z5_algebra,
    zero_algebra,
)


def test_pathcat_is_an_algebra():
    alg = pathcat_algebra()
    assert alg.interpret("comp", {"x": "A", "y": "B", "z": "C", "f": "e1", "g": "e2"}) == "e12"


def test_boundary_condition_failure_detected():
    sig = comp_signature()
    carrier = pathcat_carrier(sig.base)

    def bad(env):
        return "iA"  # endpoints wrong on most rows

    with pytest.raises(BoundaryConditionFailure):
        algebra_from_callbacks(sig, carrier, {"comp": bad})


def test_partial_table_detected():
    sig = comp_signature()
    carrier = pathcat_carrier(sig.base)
    with pytest.raises(PartialTable):
        from computads.algebra import algebra_from_interpretations

        algebra_from_interpretations(sig, carrier, {"comp": {}})


def test_trivial_algebra_empty_signature():
    from computads.signature import Signature

    sig = comp_signature()
    empty_sig = Signature(base=sig.base, symbols={})
    carrier = pathcat_carrier(sig.base)
    from computads.algebra import algebra_from_interpretations

    alg = algebra_from_interpretations(empty_sig, carrier, {})
    assert alg.cells_at("o") == ("A", "B", "C")


def test_table_and_callback_agree():
    for alg in (pathcat_algebra(), z5_algebra(), _chain(3)):
        tab = tabulate(alg)
        assert rows(alg)
        for symbol_id, env, value in rows(alg):
            assert tab.interpret(symbol_id, env) == value
        assert rows(tab) == rows(alg)


def test_eval_term_var_and_nested():
    z5 = z5_algebra()
    assert eval_term(z5, var("3")) == "3"
    t = app("plus", {"plus.*0": var("2"), "plus.*1": var("4")})
    assert eval_term(z5, t) == "1"
    inner = app("plus", {"plus.*0": var("4"), "plus.*1": var("1")})
    nested = app("plus", {"plus.*0": var("2"), "plus.*1": inner})
    assert eval_term(z5, nested) == "2"
    assert eval_term(z5, app("zero", {})) == "0"
    assert eval_term(z5, app("neg", {"neg.*0": var("2")})) == "3"


def test_eval_commutes_with_boundary():
    alg = pathcat_algebra()
    from computads.computad import free_computad

    free = free_computad(alg.carrier, alg.signature)
    for t in enumerate_terms(free, "a", 2):
        for face in ("s", "t"):
            from computads.terms import boundary

            assert alg.act(face, eval_term(alg, t)) == eval_term(
                alg, boundary(free, face, t)
            )


def test_free_algebra_interpret_is_application():
    c = walk2()
    fa = free_algebra(c, 1)
    env = {
        "x": fa.encode[var("p")],
        "y": fa.encode[var("q")],
        "z": fa.encode[var("r")],
        "f": fa.encode[var("u")],
        "g": fa.encode[var("v")],
    }
    assert fa.interpret("comp", env) == fa.encode[comp_uv()]


def test_free_algebra_depth_exceeded():
    sig = comp_signature()
    # a loop arrow composable with itself makes depth grow without bound
    loop = make_computad(
        sig,
        {"o": ("p",), "a": ("e",)},
        {("e", "s"): var("p"), ("e", "t"): var("p")},
    )
    fa = free_algebra(loop, 0)
    env = {c: fa.encode[var(g)] for c, g in
           [("x", "p"), ("y", "p"), ("z", "p"), ("f", "e"), ("g", "e")]}
    with pytest.raises(DepthExceeded):
        fa.interpret("comp", env)


def test_free_algebra_on_empty_computad():
    empty = make_computad(comp_signature(), {}, {})
    fa = free_algebra(empty, 3)
    assert fa.cells_at("o") == ()
    assert fa.cells_at("a") == ()


def test_point_computad_morphisms_are_carrier_cells():
    # assignments out of the representable on a zero sort are exactly cells
    from computads.computad import free_computad
    from computads.presheaf import representable

    alg = pathcat_algebra()
    sig = alg.signature
    point = free_computad(representable(sig.base, "o"), sig)
    valid = []
    for cell in alg.cells_at("o"):
        morphism_from_generators(point, alg, {"id_o": cell})
        valid.append(cell)
    assert valid == list(alg.cells_at("o"))


def test_morphism_from_generators_pathcat():
    c = walk2()
    alg = pathcat_algebra()
    ev = morphism_from_generators(
        c, alg, {"p": "A", "q": "B", "r": "C", "u": "e1", "v": "e2"}
    )
    assert ev(comp_uv()) == "e12"
    with pytest.raises(BoundaryConditionFailure):
        morphism_from_generators(
            c, alg, {"p": "A", "q": "B", "r": "C", "u": "e2", "v": "e2"}
        )


def test_morphism_from_generators_checks_names_and_signature():
    from computads.signature import Signature

    c, alg = walk2(), pathcat_algebra()
    assign = {"p": "A", "q": "B", "r": "C", "u": "e1", "v": "e2"}
    with pytest.raises(UnknownGenerator):
        morphism_from_generators(c, alg, dict(assign, zzz="A"))
    bare = make_computad(Signature(c.base, {}), c.gens, c.glue)
    with pytest.raises(BaseMismatch):
        morphism_from_generators(bare, alg, assign)


def test_algebra_from_callbacks_rejects_a_carrier_over_another_category():
    from computads.signature import Signature

    # no symbols, so no row would compare the two categories
    carrier = make_presheaf(group_base(), {"*": ("0",)}, {})
    with pytest.raises(BaseMismatch):
        algebra_from_callbacks(Signature(comp_signature().base, {}), carrier, {})


def test_algebra_morphisms_across_signatures_are_rejected():
    ident = {str(k): str(k) for k in range(5)}
    for src, dst in ((z5_algebra(), zero_algebra()), (zero_algebra(), z5_algebra())):
        with pytest.raises(BaseMismatch):
            check_algebra_morphism(src, dst, ident)
        with pytest.raises(BaseMismatch):
            algebra_morphisms(src, dst)


def test_identity_is_algebra_morphism():
    alg = pathcat_algebra()
    ident = {c: c for cs in alg.carrier.cells.values() for c in cs}
    ok, witness = check_algebra_morphism(alg, alg, ident)
    assert ok and witness is None


def test_doubling_is_group_morphism_on_z5():
    z5 = z5_algebra()
    double = {str(k): str((2 * k) % 5) for k in range(5)}
    ok, _ = check_algebra_morphism(z5, z5, double)
    assert ok
    # constant-to-zero is also a morphism for the group signature
    const = {str(k): "0" for k in range(5)}
    ok, _ = check_algebra_morphism(z5, z5, const)
    assert ok


def test_doubling_fails_unit_preservation_in_module_signature():
    from computads.packs import module_signature

    sig = module_signature()
    cells = {
        "R": tuple(f"r{k}" for k in range(5)),
        "V": tuple(f"w{k}" for k in range(5)),
    }
    carrier = make_presheaf(sig.base, cells, {})

    def dec(cell):
        return int(cell[1:])

    def op(prefix, fn, arity_cells):
        def run(env):
            vals = [dec(env[c]) for c in arity_cells]
            return f"{prefix}{fn(*vals) % 5}"

        return run

    callbacks = {
        "plusR": op("r", lambda a, b: a + b, ["plusR.R0", "plusR.R1"]),
        "timesR": op("r", lambda a, b: a * b, ["timesR.R0", "timesR.R1"]),
        "zeroR": op("r", lambda: 0, []),
        "oneR": op("r", lambda: 1, []),
        "negR": op("r", lambda a: -a, ["negR.R0"]),
        "plusV": op("w", lambda a, b: a + b, ["plusV.V0", "plusV.V1"]),
        "zeroV": op("w", lambda: 0, []),
        "negV": op("w", lambda a: -a, ["negV.V0"]),
        "scale": op("w", lambda a, b: a * b, ["scale.R0", "scale.V0"]),
    }
    alg = algebra_from_callbacks(sig, carrier, callbacks)
    double = {f"r{k}": f"r{(2*k)%5}" for k in range(5)}
    double.update({f"w{k}": f"w{(2*k)%5}" for k in range(5)})
    ok, witness = check_algebra_morphism(alg, alg, double)
    assert not ok
    assert witness is not None


def test_universal_property_count_walk2_pathcat():
    # morphisms from the free algebra on walk2 = boundary-compatible
    # generator assignments, counted independently.
    c = walk2()
    alg = pathcat_algebra()
    fa = free_algebra(c, 2)

    morphs = algebra_morphisms(fa, alg)

    assignments = 0
    objects = alg.cells_at("o")
    arrows = alg.cells_at("a")
    for po, qo, ro in itertools.product(objects, repeat=3):
        for ua, va in itertools.product(arrows, repeat=2):
            try:
                morphism_from_generators(
                    c, alg, {"p": po, "q": qo, "r": ro, "u": ua, "v": va}
                )
            except Exception:
                continue
            assignments += 1
    assert len(morphs) == assignments
    assert assignments > 0


def _cyclic(n):
    """Z/n as an algebra of the group signature."""
    sig = group_signature()
    carrier = make_presheaf(sig.base, {"*": tuple(str(k) for k in range(n))}, {})
    return algebra_from_callbacks(
        sig,
        carrier,
        {
            "plus": lambda env: str((int(env["plus.*0"]) + int(env["plus.*1"])) % n),
            "zero": lambda env: "0",
            "neg": lambda env: str(-int(env["neg.*0"]) % n),
        },
    )


def _chain(k):
    """The path category of the chain c0 -> ... -> c{k-1}: one arrow aij
    per pair i <= j, composed by concatenation."""
    sig = comp_signature()
    objs = tuple(f"c{i}" for i in range(k))
    arrows = {f"a{i}{j}": (i, j) for i in range(k) for j in range(i, k)}
    action = {}
    for name, (i, j) in arrows.items():
        action[("s", name)] = objs[i]
        action[("t", name)] = objs[j]
    carrier = make_presheaf(sig.base, {"o": objs, "a": tuple(sorted(arrows))}, action)

    def comp(env):
        return f"a{arrows[env['f']][0]}{arrows[env['g']][1]}"

    return algebra_from_callbacks(sig, carrier, {"comp": comp})


@pytest.mark.parametrize(
    "pairs",
    [
        [(_cyclic(n), _cyclic(m)) for n in range(2, 6) for m in range(2, 6)],
        [(_chain(k), _chain(l)) for k in (3, 4) for l in (3, 4)],
    ],
    ids=["cyclic", "chain"],
)
def test_algebra_morphisms_match_a_check_of_every_carrier_map(pairs):
    for a, b in pairs:
        reference = [
            h
            for h in enumerate_hom(a.carrier, b.carrier)
            if check_algebra_morphism(a, b, h.component)[0]
        ]
        found = algebra_morphisms(a, b)
        assert [h.component for h in found] == [h.component for h in reference]
        assert found  # a map onto one identity element is always among them


def test_depth_bounded_source_is_rejected_before_any_carrier_map():
    # terms of depth <= 1 on one generator: x, zero, neg(x), plus(x, x); rows
    # such as neg(neg(x)) leave the bound, so no carrier map can be checked
    sig = group_signature()
    fa = free_algebra(make_computad(sig, {"*": ("x",)}, {}), 1)
    z5 = _cyclic(5)
    maps = enumerate_hom(fa.carrier, z5.carrier)
    assert len(maps) == 625
    for h in maps:
        with pytest.raises(DepthExceeded):
            check_algebra_morphism(fa, z5, h.component)
    with pytest.raises(DepthExceeded):
        algebra_morphisms(fa, z5)


def test_algebra_morphism_search_work_is_bounded():
    # 8**8 carrier maps; with the rows as constraints the search interprets
    # about a thousand rows in the target
    z8 = _cyclic(8)
    target = _cyclic(8)
    calls = [0]
    interpret = target.interpret

    def counted(symbol_id, assignment):
        calls[0] += 1
        assert calls[0] <= 20_000, "constraint search interpreted too many rows"
        return interpret(symbol_id, assignment)

    target.interpret = counted
    found = algebra_morphisms(z8, target)
    assert [h.component["1"] for h in found] == [str(k) for k in range(8)]
    for h in found:
        assert check_algebra_morphism(z8, _cyclic(8), h.component) == (True, None)


def test_each_row_is_interpreted_once_per_algebra():
    # building the algebra checks every row; checking carrier maps out of it
    # and counting its morphisms read the same rows without interpreting again
    calls = collections.Counter()
    z5 = _cyclic(5)

    def counted(symbol_id):
        def interpret(env):
            calls[(symbol_id, hom_key(env))] += 1
            return z5.interpret(symbol_id, env)

        return interpret

    alg = algebra_from_callbacks(
        z5.signature, z5.carrier, {s: counted(s) for s in z5.signature.symbols}
    )
    target = _cyclic(5)
    for k in range(5):
        scale = {str(i): str(k * i % 5) for i in range(5)}
        assert check_algebra_morphism(alg, target, scale) == (True, None)
    assert len(algebra_morphisms(alg, target)) == 5
    assert len(calls) == 25 + 1 + 5  # plus, zero and neg rows over Z/5
    assert set(calls.values()) == {1}

