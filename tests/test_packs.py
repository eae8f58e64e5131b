import random
import time

import pytest

from computads.computad import free_computad
from computads.errors import BadIndex, SideConditionFailure
from computads.monad import enumerate_terms
from computads.packs import (
    boundary_simplex,
    delta_face,
    delta_plus,
    discrete_signature,
    group_signature,
    horn,
    module_signature,
    sigma_kan,
    simplex,
    simplex_sort,
)
from computads.signature import restrict_signature
from computads.terms import App, var


def test_delta_plus_hom_counts():
    cat = delta_plus(2)
    assert len(cat.hom(simplex_sort(0), simplex_sort(2))) == 3
    assert len(cat.hom(simplex_sort(1), simplex_sort(2))) == 3
    assert len(cat.hom(simplex_sort(0), simplex_sort(1))) == 2


def test_delta_plus_simplicial_identity():
    cat = delta_plus(3)
    for n in (1, 2):
        for j in range(n + 1):
            for i in range(j + 1):
                lhs = cat.compose(delta_face(n, j), delta_face(n + 1, i))
                rhs = cat.compose(delta_face(n, i), delta_face(n + 1, j + 1))
                assert lhs == rhs


def test_truncate_delta():
    from computads.base import truncate_category

    cat = delta_plus(2)
    tr1 = truncate_category(cat, 1)
    assert set(tr1.dims) == {simplex_sort(0), simplex_sort(1)}
    assert sorted(tr1.faces) == sorted([delta_face(1, 0), delta_face(1, 1)])


def test_simplex_and_boundary_sizes():
    cat = delta_plus(2)
    d2 = simplex(cat, 2)
    assert [len(d2.cells_at(simplex_sort(m))) for m in range(3)] == [3, 3, 1]
    b2 = boundary_simplex(cat, 2)
    assert [len(b2.cells_at(simplex_sort(m))) for m in range(3)] == [3, 3, 0]


def test_hom_boundary_interval_count():
    from computads.presheaf import enumerate_hom

    cat = delta_plus(1)
    assert len(enumerate_hom(boundary_simplex(cat, 1), simplex(cat, 1))) == 4


def test_horn_sizes():
    cat = delta_plus(2)
    l01 = horn(cat, 1, 0)
    assert [len(l01.cells_at(simplex_sort(m))) for m in range(3)] == [1, 0, 0]
    assert l01.cells_at(simplex_sort(0)) == (delta_face(1, 1),)
    l12 = horn(cat, 2, 1)
    assert [len(l12.cells_at(simplex_sort(m))) for m in range(3)] == [3, 2, 0]
    with pytest.raises(BadIndex):
        horn(cat, 1, 2)


def test_sigma_kan1_symbols():
    sig = sigma_kan(1)
    assert sorted(sig.symbols) == ["face_0_1", "face_1_1", "fill_0_1", "fill_1_1"]
    assert sig.symbol("face_0_1").sort == simplex_sort(0)
    assert sig.symbol("fill_0_1").sort == simplex_sort(1)


def test_sigma_kan_filler_boundary_case_split():
    sig = sigma_kan(1)
    fill = sig.symbol("fill_0_1")
    missing = delta_face(1, 0)
    other = delta_face(1, 1)
    at_missing = fill.boundary[missing]
    assert isinstance(at_missing, App) and at_missing.symbol == "face_0_1"
    assert fill.boundary[other] == var(other)


def test_sigma_kan2_validates_and_restricts():
    sig = sigma_kan(2)
    names = sorted(sig.symbols)
    assert names == [
        "face_0_1",
        "face_0_2",
        "face_1_1",
        "face_1_2",
        "face_2_2",
        "fill_0_1",
        "fill_0_2",
        "fill_1_1",
        "fill_1_2",
        "fill_2_2",
    ]
    r1 = restrict_signature(sig, 1)
    # the restriction keeps every symbol of output dimension <= 1, which
    # includes the faces of the 2-horns (they output at sort [1])
    assert sorted(r1.symbols) == [
        "face_0_1",
        "face_0_2",
        "face_1_1",
        "face_1_2",
        "face_2_2",
        "fill_0_1",
        "fill_1_1",
    ]
    assert restrict_signature(r1, 1) == r1


def test_sigma_kan3_validates_quickly():
    start = time.monotonic()
    sig = sigma_kan(3)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    assert len(sig.symbols) == 4 + 6 + 8


def test_kan_term_enumeration_on_interval():
    sig = sigma_kan(1)
    cat = sig.base
    interval = free_computad(simplex(cat, 1), sig)
    s0 = simplex_sort(0)
    assert len(enumerate_terms(interval, s0, 0)) == 2
    # depth 1 adds face_{k,1} applied to either vertex: 4 new terms
    assert len(enumerate_terms(interval, s0, 1)) == 6


def test_group_and_module_signatures():
    g = group_signature()
    assert sorted(g.symbols) == ["neg", "plus", "zero"]
    m = module_signature()
    assert m.symbol("scale").sort == "V"
    assert len(m.symbol("scale").arity.cells_at("R")) == 1
    assert len(m.symbol("scale").arity.cells_at("V")) == 1
    empty = discrete_signature([], [])
    assert not empty.symbols


# -- cubical pack ---------------------------------------------------------------------

def test_cube_category_shape():
    from computads.cubical import cube_category, subset_sort

    cat = cube_category(1)
    assert set(cat.dims) == {"{}", "{0}", "{1}", "{0,1}"}
    assert cat.dims[subset_sort((0, 1))] == 2
    # two faces per forgotten direction and side
    assert len(cat.faces_into(subset_sort((0, 1)))) == 2 * 2 + 4


def test_grid_position_counts_match_figure():
    from computads.cubical import cube_category, grid_positions, subset_sort

    cat = cube_category(1)
    pos = grid_positions(cat, {0: 4, 1: 1})
    counts = (
        len(pos.cells_at(subset_sort(()))),
        len(pos.cells_at(subset_sort((0,)))),
        len(pos.cells_at(subset_sort((1,)))),
        len(pos.cells_at(subset_sort((0, 1)))),
    )
    assert counts == (10, 8, 5, 4)


def test_grid_position_counts_product_formula():
    from computads.cubical import cube_category, grid_positions, subset_sort
    import itertools

    cat = cube_category(1)
    rng = random.Random(41)
    for _ in range(50):
        grid = {0: rng.randint(0, 3), 1: rng.randint(0, 3)}
        pos = grid_positions(cat, grid)
        for size in range(3):
            for j_set in itertools.combinations((0, 1), size):
                expected = 1
                for i in (0, 1):
                    expected *= grid[i] if i in j_set else grid[i] + 1
                assert len(pos.cells_at(subset_sort(j_set))) == expected


def test_grid_face_shifts_point():
    from computads.cubical import (
        cube_category,
        cube_face_id,
        grid_positions,
        _position_name,
    )

    cat = cube_category(1)
    pos = grid_positions(cat, {0: 4, 1: 1})
    square = _position_name({0: 2, 1: 0}, (0, 1))
    face = cube_face_id((0, 1), {0: 1})
    assert pos.act(face, square) == _position_name({0: 3, 1: 0}, (1,))


def test_grid_inclusion_identity_when_nothing_forgotten():
    from computads.cubical import cube_category, grid_inclusion

    cat = cube_category(1)
    incl = grid_inclusion(cat, {0: 2}, {})
    assert all(k == v for k, v in incl.component.items())


def test_grid_coherence_identity_and_binary():
    from computads.cubical import (
        cube_category,
        grid_composite,
        grid_coherence,
        grid_positions,
        _position_name,
    )
    from computads.signature import Signature

    cat = cube_category(0)
    # the 1-cell grid: sides are the two endpoint variables
    sig1, comp1 = grid_composite(cat, {0: 1})
    assert len(sig1.symbols) == 1
    sym = next(iter(sig1.symbols.values()))
    assert sym.boundary
    # binary composition over a 2-cell grid validates
    sig2, comp2 = grid_composite(cat, {0: 2})
    assert comp2.depth >= 1
    # a missing side is rejected
    lower = Signature(base=cat, symbols={})
    left = var(_position_name({0: 0}, ()))
    with pytest.raises(SideConditionFailure):
        grid_coherence(lower, {0: 1}, {(0, 0): left})


def test_grid_coherence_epi_condition():
    from computads.cubical import cube_category, grid_coherence, _position_name
    from computads.signature import Signature

    cat = cube_category(0)
    lower = Signature(base=cat, symbols={})
    left = var(_position_name({0: 0}, ()))
    right = var(_position_name({0: 2}, ()))
    middle = var(_position_name({0: 1}, ()))
    # skipping the middle position: the side is just an endpoint variable,
    # which is a legitimate epi onto the boundary grid (a point), so this
    # validates; a *wrong* endpoint fails the full-composite check instead
    # (a one-direction grid has no corners)
    sig = grid_coherence(lower, {0: 2}, {(0, 0): left, (0, 1): right})
    assert len(sig.symbols) == 1
    with pytest.raises(SideConditionFailure):
        grid_coherence(lower, {0: 2}, {(0, 0): middle, (0, 1): right})


def test_grid_coherence_rejects_sides_that_disagree_on_a_corner():
    from computads.cubical import (
        coherence_symbol_name,
        cube_category,
        cube_face_id,
        grid_coherence,
        grid_composite,
    )
    from computads.signature import Signature

    cat = cube_category(1)
    grid = {0: 1, 1: 1}
    sig, _ = grid_composite(cat, grid)
    name = coherence_symbol_name(grid)
    lower = Signature(base=cat, symbols=dict(sig.symbols))
    boundary = lower.symbols.pop(name).boundary
    sides = {
        (i, a): boundary[cube_face_id((0, 1), {i: a})] for i in (0, 1) for a in (0, 1)
    }
    assert grid_coherence(lower, grid, sides, groupoid=True) == sig
    # the two sides in direction 0 swapped: each still composes a boundary
    # grid, but its ends are the other side's corners
    sides[(0, 0)], sides[(0, 1)] = sides[(0, 1)], sides[(0, 0)]
    with pytest.raises(SideConditionFailure) as exc:
        grid_coherence(lower, grid, sides, groupoid=True)
    assert str(exc.value).startswith(f"the sides of {name} disagree where they meet: ")


def test_square_grid_composite():
    from computads.cubical import cube_category, grid_composite

    cat = cube_category(1)
    sig, comp = grid_composite(cat, {0: 1, 1: 1})
    # needs the two 1-dimensional unary coherences plus the square itself
    assert any(s.startswith("coh(0:1,1:1") for s in sig.symbols)
    assert comp.depth == 1


# -- globular pack ---------------------------------------------------------------------

def test_globe_category_two_maps_per_hom():
    from computads.globular import globe_category, globe_sort

    cat = globe_category(3)
    for m in range(4):
        for k in range(m):
            assert len(cat.hom(globe_sort(k), globe_sort(m))) == 2


def test_tree_parse_roundtrip():
    from computads.globular import parse_tree, tree_to_text

    for text in ("[]", "[[]]", "[[],[]]", "[[[],[]],[[]]]"):
        assert tree_to_text(parse_tree(text)) == text
    with pytest.raises(BadIndex):
        parse_tree("[[")


def test_tree_positions_shapes():
    from computads.globular import parse_tree, tree_positions

    arrow_pair = parse_tree("[[],[]]")
    assert len(tree_positions(arrow_pair, 0)) == 3
    assert len(tree_positions(arrow_pair, 1)) == 2
    vertical = parse_tree("[[[],[]]]")
    assert len(tree_positions(vertical, 0)) == 2
    assert len(tree_positions(vertical, 1)) == 3
    assert len(tree_positions(vertical, 2)) == 2


def test_tree_presheaf_globularity():
    from computads.globular import globe_category, parse_tree, tree_presheaf

    cat = globe_category(2)
    # built unchecked; tests/test_trusted.py re-checks its functoriality,
    # which includes the globular identities
    pos = tree_presheaf(cat, parse_tree("[[[],[]],[[]]]"))
    assert len(pos.cells_at("g0")) == 3
    assert len(pos.cells_at("g1")) == 5
    assert len(pos.cells_at("g2")) == 3
    # two-cells over the first branch run between the parallel arrows there
    assert pos.act("s1:2", "q0_0_0") == "q0_0"
    assert pos.act("t1:2", "q0_0_0") == "q0_1"
    assert pos.act("s0:2", "q0_0_0") == "q0"
    assert pos.act("t0:2", "q0_0_0") == "q1"


def _random_tree(rng: random.Random, height: int):
    """A seeded random tree of height at most ``height``, each node with up
    to two children."""
    return tuple(_random_tree(rng, height - 1) for _ in range(rng.randrange(3) if height else 0))


def test_tree_faces_and_inclusions_match_the_recursive_reference():
    # closed forms against recursion through the tree: every face action, and
    # every boundary inclusion of every height and flavour
    import oracles
    from computads.globular import (
        globe_category,
        tree_boundary_inclusion,
        tree_dim,
        tree_positions,
        tree_presheaf,
    )

    cat = globe_category(5)
    rng = random.Random(25)
    for _ in range(30):
        tree = _random_tree(rng, 5)
        d = tree_dim(tree)
        assert d == oracles.tree_dim(tree)
        for m in range(-1, d + 2):
            assert tree_positions(tree, m) == oracles.tree_positions(tree, m)
        assert tree_presheaf(cat, tree) == oracles._tree_presheaf(cat, tree)
        for n in range(d + 2):
            for flavor in ("s", "t"):
                incl = tree_boundary_inclusion(cat, tree, n, flavor)
                assert incl == oracles.tree_boundary_inclusion(cat, tree, n, flavor)


@pytest.mark.parametrize(
    "pack, shape, sides",
    [
        ("tree", "[[[[[[]]]]]]", 10),
        ("tree", "[[[]],[]]", 4),
        ("grid", "1,1,1", 24),
        ("grid", "2,1", 8),
    ],
)
def test_each_composite_builds_one_inclusion_per_side(monkeypatch, pack, shape, sides):
    from computads import cubical, globular

    built = []

    def counted(build):
        def call(*args):
            built.append(args)
            return build(*args)

        return call

    for module, name in ((globular, "tree_boundary_inclusion"), (cubical, "grid_inclusion")):
        monkeypatch.setattr(module, name, counted(getattr(module, name)))
    if pack == "tree":
        tree = globular.parse_tree(shape)
        globular.tree_composite(globular.globe_category(globular.tree_dim(tree)), tree)
    else:
        grid = dict(enumerate(map(int, shape.split(","))))
        cubical.grid_composite(cubical.cube_category(len(grid) - 1), grid)
    assert len(built) == sides


def test_tree_composite_chain():
    from computads.globular import globe_category, parse_tree, tree_composite

    cat = globe_category(1)
    sig, comp = tree_composite(cat, parse_tree("[[],[]]"))
    assert comp.depth == 1
    assert len(sig.symbols) == 1
    sym = next(iter(sig.symbols.values()))
    assert sym.sort == "g1"


def test_tree_composite_vertical_2cells():
    from computads.globular import globe_category, parse_tree, tree_composite

    cat = globe_category(2)
    sig, comp = tree_composite(cat, parse_tree("[[[],[]]]"))
    assert comp.depth >= 1
    # needs the 1-dimensional composite of the cut tree plus the 2-cell symbol
    assert len(sig.symbols) == 2


def test_globe_coherence_rejects_mismatched_sides():
    from computads.globular import (
        globe_category,
        globe_coherence,
        parse_tree,
        position_name,
    )
    from computads.signature import Signature

    cat = globe_category(1)
    lower = Signature(base=cat, symbols={})
    tree = parse_tree("[[]]")
    a = var(position_name((0,)))
    with pytest.raises(SideConditionFailure):
        # the target side must factor through the target inclusion, which
        # only reaches the other endpoint
        globe_coherence(lower, tree, 1, a, a)


def test_globe_coherence_rejects_a_partial_composite():
    from computads.globular import (
        globe_category,
        globe_coherence,
        parse_tree,
        position_name,
    )
    from computads.signature import Signature

    lower = Signature(base=globe_category(2), symbols={})
    a = var(position_name((0, 0)))
    # the cut of "[[],[]]" at height 1 has three points; a single point lifts
    # through the source inclusion but leaves the other two out of its support
    with pytest.raises(SideConditionFailure) as exc:
        globe_coherence(lower, parse_tree("[[],[]]"), 2, a, a)
    assert str(exc.value) == "the s-side is not a full composite of the cut tree"


def test_globe_coherence_rejects_sides_with_different_ends():
    from computads.globular import (
        globe_category,
        globe_coherence,
        parse_tree,
        position_name,
        tree_symbol_name,
    )
    from computads.signature import Signature

    lower = Signature(base=globe_category(2), symbols={})
    tree = parse_tree("[[[]],[]]")
    source = var(position_name((0, 0)))  # an arrow q0 -> q1
    target = var(position_name((1, 0)))  # an arrow q1 -> q2
    with pytest.raises(SideConditionFailure) as exc:
        globe_coherence(lower, tree, 2, source, target, groupoid=True)
    assert str(exc.value).startswith(
        f"the sides of {tree_symbol_name(tree)} disagree where they meet: "
    )


def test_groupoid_flag_relaxes_epi():
    from computads.globular import (
        globe_category,
        globe_coherence,
        parse_tree,
        position_name,
    )
    from computads.signature import Signature

    cat = globe_category(1)
    lower = Signature(base=cat, symbols={})
    tree = parse_tree("[[]]")
    a = var(position_name((0,)))
    sig = globe_coherence(lower, tree, 1, a, a, groupoid=True)
    assert len(sig.symbols) == 1
