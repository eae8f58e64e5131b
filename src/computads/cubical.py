"""Cube-category grids and the weak multiple-category coherence constructor.

Objects of the cube category are finite subsets of directions; a face forgets
some directions, remembering for each forgotten one which side it lands on.
A grid assigns a cell count to every direction of a subset; its positions
form a presheaf, with one cell per lattice point naming the cube whose corner
closest to the origin it is.
"""

from __future__ import annotations

import itertools

from .base import DirectCategory, SortRef, category_from_faces, memoized
from .errors import BadSubset, SideConditionFailure
from .factorization import coherence, coherent_composite
from .presheaf import Presheaf, PresheafMorphism
from .signature import Signature
from .terms import Term, var

Grid = dict[int, int]  # direction -> cell count


def subset_sort(subset) -> str:
    return "{" + ",".join(map(str, sorted(subset))) + "}"


def cube_face_id(target, forgotten: dict[int, int]) -> str:
    inner = ",".join(f"{j}:{a}" for j, a in sorted(forgotten.items()))
    return f"e[{inner}]>{subset_sort(target)}"


def cube_category(n: int) -> DirectCategory:
    """Subsets of {0..n} with the direction-forgetting faces."""
    if n < 0:
        raise BadSubset("direction bound must be a natural number")
    subsets = [
        subset
        for size in range(n + 2)
        for subset in itertools.combinations(range(n + 1), size)
    ]
    faces = [
        (
            cube_face_id(target, forgotten),
            (
                subset_sort(tuple(i for i in target if i not in forgotten)),
                subset_sort(target),
                (target, forgotten),
            ),
        )
        for target in subsets
        for jsize in range(1, len(target) + 1)
        for j_set in itertools.combinations(target, jsize)
        for forgotten in (
            dict(zip(j_set, alpha)) for alpha in itertools.product((0, 1), repeat=jsize)
        )
    ]
    return category_from_faces(
        [(subset_sort(s), len(s)) for s in subsets],
        faces,
        lambda first, second: cube_face_id(second[0], {**second[1], **first[1]}),
    )


def _position_name(point: dict[int, int], subset) -> str:
    inner = ",".join(f"{i}:{point[i]}" for i in sorted(point))
    return f"P({inner})@{subset_sort(subset)}"


def _grid_points(grid: Grid, j_set) -> list[dict[int, int]]:
    directions = tuple(sorted(grid))
    ranges = [
        range(grid[i]) if i in j_set else range(grid[i] + 1) for i in directions
    ]
    return [dict(zip(directions, values)) for values in itertools.product(*ranges)]


def grid_positions(cat: DirectCategory, grid: Grid) -> Presheaf:
    """The presheaf of positions of a grid over the directions of ``grid``.

    A cell over a subset J is a lattice point whose coordinates are strict in
    the J directions; forgetting a direction shifts the point to the chosen
    side of the cube it named.  Built once per category and grid, unchecked:
    a shifted point is a position over the smaller subset, and forgetting
    directions one after another shifts by the sum of the sides.
    """
    return _grid_positions(cat, tuple(sorted(grid.items())))


@memoized("_grid_positions_cache")
def _grid_positions(cat: DirectCategory, items: tuple[tuple[int, int], ...]) -> Presheaf:
    grid = dict(items)
    directions = tuple(sorted(grid))
    if subset_sort(directions) not in cat.dims:
        raise BadSubset(f"directions {directions} exceed the cube category")
    cells: dict[SortRef, tuple[str, ...]] = {}
    action: dict[tuple[str, str], str] = {}
    for size in range(len(directions) + 1):
        for j_set in itertools.combinations(directions, size):
            names = []
            for point in _grid_points(grid, j_set):
                name = _position_name(point, j_set)
                names.append(name)
                for ksize in range(1, size + 1):
                    for k_set in itertools.combinations(j_set, ksize):
                        for alpha in itertools.product((0, 1), repeat=ksize):
                            forgotten = dict(zip(k_set, alpha))
                            face = cube_face_id(j_set, forgotten)
                            moved = {
                                i: point[i] + forgotten.get(i, 0)
                                for i in directions
                            }
                            action[(face, name)] = _position_name(
                                moved,
                                tuple(i for i in j_set if i not in forgotten),
                            )
            cells[subset_sort(j_set)] = tuple(sorted(names))
    return Presheaf(cat, {s: cells.get(s, ()) for s in cat.sorts}, action)


def grid_inclusion(
    cat: DirectCategory, grid: Grid, forgotten: dict[int, int]
) -> PresheafMorphism:
    """The inclusion of the positions of a sub-grid at a fixed side: the kept
    coordinates stay, each forgotten direction is pinned to its chosen end.
    Unchecked: pinning a coordinate commutes with every face, which moves
    only kept coordinates."""
    if any(j not in grid for j in forgotten):
        raise BadSubset("forgotten directions must belong to the grid")
    restricted = {i: c for i, c in grid.items() if i not in forgotten}
    component = {}
    kept = tuple(sorted(restricted))
    for size in range(len(kept) + 1):
        for j_set in itertools.combinations(kept, size):
            for point in _grid_points(restricted, j_set):
                extended = dict(point)
                for j, side in forgotten.items():
                    extended[j] = side * grid[j]
                component[_position_name(point, j_set)] = _position_name(
                    extended, j_set
                )
    sub, whole = grid_positions(cat, restricted), grid_positions(cat, grid)
    return PresheafMorphism(src=sub, dst=whole, component=component)


def coherence_symbol_name(grid: Grid) -> str:
    inner = ",".join(f"{i}:{c}" for i, c in sorted(grid.items()))
    return f"coh({inner})"


def grid_coherence(
    lower: Signature,
    grid: Grid,
    sides: dict[tuple[int, int], Term],
    groupoid: bool = False,
) -> Signature:
    """Append a grid-composition coherence symbol to ``lower``.

    ``sides[(i, a)]`` is the term of the positions of the grid composing its
    side in direction i at end a; sides must agree corner-wise and come from
    full composites of the boundary grids (the epimorphism condition, checked
    through supports) unless ``groupoid``.
    """
    cat = lower.base
    directions = tuple(sorted(grid))
    pos = grid_positions(cat, grid)
    for i, a in itertools.product(directions, (0, 1)):
        if (i, a) not in sides:
            raise SideConditionFailure(f"missing side ({i}, {a})")
    for i, a in sides:
        if i not in grid or a not in (0, 1):
            raise SideConditionFailure(f"side ({i}, {a}) is not a side of the grid")
    boundary_sides = {
        cube_face_id(directions, {i: a}): (
            side,
            grid_inclusion(cat, grid, {i: a}),
            f"side ({i},{a}) does not come from the boundary grid",
            f"side ({i},{a}) is not a full composite of its grid",
        )
        for (i, a), side in sides.items()
    }
    name, sort = coherence_symbol_name(grid), subset_sort(directions)
    return coherence(lower, name, sort, pos, boundary_sides, groupoid)


def grid_composite(cat: DirectCategory, grid: Grid) -> tuple[Signature, Term]:
    """The canonical unbiased composite of a grid, creating the coherence
    symbols it needs along the way: one signature is extended by the symbol
    of each sub-grid on a non-empty set of its directions, smallest first,
    so each symbol is declared once, whatever shares it; its sides rename the
    composites of its boundary grids."""
    sig = Signature(base=cat, symbols={})
    composites = {(): var(_position_name({}, ()))}
    for size in range(1, len(grid) + 1):
        for kept in itertools.combinations(sorted(grid), size):
            sub = {i: grid[i] for i in kept}
            below = {i: composites[tuple(j for j in kept if j != i)] for i in kept}
            sides = {
                cube_face_id(kept, {i: a}): (below[i], grid_inclusion(cat, sub, {i: a}))
                for i, a in itertools.product(kept, (0, 1))
            }
            sig, composites[kept] = coherent_composite(
                sig, coherence_symbol_name(sub), subset_sort(kept), grid_positions(cat, sub), sides
            )
    return sig, composites[tuple(sorted(grid))]
