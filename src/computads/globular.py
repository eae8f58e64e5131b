"""Globes, rooted planar trees, and the weak-category coherence constructor.

A pasting diagram is a rooted planar tree (Batanin 1998; Leinster, *Higher
Operads, Higher Categories*, 2004).  A position of dimension m is a path
``(i_1, ..., i_m, j)``: the child indices leading to a node at depth m, then
an index 0 <= j <= c of one of the node's m-cells, one either side of each
of its c children.  Faces are read off the path: for k < m, the k-source of a
position is ``path[:k+1]`` and its k-target ``path[:k] + (path[k] + 1,)``.
The source (target) inclusion of the tree cut at height n keeps each
position below height n and sends ``p`` at height n to ``p[:n] + (0,)``
(to ``p[:n] + (c,)``, c the number of children of the node at ``p[:n]``).
"""

from __future__ import annotations

from .base import DirectCategory, category_from_faces, memoized
from .errors import BadIndex, DocumentTooDeep, SideConditionFailure
from .factorization import coherence, coherent_composite
from .presheaf import Presheaf, PresheafMorphism
from .signature import Signature
from .terms import Term, var

Tree = tuple  # a rooted planar tree: tuple of subtrees


def globe_sort(n: int) -> str:
    return f"g{n}"


def globe_face(flavor: str, k: int, m: int) -> str:
    return f"{flavor}{k}:{m}"


def globe_category(n: int) -> DirectCategory:
    """Globes 0..n; for k < m exactly one source-like and one target-like
    face (k) -> (m), the composite keeping the flavour of its innermost leg."""
    if n < 0:
        raise BadIndex("dimension bound must be a natural number")
    faces = [
        (globe_face(flavor, k, m), (globe_sort(k), globe_sort(m), (flavor, k, m)))
        for m in range(n + 1)
        for k in range(m)
        for flavor in ("s", "t")
    ]
    return category_from_faces(
        [(globe_sort(m), m) for m in range(n + 1)],
        faces,
        lambda first, second: globe_face(first[0], first[1], second[2]),
    )


# -- trees and their positions -------------------------------------------------------

# Deeper trees cost too much: `example cat` on a 50-deep chain takes 2.8-2.9 s in
# a subprocess (2 vCPUs, Python 3.11.7) and prints 38.7 MB, both about cubic in
# the depth.  The limit also keeps _freeze, tree_to_text and boundary_tree,
# which recurse once per level, within the default recursion limit.
MAX_TREE_NESTING = 300


def parse_tree(text: str) -> Tree:
    """Parse a bracket string like ``[[],[]]`` into a tree, without recursion.
    A literal nested deeper than ``MAX_TREE_NESTING`` is ``DocumentTooDeep``."""
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise BadIndex(f"not a tree literal: {text!r}")
    stack: list[list] = [[]]
    for ch in text[1:-1]:
        if ch == "[":
            stack.append([])
            if len(stack) > MAX_TREE_NESTING:
                raise DocumentTooDeep(f"tree literal nests beyond {MAX_TREE_NESTING} levels")
        elif ch == "]":
            done = stack.pop()
            if not stack:
                raise BadIndex(f"unbalanced tree literal: {text!r}")
            stack[-1].append(tuple(done))  # its subtrees are tuples already
        elif ch in ", \t":
            continue
        else:
            raise BadIndex(f"unexpected character {ch!r} in tree literal")
    if len(stack) != 1:
        raise BadIndex(f"unbalanced tree literal: {text!r}")
    return tuple(stack[0])


def _freeze(tree) -> Tree:
    """A tree given as nested lists or tuples, as nested tuples."""
    return tuple(map(_freeze, tree))


def tree_to_text(tree: Tree) -> str:
    return "[" + ",".join(tree_to_text(sub) for sub in tree) + "]"


def tree_dim(tree: Tree) -> int:
    return len(_positions(tree)) - 1


def _positions(tree: Tree) -> list[list[tuple[int, ...]]]:
    """The positions of ``tree`` by dimension, in lexicographic path order:
    one walk, depth by depth, lists the nodes at each depth in that order."""
    by_dim, level = [], [((), tree)]
    while level:
        by_dim.append([path + (j,) for path, node in level for j in range(len(node) + 1)])
        level = [(path + (i,), sub) for path, node in level for i, sub in enumerate(node)]
    return by_dim


def tree_positions(tree: Tree, dim: int) -> list[tuple[int, ...]]:
    """Positions of dimension ``dim``, in lexicographic path order."""
    by_dim = _positions(tree)
    return by_dim[dim] if 0 <= dim < len(by_dim) else []


def position_name(path: tuple[int, ...]) -> str:
    return "q" + "_".join(map(str, path))


def tree_presheaf(cat: DirectCategory, tree: Tree) -> Presheaf:
    """Positions of a tree as a presheaf on the globe category, built once per
    category and tree (as nested tuples).  Unchecked: a position's k-faces are
    positions that read only its first k + 1 entries, and its j-faces keep its
    first j, so acting by a j-face, then a k-face, acts by their composite."""
    return _tree_presheaf(cat, _freeze(tree))


@memoized("_tree_presheaf_cache")
def _tree_presheaf(cat: DirectCategory, tree: Tree) -> Presheaf:
    by_dim = _positions(tree)
    if globe_sort(len(by_dim) - 1) not in cat.dims:
        raise BadIndex(f"tree of dimension {len(by_dim) - 1} exceeds the globe category")
    cells = {}
    action = {}
    for m, paths in enumerate(by_dim):
        cells[globe_sort(m)] = tuple(sorted(map(position_name, paths)))
        for p in paths:
            name = position_name(p)
            for k in range(m):
                action[(globe_face("s", k, m), name)] = position_name(p[: k + 1])
                action[(globe_face("t", k, m), name)] = position_name(p[:k] + (p[k] + 1,))
    return Presheaf(cat, {s: cells.get(s, ()) for s in cat.sorts}, action)


def boundary_tree(tree: Tree, n: int) -> Tree:
    """Cut a tree at height ``n``."""
    if n <= 0:
        return ()
    return tuple(boundary_tree(sub, n - 1) for sub in tree)


def tree_boundary_inclusion(
    cat: DirectCategory, tree: Tree, n: int, flavor: str
) -> PresheafMorphism:
    """The source (flavor 's') or target ('t') inclusion of the cut tree.
    Unchecked: it sends the position of a node at height ``n`` to the node's
    first ('s') or last ('t') one, whose faces read only the node's path."""
    component = {}
    for m, paths in enumerate(_positions(tree)[: n + 1]):
        for p in paths:  # a node's positions come first to last, so 't' keeps the last
            first = p if m < n else p[:n] + (0,)
            component[position_name(first)] = position_name(first if flavor == "s" else p)
    src, dst = tree_presheaf(cat, boundary_tree(tree, n)), tree_presheaf(cat, tree)
    return PresheafMorphism(src=src, dst=dst, component=component)


# -- the coherence constructor --------------------------------------------------------

def tree_symbol_name(tree: Tree) -> str:
    return f"coh{tree_to_text(tree)}"


def globe_coherence(
    lower: Signature,
    tree: Tree,
    dim: int,
    source: Term,
    target: Term,
    groupoid: bool = False,
) -> Signature:
    """Append a pasting coherence of sort ``dim`` for ``tree`` to ``lower``.

    ``source`` and ``target`` are terms of the positions of ``tree`` of sort
    dim - 1 with matching boundaries; unless ``groupoid`` they must come from
    full composites of the cut tree through the source/target inclusions."""
    cat = lower.base
    if dim < 1 or tree_dim(tree) > dim:
        raise SideConditionFailure("the tree must fit inside the output dimension")
    pos = tree_presheaf(cat, tree)
    sides = {
        globe_face(flavor, dim - 1, dim): (
            side,
            tree_boundary_inclusion(cat, tree, dim - 1, flavor),
            f"the {flavor}-side does not come from the cut tree",
            f"the {flavor}-side is not a full composite of the cut tree",
        )
        for flavor, side in (("s", source), ("t", target))
    }
    return coherence(lower, tree_symbol_name(tree), globe_sort(dim), pos, sides, groupoid)


def tree_composite(cat: DirectCategory, tree: Tree) -> tuple[Signature, Term]:
    """The canonical unbiased composite of a pasting tree, creating the
    coherence symbols it needs along the way: one signature is extended by
    the symbol of the tree's cut at each height 1..d, lowest first, whose
    sides rename the composite of the cut below along its inclusions."""
    sig = Signature(base=cat, symbols={})
    composite = var(position_name((0,)))
    for h in range(1, tree_dim(tree) + 1):
        cut = boundary_tree(tree, h)
        incl = {flavor: tree_boundary_inclusion(cat, cut, h - 1, flavor) for flavor in "st"}
        sides = {globe_face(flavor, h - 1, h): (composite, incl[flavor]) for flavor in "st"}
        sig, composite = coherent_composite(
            sig, tree_symbol_name(cut), globe_sort(h), tree_presheaf(cat, cut), sides
        )
    return sig, composite
