"""Globes, rooted planar trees, and the weak-category coherence constructor.

The definitions of tree positions, tree truncation and the source/target
inclusions below follow the standard recursive description of pasting
diagrams (positions of a tree are a wedge of suspensions of the positions of
its subtrees); they are auxiliary combinatorics for this pack rather than
part of the kernel constructions.
"""

from __future__ import annotations

from .base import DirectCategory, category_from_faces, memoized
from .errors import BadIndex, DocumentTooDeep, SideConditionFailure
from .factorization import coherence
from .presheaf import Presheaf, PresheafMorphism, make_presheaf
from .signature import Signature
from .terms import Term, app, rename, var

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

MAX_TREE_NESTING = 300  # the helpers below recurse up to twice per level


def parse_tree(text: str) -> Tree:
    """Parse a bracket string like ``[[],[]]`` into a tree, without recursion.
    A literal nested deeper than ``MAX_TREE_NESTING`` could exhaust the
    default recursion limit of 1,000 frames: it is ``DocumentTooDeep``."""
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
    return 0 if not tree else 1 + max(tree_dim(sub) for sub in tree)


def tree_positions(tree: Tree, dim: int) -> list[tuple[int, ...]]:
    """Positions of dimension ``dim``: paths of subtree indices ending in an
    object index of the innermost subtree."""
    if dim == 0:
        return [(j,) for j in range(len(tree) + 1)]
    out = []
    for i, sub in enumerate(tree):
        out.extend((i,) + path for path in tree_positions(sub, dim - 1))
    return out


def position_name(path: tuple[int, ...]) -> str:
    return "q" + "_".join(map(str, path))


def _position_source(tree: Tree, path: tuple[int, ...]) -> tuple[int, ...]:
    """The source of a positive-dimensional position, one dimension down."""
    if len(path) == 2:
        return (path[0],)  # arrows from subtree i run from object i ...
    return (path[0],) + _position_source(tree[path[0]], path[1:])


def _position_target(tree: Tree, path: tuple[int, ...]) -> tuple[int, ...]:
    if len(path) == 2:
        return (path[0] + 1,)  # ... to object i + 1
    return (path[0],) + _position_target(tree[path[0]], path[1:])


def tree_presheaf(cat: DirectCategory, tree: Tree) -> Presheaf:
    """Positions of a tree as a presheaf on the globe category, built once
    per category and tree (as nested tuples)."""
    return _tree_presheaf(cat, _freeze(tree))


@memoized("_tree_presheaf_cache")
def _tree_presheaf(cat: DirectCategory, tree: Tree) -> Presheaf:
    d = tree_dim(tree)
    if globe_sort(d) not in cat.dims:
        raise BadIndex(f"tree of dimension {d} exceeds the globe category")
    cells = {}
    paths: dict[int, list[tuple[int, ...]]] = {}
    for m in range(d + 1):
        paths[m] = tree_positions(tree, m)
        cells[globe_sort(m)] = tuple(sorted(position_name(p) for p in paths[m]))
    action = {}
    for m in range(d + 1):
        for path in paths[m]:
            # the k-source iterates one-step sources; the k-target iterates
            # sources except for the final step
            src_chain: dict[int, tuple[int, ...]] = {m: path}
            for k in range(m - 1, -1, -1):
                src_chain[k] = _position_source(tree, src_chain[k + 1])
            for k in range(m):
                tgt = _position_target(tree, src_chain[k + 1])
                action[(globe_face("s", k, m), position_name(path))] = position_name(
                    src_chain[k]
                )
                action[(globe_face("t", k, m), position_name(path))] = position_name(
                    tgt
                )
    return make_presheaf(cat, cells, action)


def boundary_tree(tree: Tree, n: int) -> Tree:
    """Cut a tree at height ``n``."""
    if n <= 0:
        return ()
    return tuple(boundary_tree(sub, n - 1) for sub in tree)


def _boundary_path(tree: Tree, path: tuple[int, ...], n: int, flavor: str) -> tuple[int, ...]:
    """Image of a position of the cut tree inside the whole tree."""
    if len(path) - 1 < n:
        return path
    if n == 0:
        return (0,) if flavor == "s" else (len(tree),)
    return (path[0],) + _boundary_path(tree[path[0]], path[1:], n - 1, flavor)


def tree_boundary_inclusion(
    cat: DirectCategory, tree: Tree, n: int, flavor: str
) -> PresheafMorphism:
    """The source (flavor 's') or target ('t') inclusion of the cut tree.
    Unchecked: it keeps each position below height ``n`` and sends one at
    height ``n`` to the first ('s') or last ('t') position of its branch at
    that height; all of those share one source and one target, so the map
    is natural."""
    cut = boundary_tree(tree, n)
    component = {}
    for m in range(tree_dim(cut) + 1):
        for path in tree_positions(cut, m):
            component[position_name(path)] = position_name(
                _boundary_path(tree, path, n, flavor)
            )
    src, dst = tree_presheaf(cat, cut), tree_presheaf(cat, tree)
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
            term,
            tree_boundary_inclusion(cat, tree, dim - 1, flavor),
            f"the {flavor}-side does not come from the cut tree",
            f"the {flavor}-side is not a full composite of the cut tree",
        )
        for flavor, term in (("s", source), ("t", target))
    }
    name, sort = tree_symbol_name(tree), globe_sort(dim)
    return coherence(lower, name, sort, pos, sides, groupoid)


def tree_composite(cat: DirectCategory, tree: Tree) -> tuple[Signature, Term]:
    """The canonical unbiased composite of a pasting tree, creating the
    coherence symbols it needs along the way."""
    d = tree_dim(tree)
    if d == 0:
        return Signature(base=cat, symbols={}), var(position_name((0,)))
    cut = boundary_tree(tree, d - 1)
    lower, cut_comp = tree_composite(cat, cut)
    src_incl = tree_boundary_inclusion(cat, tree, d - 1, "s")
    tgt_incl = tree_boundary_inclusion(cat, tree, d - 1, "t")
    source = rename(cut_comp, src_incl.component)
    target = rename(cut_comp, tgt_incl.component)
    sig = globe_coherence(lower, tree, d, source, target)
    pos = sig.symbols[tree_symbol_name(tree)].arity
    identity_args = {c: var(c) for cs in pos.cells.values() for c in cs}
    return sig, app(tree_symbol_name(tree), identity_args)
