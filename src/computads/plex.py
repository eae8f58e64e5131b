"""Polyplexes: the shapes of terms, their representing computads, and the
nerve presentation of computads.

A polyplex records everything about a term except which generators it uses.
Like a term (``monad``), it is a head applied to a family: a generator shape
is the boundary of the representable on its sort applied to its boundary
shapes, an application shape a symbol's arity applied to the shapes of its
arguments.  Shapes are self-contained finite trees (the terminal computad
itself is never materialised; dimension strictly decreases along boundary
families, so the trees stay finite).  They are interned like terms, so equal
shapes are the same object.

Either kind of shape holds its boundary or argument shapes as ``children``
under the labels of its head, as ``terms.attached`` gives a term's parts.
Classification, representing computads and classifying morphisms each take
one fold over the parts; only the universal term at the end differs, a
fresh generator or an application.

Computads with generator-preserving maps form a presheaf category whose
representables are the |p|: by Yoneda, the maps |q| -> |p| are the
generators of |p| of shape q, each the classifying morphism of its
generator.  The nerve's realisation reads its plex maps off these, so it
searches for none.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from operator import attrgetter, itemgetter

from .base import FaceRef, SortRef, memo_table
from .computad import (
    Colimit,
    Computad,
    ComputadMorphism,
    colimit_var,
)
from .monad import Induction, cell_labels, enumerate_ranked
from .presheaf import boundary_representable
from .signature import Signature
from .terms import (
    App,
    Head,
    Node,
    Term,
    Var,
    attached,
    boundary,
    fold,
    fold_term,
    head,
    in_label_order,
    node_of,
    parts_of,
    rename,
    spelling_format,
    spellings,
    var,
)


class Polyplex(Node):
    """A generator or application shape; see :class:`terms.Node`."""

    __slots__ = ()
    sort: SortRef
    kind: str  # "pvar" or "papp", the key of its JSON document
    weight = property(attrgetter("rank"))  # enumeration rank: see enumerate_polyplexes


class PVar(Polyplex):
    """Shape of a generator: the shapes of its boundaries, per face."""

    __slots__ = ("sort",)
    btype = property(attrgetter("args"))  # (face, shape) pairs, by face
    kind = "pvar"

    def __init__(self, h: Head, children: tuple, rank: int):
        self.head, self.labels, self.children, self.rank = h, h.labels, children, rank
        (self.sort,) = h.fields

    @staticmethod
    def spelling(sort: SortRef, labels: tuple) -> str:
        return spelling_format("<" + sort + "|", ":", labels, ">")


class PApp(Polyplex):
    """Shape of an application: the symbol with the shapes of its arguments."""

    __slots__ = ("sort", "symbol")
    step = 1
    kind = "papp"

    def __init__(self, h: Head, children: tuple, rank: int):
        self.head, self.labels, self.children, self.rank = h, h.labels, children, rank
        self.sort, self.symbol = h.fields

    @staticmethod
    def spelling(sort: SortRef, symbol: str, labels: tuple) -> str:
        return App.spelling(symbol, labels)


def pvar(sort: SortRef, btype: dict[FaceRef, Polyplex]) -> PVar:
    labels, children = in_label_order(btype)
    return node_of(head(PVar, (sort,), labels), children)


def papp(sort: SortRef, symbol: str, args: dict[str, Polyplex]) -> PApp:
    labels, children = in_label_order(args)
    return node_of(head(PApp, (sort, symbol), labels), children)


def is_plex(p: Polyplex) -> bool:
    return isinstance(p, PVar)


# -- boundaries of polyplexes ------------------------------------------------------

def pboundary(sig: Signature, face: FaceRef, p: Polyplex) -> Polyplex:
    """Boundary shape of a shape, computed without any computad: for an
    application, its symbol's boundary term with the argument shapes
    substituted in."""
    if isinstance(p, PVar):
        return p.child(face)

    def node(u, shapes) -> PApp:  # over the labels of u, in their order
        h = head(PApp, (sig.symbol(u.symbol).sort, u.symbol), u.labels)
        return node_of(h, tuple(shapes.values()))

    return fold_term(sig.symbol(p.symbol).boundary[face], p.child, node)


def classify(c: Computad, t: Term) -> Polyplex:
    """The shape of a term: image under the unique map to the terminal.
    One fold over the parts, memoised in the computad's ``_shape_cache``."""

    def build(u: Term, shapes) -> Polyplex:
        if isinstance(u, Var):  # over the faces into its sort, which are sorted
            sort = c.gen_sort(u.gen)
            h = head(PVar, (sort,), c.base.faces_into(sort))
        else:  # over the labels of u
            h = head(PApp, (c.symbol(u.symbol).sort, u.symbol), u.labels)
        return node_of(h, tuple(shapes.values()))

    return fold(t, partial(attached, c), build, memo_table(c, "_shape_cache"))


# -- enumeration --------------------------------------------------------------------

def _shape_heads(sig: Signature, sort: SortRef) -> list:
    x = boundary_representable(sig.base, sort)
    heads = [("<" + sort + "|", x, 0, head(PVar, (sort,), cell_labels(x)))]
    for sym in sig.symbols_at(sort):
        h = head(PApp, (sort, sym.id), cell_labels(sym.arity))
        heads.append((sym.id + "[", sym.arity, 1, h))
    return heads


SHAPES = Induction("_pplex_cache", "shape weight", lambda sig, sort: (), _shape_heads, pboundary)


def enumerate_polyplexes(sig: Signature, sort: SortRef, max_weight: int) -> list[Polyplex]:
    """All shapes of ``sort`` up to the weight bound, canonically ordered.  A
    generator shape weighs as much as its heaviest boundary member, an
    application one more than its heaviest argument; bounding the weight keeps
    the enumeration finite and complete."""
    return enumerate_ranked(SHAPES, sig, sort, max_weight)


# -- representing computads -----------------------------------------------------------

@dataclass
class PolyplexRep:
    """The computad representing a shape, with its universal term and the
    colimit presentation used to build it."""

    computad: Computad
    universal: Term
    colimit: Colimit | None  # None only for shapes without parts


def polyplex_computad(sig: Signature, p: Polyplex) -> PolyplexRep:
    """Build the representing computad |p| with its universal term.

    The colimit of the representing computads of the parts of ``p``, over
    the category of elements of the presheaf indexing them: the boundary of
    the representable on its sort for a generator shape, the arity for an
    application shape.  The images of the parts' universal terms are the
    arguments of the universal term, or the gluing of one fresh generator.
    Unchecked: the edges identify each boundary of a part's universal term
    with the universal term of the part at the image cell.  One fold builds
    the parts first, memoised in the signature's ``_rep_cache`` table.
    """

    def build(p: Polyplex, reps) -> PolyplexRep:
        if isinstance(p, PVar):
            x = boundary_representable(sig.base, p.sort)
        else:
            x = sig.symbol(p.symbol).arity
        edges: list[tuple[str, str, dict[str, str]]] = []
        for cell, rep_q in reps.items():
            for face in x.base.faces_into(x.sort_of(cell)):
                lower = boundary(rep_q.computad, face, rep_q.universal)
                m = classifying_morphism(rep_q.computad, lower)
                edges.append((x.act(face, cell), cell, m.gen_map()))
        if reps:
            colim = colimit_var({cell: r.computad for cell, r in reps.items()}, edges)
            computad = colim.computad
            family = {cell: rename(r.universal, colim.legs[cell]) for cell, r in reps.items()}
        else:
            colim, computad, family = None, Computad(sig, {}, {}), {}
        if isinstance(p, PApp):
            universal = node_of(head(App, (p.symbol,), p.labels), tuple(family.values()))
            return PolyplexRep(computad, universal, colim)
        star = f"*{p.sort}"
        gens = dict(computad.gens)
        gens[p.sort] = (star,)  # the parts have lower sorts
        glue = dict(computad.glue)
        glue.update({(star, face): t for face, t in family.items()})
        return PolyplexRep(Computad(sig, gens, glue), var(star), colim)

    return fold(p, parts_of, build, memo_table(sig, "_rep_cache"))


def classifying_morphism(c: Computad, t: Term) -> ComputadMorphism:
    """The unique variable-to-variable morphism |classify(t)| -> c sending the
    universal term to ``t``, which is well typed over ``c`` (unchecked).

    The universal term and ``t`` have the same shape, so their parts pair up
    cell by cell, down to the generators; one walk over an explicit stack
    sends each generator of |p| to the first term of ``t`` it is paired with.
    The universal term has full support, so the walk meets every generator.
    """
    rep = polyplex_computad(c.signature, classify(c, t))
    assign: dict[str, Term] = {}
    todo = [(rep.universal, t)]
    while todo:
        u, v = todo.pop()
        if isinstance(u, Var):
            if u.gen in assign:
                continue
            assign[u.gen] = v
        todo += zip(attached(rep.computad, u)[1], attached(c, v)[1])
    return ComputadMorphism(rep.computad, c, assign)


# -- nerve -----------------------------------------------------------------------------

def nerve(c: Computad) -> dict[Polyplex, tuple[str, ...]]:
    """Per-plex generator fibres: which generators have which shape, with
    the shapes in spelling order."""
    fibres: dict[Polyplex, list[str]] = {}
    for _, gen in c.all_generators():
        p = classify(c, var(gen))
        fibres.setdefault(p, []).append(gen)
    shapes = list(fibres)
    return {
        p: tuple(sorted(fibres[p]))
        for _, p in sorted(zip(spellings(shapes), shapes), key=itemgetter(0))
    }


def reconstruct_from_nerve(c: Computad) -> Computad:
    """Rebuild a computad from its nerve data alone, as the colimit of the
    representing computads over the nerve's category of elements.

    The elements are the generators: ``sigma``, the classifying morphism of
    a generator, is the map |p| -> c it names.  The plex maps into p need no
    search.  Each sends the universal generator of its source |q| to some
    generator h of |p|, and is the unique map that does so, the classifying
    morphism of h; so the nerve's restriction of ``sigma`` along it is
    ``sigma(h)``, and the edge runs from that generator's node.
    """
    nodes: dict[str, Computad] = {}
    edges: list[tuple[str, str, dict[str, str]]] = []
    into: dict[Polyplex, list] = {}  # per shape p, the plex maps into |p| as generator maps
    for _, gen in c.all_generators():
        sigma = classifying_morphism(c, var(gen))
        nodes[gen] = rep = sigma.src
        if (p := classify(c, var(gen))) not in into:
            into[p] = [
                (h, classifying_morphism(rep, var(h)).gen_map()) for _, h in rep.all_generators()
            ]
        edges += [(sigma.assign[h].gen, gen, m) for h, m in into[p]]
    if not nodes:
        return Computad(c.signature, {}, {})
    return colimit_var(nodes, edges).computad
