"""Polyplexes: the shapes of terms, their representing computads, and the
nerve presentation of computads.

A polyplex records everything about a term except which generators it uses:
a generator becomes its family of boundary shapes, an application keeps its
symbol with the shapes of its arguments.  Shapes are self-contained finite
trees (the terminal computad itself is never materialised; dimension strictly
decreases along boundary families, so the trees stay finite).

Either kind of shape lists its boundary or argument shapes as ``parts``, as
``terms.parts`` does for terms.  Classification, representing computads and
classifying morphisms take one path over the parts; only the universal term
at the end differs, a fresh generator or an application.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

from .base import FaceRef, SortRef, memoized
from .computad import (
    Colimit,
    Computad,
    ComputadMorphism,
    apply_morphism,
    colimit_var,
    enumerate_var_to_var,
)
from .errors import NegativeBound
from .presheaf import Presheaf, boundary_representable, hom_families, search
from .signature import Signature
from .terms import App, Term, Var, app, boundary, parts


class Polyplex:
    __slots__ = ()
    sort: SortRef
    weight: int  # enumeration rank: see enumerate_polyplexes
    app_depth: int  # depth of any term with this shape


@dataclass(frozen=True, slots=True)
class PVar(Polyplex):
    """Shape of a generator: the shapes of its boundaries, per face."""

    sort: SortRef
    btype: tuple[tuple[FaceRef, Polyplex], ...]
    weight: int = field(default=0, compare=False)
    app_depth: int = field(default=0, compare=False)

    @property
    def parts(self) -> tuple[tuple[FaceRef, Polyplex], ...]:
        return self.btype

    def boundary_at(self, face: FaceRef) -> Polyplex:
        for f, p in self.btype:
            if f == face:
                return p
        raise KeyError(face)


@dataclass(frozen=True, slots=True)
class PApp(Polyplex):
    """Shape of an application: the symbol with the shapes of its arguments."""

    sort: SortRef
    symbol: str
    args: tuple[tuple[str, Polyplex], ...]
    weight: int = field(default=0, compare=False)
    app_depth: int = field(default=0, compare=False)

    @property
    def parts(self) -> tuple[tuple[str, Polyplex], ...]:
        return self.args

    def arg_map(self) -> dict[str, Polyplex]:
        return dict(self.args)


def pvar(sort: SortRef, btype: dict[FaceRef, Polyplex]) -> PVar:
    items = tuple(sorted(btype.items()))
    w = max((p.weight for _, p in items), default=0)
    return PVar(sort, items, weight=w, app_depth=0)


def papp(sort: SortRef, symbol: str, args: dict[str, Polyplex]) -> PApp:
    items = tuple(sorted(args.items()))
    w = 1 + max((p.weight for _, p in items), default=0)
    d = 1 + max((p.app_depth for _, p in items), default=0)
    return PApp(sort, symbol, items, weight=w, app_depth=d)


def _pspell(p: Polyplex, memo: dict[int, str]) -> str:
    """The serialisation of ``p``, memoising its proper subtrees as
    ``terms._spell`` does (the same ``id`` caveat holds)."""
    is_var = isinstance(p, PVar)
    spelled = []
    for c, q in p.parts:
        s = memo.get(id(q))
        if s is None:
            s = memo[id(q)] = _pspell(q, memo)
        spelled.append(f"{c}:{s}" if is_var else f"{c}={s}")
    inner = ",".join(spelled)
    return f"<{p.sort}|{inner}>" if is_var else f"{p.symbol}[{inner}]"


def pserialize(p: Polyplex) -> str:
    return _pspell(p, {})


def pspellings(ps: list[Polyplex]) -> list[str]:
    """``pserialize`` of each shape, spelling every distinct node once."""
    memo: dict[int, str] = {}
    return [_pspell(p, memo) for p in ps]


def canonical_psort(ps: Iterable[Polyplex]) -> list[Polyplex]:
    """``ps`` in canonical order: by weight, then serialisation, spelling each
    distinct node once (see ``terms.canonical_sort``)."""
    memo: dict[int, str] = {}
    return sorted(ps, key=lambda p: (p.weight, _pspell(p, memo)))


def is_plex(p: Polyplex) -> bool:
    return isinstance(p, PVar)


# -- boundaries of polyplexes ------------------------------------------------------

def psubst(sig: Signature, t: Term, args: dict[str, Polyplex]) -> Polyplex:
    """Substitute argument shapes into a boundary term over an arity."""
    if isinstance(t, Var):
        return args[t.gen]
    assert isinstance(t, App)
    return papp(
        sig.symbol(t.symbol).sort,
        t.symbol,
        {c: psubst(sig, u, args) for c, u in t.args},
    )


def pboundary(sig: Signature, face: FaceRef, p: Polyplex) -> Polyplex:
    """Boundary shape of a shape, computed without any computad."""
    if isinstance(p, PVar):
        return p.boundary_at(face)
    assert isinstance(p, PApp)
    sym = sig.symbol(p.symbol)
    return psubst(sig, sym.boundary[face], p.arg_map())


def classify(c: Computad, t: Term) -> Polyplex:
    """The shape of a term: image under the unique map to the terminal."""
    shapes = {cell: classify(c, u) for cell, u in parts(c, t)}
    if isinstance(t, Var):
        return pvar(c.gen_sort(t.gen), shapes)
    return papp(c.symbol(t.symbol).sort, t.symbol, shapes)


# -- enumeration --------------------------------------------------------------------

@memoized("_pplex_cache")
def enumerate_polyplexes(
    sig: Signature, sort: SortRef, max_weight: int
) -> list[Polyplex]:
    """All shapes of the given sort up to the weight bound, canonically ordered.

    A generator shape weighs as much as its heaviest boundary member; an
    application adds one to its heaviest argument.  Bounding the weight keeps
    the enumeration finite and complete.
    """
    if max_weight < 0:
        raise NegativeBound(f"shape weight bound {max_weight} is negative")
    # generator shapes: compatible boundary families, which are the maps out
    # of the boundary of the representable on sort; their members weigh at
    # most max_weight, and so do they
    sphere = boundary_representable(sig.base, sort)[0]
    out = [pvar(sort, fam) for fam in _families(sig, sphere, max_weight)]
    # application shapes
    if max_weight >= 1:
        for sym in sig.symbols_at(sort):
            for fam in _families(sig, sym.arity, max_weight - 1):
                out.append(papp(sort, sym.id, fam))
    return canonical_psort(out)


def _families(sig: Signature, x: Presheaf, w: int) -> Iterator[dict]:
    """Presheaf morphisms from ``x`` into the shapes of weight at most ``w``."""
    return search(
        hom_families(
            x,
            lambda s: enumerate_polyplexes(sig, s, w),
            lambda f, p: pboundary(sig, f, p),
        )
    )


# -- representing computads -----------------------------------------------------------

@dataclass
class PolyplexRep:
    """The computad representing a shape, with its universal term and the
    colimit presentation used to build it."""

    polyplex: Polyplex
    computad: Computad
    universal: Term
    colimit: Colimit | None  # None only for shapes without parts
    star: str | None = None  # the fresh generator, for generator shapes


@memoized("_rep_cache")
def polyplex_computad(sig: Signature, p: Polyplex) -> PolyplexRep:
    """Build the representing computad |p| with its universal term.

    The colimit of the representing computads of the parts of ``p``, over
    the category of elements of the presheaf indexing them: the boundary of
    the representable on its sort for a generator shape, the arity for an
    application shape.  The images of the parts' universal terms are the
    arguments of the universal term, or the gluing of one fresh generator.
    Unchecked: the edges identify each boundary of a part's universal term
    with the universal term of the part at the image cell.
    """
    if isinstance(p, PVar):
        x = boundary_representable(sig.base, p.sort)[0]
    else:
        x = sig.symbol(p.symbol).arity
    reps = {cell: polyplex_computad(sig, q) for cell, q in p.parts}
    edges: list[tuple[str, str, ComputadMorphism]] = []
    for cell, rep_q in reps.items():
        for face in x.base.faces_into(x.sort_of(cell)):
            lower = boundary(rep_q.computad, face, rep_q.universal)
            m = classifying_morphism(rep_q.computad, lower)
            edges.append((x.act(face, cell), cell, m))
    if reps:
        colim = colimit_var({cell: r.computad for cell, r in reps.items()}, edges)
        computad = colim.computad
        family = {
            cell: apply_morphism(colim.legs[cell], r.universal) for cell, r in reps.items()
        }
    else:
        colim, computad, family = None, Computad(sig, {}, {}), {}
    if isinstance(p, PApp):
        return PolyplexRep(p, computad, app(p.symbol, family), colim)
    star = f"*{p.sort}"
    gens = dict(computad.gens)
    gens[p.sort] = (star,)  # the parts have lower sorts
    glue = dict(computad.glue)
    glue.update({(star, face): t for face, t in family.items()})
    return PolyplexRep(p, Computad(sig, gens, glue), Var(star), colim, star)


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
        for (_, u_part), (_, v_part) in zip(parts(rep.computad, u), parts(c, v)):
            todo.append((u_part, v_part))
    return ComputadMorphism(rep.computad, c, assign)


# -- nerve -----------------------------------------------------------------------------

def nerve(c: Computad) -> dict[Polyplex, tuple[str, ...]]:
    """Per-plex generator fibres: which generators have which shape."""
    fibres: dict[Polyplex, list[str]] = {}
    for _, gen in c.all_generators():
        p = classify(c, Var(gen))
        fibres.setdefault(p, []).append(gen)
    return {p: tuple(sorted(gs)) for p, gs in fibres.items()}


def reconstruct_from_nerve(c: Computad) -> Computad:
    """Rebuild a computad from its nerve data alone.

    The nerve provides, for each plex p, the set of morphisms |p| -> C
    (equivalently the generator fibre) together with the restriction action
    along plex morphisms.  The computad is recovered as the colimit of the
    representing computads over the category of elements of that presheaf.
    """
    sig = c.signature
    entries: list[tuple[Polyplex, str, ComputadMorphism]] = []
    for _, gen in c.all_generators():
        p = classify(c, Var(gen))
        entries.append((p, gen, classifying_morphism(c, Var(gen))))
    shapes = canonical_psort({p for p, _, _ in entries})

    nodes: dict[str, Computad] = {
        gen: polyplex_computad(sig, p).computad for p, gen, _ in entries
    }
    edges: list[tuple[str, str, ComputadMorphism]] = []
    for p, gen, sigma in entries:
        rep_p = polyplex_computad(sig, p)
        for q in shapes:
            rep_q = polyplex_computad(sig, q)
            for m in enumerate_var_to_var(rep_q.computad, rep_p.computad):
                # the restriction action of the nerve along the plex morphism m:
                # sigma . m classifies a generator, namely its universal image
                restricted = apply_morphism(sigma, apply_morphism(m, rep_q.universal))
                assert isinstance(restricted, Var)
                edges.append((restricted.gen, gen, m))
    if not nodes:
        return Computad(sig, {}, {})
    return colimit_var(nodes, edges).computad
