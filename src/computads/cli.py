"""Command-line front end: load JSON entities, run kernel operations, emit
canonical JSON.

Exit status: 0 on success, 1 on validation failure, 2 on usage errors.
Output is deterministic: keys sorted, lists canonically ordered, newline
terminated.

Each call is a fresh interpreter, so the module loads at start only the core
that every subcommand reads and writes with (``base``, ``errors``,
``presheaf``, ``terms``, ``signature``, ``computad`` and ``io_json``); a
handler that runs more imports it itself, so ``enumerate`` loads ``monad``,
``filtration`` loads ``cofibrant`` and ``example`` its pack, and no command
loads a module it does not run.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from collections.abc import Callable
from itertools import accumulate
from typing import NamedTuple

from .base import json_object
from .computad import Computad, apply_morphism, free_computad, is_isomorphism
from .errors import BadSubset, DocumentTooDeep, KernelError
from .io_json import (
    algebra_from_json,
    algebra_morphism_from_json,
    computad_from_json,
    computad_to_json,
    load_entity,
    morphism_from_json,
    morphism_to_json,
    polyplex_to_json,
)
from .signature import signature_to_json, term_from_json, term_to_json, validate_signature
from .terms import Term, boundary_along, check_term


MAX_NESTING = 1000
"""The deepest a JSON document may nest arrays and objects.  A deeper one is
rejected as ``DocumentTooDeep`` before it is decoded, on every interpreter."""

# the closing quote is optional, so an unterminated string takes the rest of
# the text in one match (json.loads then reports it) instead of a retry at
# every escaped quote
_STRING = re.compile(r'"[^"\\]*(?:\\.[^"\\]*)*"?', re.S)
_NOT_BRACKET = re.compile(r"[^][{}]+")
_STEP = {"[": 1, "{": 1, "]": -1, "}": -1}


def _nesting(text: str) -> int:
    """How deep ``text`` nests arrays and objects, counted without recursion:
    strings are dropped, then the running count of open brackets is read."""
    brackets = _NOT_BRACKET.sub("", _STRING.sub("", text))
    return max(accumulate(map(_STEP.__getitem__, brackets)), default=0)


def _read_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    depth = _nesting(text)
    if depth > MAX_NESTING:
        raise DocumentTooDeep(
            f"{path} nests {depth} levels deep, beyond the limit of {MAX_NESTING}"
        )
    return json.loads(text)


_COUNT = re.compile(r"[0-9]+")


def _grid_counts(text: str) -> list[int]:
    """The cell counts of ``example grid --counts``: natural numbers written
    in decimal digits and separated by commas; an empty text is no counts."""
    items = text.split(",") if text else []
    for item in items:
        if not _COUNT.fullmatch(item):
            raise BadSubset(f"grid count {item!r} is not a natural number")
    return [int(item) for item in items]


def _depth(obj) -> int:
    """How deep an answer nests arrays and objects, counted without
    recursion, as :func:`_nesting` counts a document's text."""
    nested = (dict, list, tuple)
    deepest, todo = 0, [(obj, 1)] if isinstance(obj, nested) else []
    while todo:
        x, depth = todo.pop()
        deepest = max(deepest, depth)
        items = x.values() if isinstance(x, dict) else x
        todo += [(y, depth + 1) for y in items if isinstance(y, nested)]
    return deepest


def _emit(obj) -> None:
    """Print an answer, unless it nests deeper than a document may: the CLI
    could not read it back, and the indented text of a term grows with the
    square of its depth."""
    depth = _depth(obj)
    if depth > MAX_NESTING:
        raise DocumentTooDeep(
            f"the answer nests {depth} levels deep, beyond the limit of {MAX_NESTING}"
        )
    sys.stdout.write(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _term(raw) -> Term:
    """The term of a term document, unchecked: another document of the
    command supplies its computad."""
    json_object(raw, KernelError, "a term document", {"term": object})
    return term_from_json(raw["term"])


def _term_document(raw) -> tuple[Computad, Term]:
    """The computad of a term document and its term, checked against it."""
    json_object(raw, KernelError, "a term document", {"computad": object})
    c = computad_from_json(raw["computad"])
    t = _term(raw)
    check_term(c, t)
    return c, t


# Each handler takes the parsed arguments, each document option replaced by
# what its decoder read, and returns the answer to emit.  A handler imports
# the kernel modules beyond the core that it runs (see the module docstring).
def cmd_check(args):
    kind, _ = args.file  # the kind and the entity
    return {"ok": True, "kind": kind}


def cmd_boundary(args):
    c, t = args.term
    return term_to_json(boundary_along(c, args.face, t))


def cmd_apply(args):
    check_term(args.morphism.src, args.term)
    return term_to_json(apply_morphism(args.morphism, args.term))


def cmd_enumerate(args):
    from .monad import enumerate_terms

    terms = enumerate_terms(args.computad, args.sort, args.depth)
    return [term_to_json(t) for t in terms]


def cmd_classify(args):
    from .plex import classify

    return polyplex_to_json(classify(*args.term))


def cmd_plexes(args):
    from .plex import enumerate_polyplexes

    plexes = enumerate_polyplexes(args.sig, args.sort, args.max_depth)
    return [polyplex_to_json(p) for p in plexes]


def cmd_nerve(args):
    from .plex import nerve

    return [
        {"plex": polyplex_to_json(p), "generators": list(gens)}
        for p, gens in nerve(args.computad).items()
    ]


def cmd_support(args):
    from .factorization import support_morphism

    supp = support_morphism(args.morphism)
    return {s: sorted(gens) for s, gens in supp.items() if gens}


def cmd_factorize(args):
    from .factorization import image_factorize

    pi, middle, iota = image_factorize(args.morphism)
    return {
        "epi": morphism_to_json(pi),
        "middle": computad_to_json(middle),
        "mono": morphism_to_json(iota),
    }


def cmd_split(args):
    from .factorization import split_idempotent

    retraction, section = split_idempotent(args.morphism)
    return {
        "retraction": morphism_to_json(retraction),
        "section": morphism_to_json(section),
    }


def cmd_eval(args):
    from .algebra import eval_term

    alg = args.algebra
    # terms are evaluated over the free computad on the carrier, so their
    # generators must be carrier cells
    check_term(free_computad(alg.carrier, alg.signature), args.term)
    return {"value": eval_term(alg, args.term)}


def cmd_filtration(args):
    from .cofibrant import replay_filtration, replay_renaming
    from .cofibrant import skeletal_filtration, verify_stage_pushout

    filt = skeletal_filtration(args.computad)
    stages = [
        {
            "dim": lo.dim,
            "attached": sorted(att.gen for att in lo.attachments),
            "pushout_checked": verify_stage_pushout(lo, hi.computad),
        }
        for lo, hi in zip(filt.stages, filt.stages[1:])
    ]
    replayed = is_isomorphism(filt.computad, replay_filtration(filt), replay_renaming(filt))
    return {"stages": stages, "replay_isomorphic": replayed}


def cmd_cofrep(args):
    from .cofibrant import cofibrant_replacement

    und = cofibrant_replacement(args.algebra, args.depth).und
    return {
        "computad": computad_to_json(und.computad),
        "exact": und.exact,
        "counit": [{"gen": g, "value": v} for g, v in sorted(und.r_assign.items())],
    }


def cmd_check_tfib(args):
    from .cofibrant import check_trivial_fibration

    ok, counterexample = check_trivial_fibration(*args.morphism)
    if ok:
        return {"trivial_fibration": True}
    sort, family, below = counterexample
    return {
        "trivial_fibration": False,
        "counterexample": {"sort": sort, "boundary": family, "element": below},
    }


def cmd_example(args):
    if args.which == "kan":
        from .packs import sigma_kan

        sig = sigma_kan(args.dim)
    elif args.which in ("group", "module"):
        from .packs import group_signature, module_signature

        sig = group_signature() if args.which == "group" else module_signature()
    elif args.which == "grid":
        from .cubical import cube_category, grid_composite

        counts = _grid_counts(args.counts)
        grid = {i: c for i, c in enumerate(counts)}
        cat = cube_category(max(len(counts) - 1, 0))
        sig, _ = grid_composite(cat, grid)
    else:  # "cat", the last kind the parser allows
        from .globular import globe_category, parse_tree, tree_composite, tree_dim

        tree = parse_tree(args.tree)
        cat = globe_category(max(tree_dim(tree), 1))
        sig, _ = tree_composite(cat, tree)
    return signature_to_json(sig)


class Option(NamedTuple):
    """A command-line option; ``read`` is the decoder of a document option,
    whose value names a JSON file."""

    flag: str
    read: Callable | None = None
    help: str | None = None
    type: type | None = None


COMPUTAD = Option("--computad", computad_from_json)
MORPHISM = Option("--morphism", morphism_from_json)
ALGEBRA = Option("--algebra", algebra_from_json)
TERM = Option("--term", _term)
SORT = Option("--sort")
DEPTH = Option("--depth", type=int)

# per subcommand: its handler, its help and its options in reading order
COMMANDS = {
    "check": (cmd_check, "validate a JSON entity", [Option("file", load_entity)]),
    "boundary": (
        cmd_boundary,
        "boundary of a term along a face",
        [Option("--face"), Option("--term", _term_document, "term document with computad")],
    ),
    "apply": (cmd_apply, "apply a morphism to a term", [MORPHISM, TERM]),
    "enumerate": (cmd_enumerate, "terms of a sort up to a depth", [COMPUTAD, SORT, DEPTH]),
    "classify": (cmd_classify, "the shape of a term", [Option("--term", _term_document)]),
    "plexes": (
        cmd_plexes,
        "shapes of a sort up to a depth",
        [Option("--sig", validate_signature), SORT, Option("--max-depth", type=int)],
    ),
    "nerve": (cmd_nerve, "per-shape generator fibres", [COMPUTAD]),
    "support": (cmd_support, "support of a morphism", [MORPHISM]),
    "factorize": (cmd_factorize, "epi / mono image factorisation", [MORPHISM]),
    "split": (cmd_split, "split an idempotent endomorphism", [MORPHISM]),
    "eval": (cmd_eval, "evaluate a term in an algebra", [ALGEBRA, TERM]),
    "filtration": (cmd_filtration, "skeletal filtration report", [COMPUTAD]),
    "cofrep": (cmd_cofrep, "underlying computad of an algebra", [ALGEBRA, DEPTH]),
    "check-tfib": (
        cmd_check_tfib,
        "trivial-fibration check",
        [Option("--morphism", algebra_morphism_from_json, "algebra morphism document")],
    ),
    "example": (cmd_example, "emit a built-in example signature", []),
}
# per kind of ``example``: its options
EXAMPLES = {
    "kan": [Option("--dim", type=int)],
    "grid": [Option("--counts", help="comma-separated cell counts")],
    "group": [],
    "module": [],
    "cat": [Option("--tree", help="bracket tree like [[],[]]")],
}


def _add_options(parser: argparse.ArgumentParser, options: list[Option]) -> list:
    """Add ``options`` to ``parser``; returns the ``(dest, read)`` pair of
    each document option, in order."""
    reads = []
    for opt in options:
        required = {"required": True} if opt.flag.startswith("-") else {}
        action = parser.add_argument(opt.flag, type=opt.type, help=opt.help, **required)
        if opt.read:
            reads.append((action.dest, opt.read))
    return reads


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Built once per process: ``parse_args`` returns a fresh namespace, and
    no caller changes the parser or the ``reads`` lists it holds."""
    parser = argparse.ArgumentParser(
        prog="computads",
        description="computads, terms and free algebras over direct categories",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, summary, options) in COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        p.set_defaults(fn=handler, reads=_add_options(p, options))
    kinds = sub.choices["example"].add_subparsers(dest="which", required=True)
    for kind, options in EXAMPLES.items():
        _add_options(kinds.add_parser(kind), options)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    # The kernel walks terms and shapes without recursion, but the json
    # module's decoder and the indented emitter recurse once per level of
    # nesting, and the default limit leaves fewer than MAX_NESTING levels on
    # some versions.
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 3 * MAX_NESTING))
    try:
        # each document is read and decoded in option order, so the first
        # fault of the command line is the one reported
        for dest, read in args.reads:
            setattr(args, dest, read(_read_json(getattr(args, dest))))
        _emit(args.fn(args))
        return 0
    except KernelError as exc:
        sys.stderr.write(f"{type(exc).__name__}: {exc}\n")
        return 1
    except FileNotFoundError as exc:
        sys.stderr.write(f"{exc}\n")
        return 2
    except (KeyError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"malformed document: {exc!r}\n")
        return 1
    finally:
        sys.setrecursionlimit(limit)


if __name__ == "__main__":
    sys.exit(main())
