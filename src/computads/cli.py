"""Command-line front end: load JSON entities, run kernel operations, emit
canonical JSON.

Exit status: 0 on success, 1 on validation failure, 2 on usage errors.
Output is deterministic: keys sorted, lists canonically ordered, newline
terminated.
"""

from __future__ import annotations

import argparse
import json
import sys
from operator import itemgetter

from .algebra import eval_term
from .cofibrant import (
    check_trivial_fibration,
    cofibrant_replacement,
    replay_filtration,
    skeletal_filtration,
    verify_stage_pushout,
)
from .computad import isomorphic
from .errors import DocumentTooDeep, KernelError
from .factorization import image_factorize, split_idempotent, support_morphism
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
from .monad import enumerate_terms
from .plex import classify, enumerate_polyplexes, nerve, pspellings
from .signature import signature_to_json, term_from_json, term_to_json, validate_signature
from .terms import boundary_along
from .computad import apply_morphism


def _read_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise DocumentTooDeep(
                f"{path} nests deeper than the interpreter's recursion limit "
                f"({sys.getrecursionlimit()} levels)"
            ) from None


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _load_term_document(path: str):
    raw = _read_json(path)
    c = computad_from_json(raw["computad"])
    t = term_from_json(raw["term"])
    from .terms import check_term

    check_term(c, t)
    return c, t


def cmd_check(args) -> int:
    raw = _read_json(args.file)
    kind, _ = load_entity(raw)
    _emit({"ok": True, "kind": kind})
    return 0


def cmd_boundary(args) -> int:
    c, t = _load_term_document(args.term)
    result = boundary_along(c, args.face, t)
    _emit(term_to_json(result))
    return 0


def cmd_apply(args) -> int:
    m = morphism_from_json(_read_json(args.morphism))
    t = term_from_json(_read_json(args.term)["term"])
    from .terms import check_term

    check_term(m.src, t)
    _emit(term_to_json(apply_morphism(m, t)))
    return 0


def cmd_enumerate(args) -> int:
    c = computad_from_json(_read_json(args.computad))
    terms = enumerate_terms(c, args.sort, args.depth)
    _emit([term_to_json(t) for t in terms])
    return 0


def cmd_classify(args) -> int:
    c, t = _load_term_document(args.term)
    _emit(polyplex_to_json(classify(c, t)))
    return 0


def cmd_plexes(args) -> int:
    sig = validate_signature(_read_json(args.sig))
    plexes = enumerate_polyplexes(sig, args.sort, args.max_depth)
    _emit([polyplex_to_json(p) for p in plexes])
    return 0


def cmd_nerve(args) -> int:
    c = computad_from_json(_read_json(args.computad))
    fibres = nerve(c)
    shapes = list(fibres)
    _emit(
        [
            {"plex": polyplex_to_json(p), "generators": list(fibres[p])}
            for _, p in sorted(zip(pspellings(shapes), shapes), key=itemgetter(0))
        ]
    )
    return 0


def cmd_support(args) -> int:
    m = morphism_from_json(_read_json(args.morphism))
    supp = support_morphism(m)
    _emit({s: sorted(gens) for s, gens in supp.items() if gens})
    return 0


def cmd_factorize(args) -> int:
    m = morphism_from_json(_read_json(args.morphism))
    pi, middle, iota = image_factorize(m)
    _emit(
        {
            "epi": morphism_to_json(pi),
            "middle": computad_to_json(middle),
            "mono": morphism_to_json(iota),
        }
    )
    return 0


def cmd_split(args) -> int:
    m = morphism_from_json(_read_json(args.morphism))
    retraction, section = split_idempotent(m)
    _emit(
        {
            "retraction": morphism_to_json(retraction),
            "section": morphism_to_json(section),
        }
    )
    return 0


def cmd_eval(args) -> int:
    from .computad import free_computad
    from .terms import check_term

    alg = algebra_from_json(_read_json(args.algebra))
    t = term_from_json(_read_json(args.term)["term"])
    # terms are evaluated over the free computad on the carrier, so their
    # generators must be carrier cells
    check_term(free_computad(alg.carrier, alg.signature), t)
    _emit({"value": eval_term(alg, t)})
    return 0


def cmd_filtration(args) -> int:
    c = computad_from_json(_read_json(args.computad))
    filt = skeletal_filtration(c)
    replayed = replay_filtration(filt)
    stages = []
    for lo, hi in zip(filt.stages, filt.stages[1:]):
        verdict = verify_stage_pushout(lo, hi.computad)
        stages.append(
            {
                "dim": lo.dim,
                "attached": sorted(att.gen for att in lo.attachments),
                "pushout_checked": verdict,
            }
        )
    _emit({"stages": stages, "replay_isomorphic": isomorphic(replayed, c)})
    return 0


def cmd_cofrep(args) -> int:
    alg = algebra_from_json(_read_json(args.algebra))
    cof = cofibrant_replacement(alg, args.depth)
    _emit(
        {
            "computad": computad_to_json(cof.und.computad),
            "exact": cof.und.exact,
            "counit": [
                {"gen": g, "value": v} for g, v in sorted(cof.und.r_assign.items())
            ],
        }
    )
    return 0


def cmd_check_tfib(args) -> int:
    src, dst, component = algebra_morphism_from_json(_read_json(args.morphism))
    ok, counterexample = check_trivial_fibration(src, dst, component)
    if ok:
        _emit({"trivial_fibration": True})
    else:
        sort, family, below = counterexample
        _emit(
            {
                "trivial_fibration": False,
                "counterexample": {
                    "sort": sort,
                    "boundary": family,
                    "element": below,
                },
            }
        )
    return 0


def cmd_example(args) -> int:
    if args.which == "kan":
        from .packs import sigma_kan

        _emit(signature_to_json(sigma_kan(args.dim)))
    elif args.which == "group":
        from .packs import group_signature

        _emit(signature_to_json(group_signature()))
    elif args.which == "module":
        from .packs import module_signature

        _emit(signature_to_json(module_signature()))
    elif args.which == "grid":
        from .cubical import cube_category, grid_composite

        counts = [int(x) for x in args.counts.split(",") if x != ""]
        grid = {i: c for i, c in enumerate(counts)}
        cat = cube_category(max(len(counts) - 1, 0))
        sig, _ = grid_composite(cat, grid)
        _emit(signature_to_json(sig))
    elif args.which == "cat":
        from .globular import globe_category, parse_tree, tree_composite, tree_dim

        tree = parse_tree(args.tree)
        cat = globe_category(max(tree_dim(tree), 1))
        sig, _ = tree_composite(cat, tree)
        _emit(signature_to_json(sig))
    else:  # pragma: no cover - argparse restricts choices
        return 2
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="computads",
        description="computads, terms and free algebras over direct categories",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate a JSON entity")
    p.add_argument("file")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("boundary", help="boundary of a term along a face")
    p.add_argument("--face", required=True)
    p.add_argument("--term", required=True, help="term document with computad")
    p.set_defaults(fn=cmd_boundary)

    p = sub.add_parser("apply", help="apply a morphism to a term")
    p.add_argument("--morphism", required=True)
    p.add_argument("--term", required=True)
    p.set_defaults(fn=cmd_apply)

    p = sub.add_parser("enumerate", help="terms of a sort up to a depth")
    p.add_argument("--computad", required=True)
    p.add_argument("--sort", required=True)
    p.add_argument("--depth", type=int, required=True)
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser("classify", help="the shape of a term")
    p.add_argument("--term", required=True)
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("plexes", help="shapes of a sort up to a depth")
    p.add_argument("--sig", required=True)
    p.add_argument("--sort", required=True)
    p.add_argument("--max-depth", type=int, required=True)
    p.set_defaults(fn=cmd_plexes)

    p = sub.add_parser("nerve", help="per-shape generator fibres")
    p.add_argument("--computad", required=True)
    p.set_defaults(fn=cmd_nerve)

    p = sub.add_parser("support", help="support of a morphism")
    p.add_argument("--morphism", required=True)
    p.set_defaults(fn=cmd_support)

    p = sub.add_parser("factorize", help="epi / mono image factorisation")
    p.add_argument("--morphism", required=True)
    p.set_defaults(fn=cmd_factorize)

    p = sub.add_parser("split", help="split an idempotent endomorphism")
    p.add_argument("--morphism", required=True)
    p.set_defaults(fn=cmd_split)

    p = sub.add_parser("eval", help="evaluate a term in an algebra")
    p.add_argument("--algebra", required=True)
    p.add_argument("--term", required=True)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("filtration", help="skeletal filtration report")
    p.add_argument("--computad", required=True)
    p.set_defaults(fn=cmd_filtration)

    p = sub.add_parser("cofrep", help="underlying computad of an algebra")
    p.add_argument("--algebra", required=True)
    p.add_argument("--depth", type=int, required=True)
    p.set_defaults(fn=cmd_cofrep)

    p = sub.add_parser("check-tfib", help="trivial-fibration check")
    p.add_argument("--morphism", required=True, help="algebra morphism document")
    p.set_defaults(fn=cmd_check_tfib)

    p = sub.add_parser("example", help="emit a built-in example signature")
    ex = p.add_subparsers(dest="which", required=True)
    k = ex.add_parser("kan")
    k.add_argument("--dim", type=int, required=True)
    g = ex.add_parser("grid")
    g.add_argument("--counts", required=True, help="comma-separated cell counts")
    ex.add_parser("group")
    ex.add_parser("module")
    c = ex.add_parser("cat")
    c.add_argument("--tree", required=True, help="bracket tree like [[],[]]")
    p.set_defaults(fn=cmd_example)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except KernelError as exc:
        sys.stderr.write(f"{type(exc).__name__}: {exc}\n")
        return 1
    except FileNotFoundError as exc:
        sys.stderr.write(f"{exc}\n")
        return 2
    except (KeyError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"malformed document: {exc!r}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
