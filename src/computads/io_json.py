"""JSON encoding and decoding for every kernel entity.

Documents are self-contained: a computad embeds its signature, a signature
its category, and so on.  The entity kind of a loaded document is detected
from its top-level keys.
"""

from __future__ import annotations

from .algebra import Algebra, algebra_from_interpretations, hom_key
from .base import validate_category
from .computad import Computad, ComputadMorphism, make_computad, make_morphism
from .errors import GluingIllTyped, KernelError
from .plex import PApp, Polyplex, PVar, papp, pvar
from .presheaf import presheaf_to_json, validate_presheaf
from .signature import (
    signature_to_json,
    term_from_json,
    term_to_json,
    validate_signature,
)


def computad_from_json(raw: dict) -> Computad:
    sig = validate_signature(raw["signature"])
    gens = raw.get("generators", {})
    for s, ids in gens.items():
        if not isinstance(ids, list) or not all(isinstance(g, str) for g in ids):
            raise GluingIllTyped(f"generators at {s!r} must be a list of ids: {ids!r}")
    glue = {}
    for entry in raw.get("gluing", []):
        glue[(entry["gen"], entry["face"])] = term_from_json(entry["term"])
    return make_computad(sig, gens, glue)


def computad_to_json(c: Computad) -> dict:
    return {
        "signature": signature_to_json(c.signature),
        "generators": {
            s: list(c.generators_at(s)) for s in c.base.sorts if c.generators_at(s)
        },
        "gluing": [
            {"gen": g, "face": f, "term": term_to_json(t)}
            for (g, f), t in sorted(c.glue.items())
        ],
    }


def morphism_from_json(raw: dict) -> ComputadMorphism:
    src = computad_from_json(raw["src"])
    dst = computad_from_json(raw["dst"])
    assign = {
        entry["gen"]: term_from_json(entry["term"]) for entry in raw.get("assign", [])
    }
    return make_morphism(src, dst, assign)


def morphism_to_json(m: ComputadMorphism) -> dict:
    return {
        "src": computad_to_json(m.src),
        "dst": computad_to_json(m.dst),
        "assign": [
            {"gen": g, "term": term_to_json(t)} for g, t in sorted(m.assign.items())
        ],
    }


def algebra_from_json(raw: dict) -> Algebra:
    sig = validate_signature(raw["signature"])
    carrier = validate_presheaf(raw["carrier"], base=sig.base)
    tables: dict[str, dict[tuple, str]] = {}
    for entry in raw.get("interpretations", []):
        rows = {}
        for row in entry.get("rows", []):
            assignment = {a["cell"]: a["value"] for a in row["hom"]}
            rows[hom_key(assignment)] = row["value"]
        tables[entry["symbol"]] = rows
    return algebra_from_interpretations(sig, carrier, tables)


def algebra_to_json(alg: Algebra) -> dict:
    from .algebra import tabulate
    from .presheaf import enumerate_hom

    tabled = tabulate(alg)
    out = []
    for symbol_id in sorted(alg.signature.symbols):
        sym = alg.signature.symbols[symbol_id]
        rows = []
        for h in enumerate_hom(sym.arity, alg.carrier):
            rows.append(
                {
                    "hom": [
                        {"cell": c, "value": v}
                        for c, v in sorted(h.component.items())
                    ],
                    "value": tabled.interpret(symbol_id, h.component),
                }
            )
        out.append({"symbol": symbol_id, "rows": rows})
    return {
        "signature": signature_to_json(alg.signature),
        "carrier": presheaf_to_json(alg.carrier),
        "interpretations": out,
    }


def algebra_morphism_from_json(raw: dict) -> tuple[Algebra, Algebra, dict[str, str]]:
    src = algebra_from_json(raw["src"])
    dst = algebra_from_json(raw["dst"])
    component = {e["from"]: e["to"] for e in raw.get("components", [])}
    return src, dst, component


def polyplex_to_json(p: Polyplex) -> dict:
    if isinstance(p, PVar):
        return {
            "pvar": {
                "sort": p.sort,
                "boundary": [
                    {"face": f, "polyplex": polyplex_to_json(q)} for f, q in p.btype
                ],
            }
        }
    assert isinstance(p, PApp)
    return {
        "papp": {
            "sort": p.sort,
            "symbol": p.symbol,
            "args": [
                {"cell": c, "polyplex": polyplex_to_json(q)} for c, q in p.args
            ],
        }
    }


def polyplex_from_json(raw: dict) -> Polyplex:
    if "pvar" in raw:
        body = raw["pvar"]
        return pvar(
            body["sort"],
            {
                e["face"]: polyplex_from_json(e["polyplex"])
                for e in body.get("boundary", [])
            },
        )
    if "papp" in raw:
        body = raw["papp"]
        return papp(
            body["sort"],
            body["symbol"],
            {e["cell"]: polyplex_from_json(e["polyplex"]) for e in body.get("args", [])},
        )
    raise KernelError(f"not a polyplex: {raw!r}")


KINDS = {
    "sorts": "category",
    "cells": "presheaf",
    "symbols": "signature",
    "generators": "computad",
    "assign": "morphism",
    "interpretations": "algebra",
}


def detect_kind(raw: dict) -> str:
    for key, kind in KINDS.items():
        if key in raw:
            return kind
    raise KernelError("cannot detect the entity kind of this document")


def load_entity(raw: dict):
    kind = detect_kind(raw)
    loader = {
        "category": validate_category,
        "presheaf": validate_presheaf,
        "signature": validate_signature,
        "computad": computad_from_json,
        "morphism": morphism_from_json,
        "algebra": algebra_from_json,
    }[kind]
    return kind, loader(raw)
