"""JSON encoding and decoding for every kernel entity.

Documents are self-contained: a computad embeds its signature, a signature
its category, and so on.  The entity kind of a loaded document is detected
from its top-level keys.
"""

from __future__ import annotations

from operator import itemgetter
from typing import TYPE_CHECKING

from .base import check_same_base, json_id_lists, json_object, json_objects, validate_category
from .computad import Computad, ComputadMorphism, make_computad, make_morphism
from .errors import (
    FunctorialityFailure,
    GluingIllTyped,
    KernelError,
    MissingAction,
    NotCompatible,
    PartialTable,
    UnknownGenerator,
)
from .presheaf import (
    PresheafMorphism,
    check_morphism,
    hom_key,
    presheaf_to_json,
    validate_presheaf,
)
from .signature import (
    fold_document,
    signature_to_json,
    term_from_json,
    term_to_json,
    validate_signature,
)
from .terms import fold, parts_of

if TYPE_CHECKING:
    from .algebra import Algebra
    from .plex import Polyplex


def computad_from_json(raw: dict) -> Computad:
    json_object(raw, GluingIllTyped, "a computad", {"signature": object})
    sig = validate_signature(raw["signature"])
    gens = json_id_lists(raw, "generators", GluingIllTyped)
    fields, key = {"gen": str, "face": str, "term": object}, itemgetter("gen", "face")
    entries = json_objects(raw, "gluing", GluingIllTyped, fields, key)
    return make_computad(sig, gens, {key(e): term_from_json(e["term"]) for e in entries})


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
    json_object(raw, UnknownGenerator, "a morphism", {"src": object, "dst": object})
    src = computad_from_json(raw["src"])
    dst = computad_from_json(raw["dst"])
    fields, key = {"gen": str, "term": object}, itemgetter("gen")
    entries = json_objects(raw, "assign", UnknownGenerator, fields, key)
    return make_morphism(src, dst, {key(e): term_from_json(e["term"]) for e in entries})


def morphism_to_json(m: ComputadMorphism) -> dict:
    return {
        "src": computad_to_json(m.src),
        "dst": computad_to_json(m.dst),
        "assign": [
            {"gen": g, "term": term_to_json(t)} for g, t in sorted(m.assign.items())
        ],
    }


def algebra_from_json(raw: dict) -> Algebra:
    from .algebra import algebra_from_interpretations

    json_object(raw, PartialTable, "an algebra", {"signature": object, "carrier": object})
    sig = validate_signature(raw["signature"])
    carrier_raw = json_object(
        raw["carrier"], FunctorialityFailure, "a presheaf", {"category": object}
    )
    check_same_base(validate_category(carrier_raw["category"]), sig.base, "carrier")
    carrier = validate_presheaf(carrier_raw, base=sig.base)
    tables: dict[str, dict[tuple, str]] = {}
    by_symbol = itemgetter("symbol")
    for entry in json_objects(raw, "interpretations", PartialTable, {"symbol": str}, by_symbol):
        rows = json_objects(entry, "rows", PartialTable, {"value": str}, _row_key)
        tables[entry["symbol"]] = {_row_key(row): row["value"] for row in rows}
    return algebra_from_interpretations(sig, carrier, tables)


def _row_key(row: dict) -> tuple:
    """The ``hom_key`` of a row of an interpretation table."""
    fields = {"cell": str, "value": str}
    hom = json_objects(row, "hom", PartialTable, fields, itemgetter("cell"))
    return hom_key({a["cell"]: a["value"] for a in hom})


def algebra_to_json(alg: Algebra) -> dict:
    from .algebra import rows

    tables: dict[str, list] = {s: [] for s in sorted(alg.signature.symbols)}
    for symbol_id, env, value in rows(alg):
        hom = [{"cell": c, "value": v} for c, v in sorted(env.items())]
        tables[symbol_id].append({"hom": hom, "value": value})
    return {
        "signature": signature_to_json(alg.signature),
        "carrier": presheaf_to_json(alg.carrier),
        "interpretations": [{"symbol": s, "rows": r} for s, r in tables.items()],
    }


def algebra_morphism_from_json(raw: dict) -> tuple[Algebra, Algebra, dict[str, str]]:
    from .algebra import check_algebra_morphism

    json_object(raw, MissingAction, "an algebra morphism", {"src": object, "dst": object})
    src = algebra_from_json(raw["src"])
    dst = algebra_from_json(raw["dst"])
    fields = {"from": str, "to": str}
    entries = json_objects(raw, "components", MissingAction, fields, itemgetter("from"))
    component = {e["from"]: e["to"] for e in entries}
    check_morphism(PresheafMorphism(src.carrier, dst.carrier, component))
    ok, failure = check_algebra_morphism(src, dst, component)
    if not ok:
        raise NotCompatible(f"the components break {failure[0]!r} on row {failure[1]}")
    return src, dst, component


# per shape kind, the ``kind`` of its class: the key of its parts, the key of
# their cells and the fields its body needs
_PLEX_KEYS = {
    "pvar": ("boundary", "face", {"sort": str}),
    "papp": ("args", "cell", {"sort": str, "symbol": str}),
}


def _plex_json(p: Polyplex, family) -> dict:
    key, cell, _ = _PLEX_KEYS[p.kind]
    body = {"sort": p.sort, key: [{cell: c, "polyplex": q} for c, q in family.items()]}
    if p.kind == "papp":
        body["symbol"] = p.symbol
    return {p.kind: body}


def polyplex_to_json(p: Polyplex) -> dict:
    return fold(p, parts_of, _plex_json)


def _plex_args(raw) -> list[tuple[str, dict]]:
    for kind, (key, cell, fields) in _PLEX_KEYS.items():
        if kind in json_object(raw, KernelError, "a polyplex"):
            body = json_object(raw[kind], KernelError, f"a {kind}", fields)
            part = {cell: str, "polyplex": object}
            parts = json_objects(body, key, KernelError, part, itemgetter(cell))
            return [(e[cell], e["polyplex"]) for e in parts]
    raise KernelError(f"not a polyplex: {raw!r}")


def polyplex_from_json(raw: dict) -> Polyplex:
    from .plex import papp, pvar

    def build(raw: dict, family) -> Polyplex:
        if "pvar" in raw:
            return pvar(raw["pvar"]["sort"], family)
        return papp(raw["papp"]["sort"], raw["papp"]["symbol"], family)

    return fold_document(raw, _plex_args, build)


# per entity kind, in the order of detection: the top-level key that marks
# it and its decoder
KINDS = {
    "category": ("sorts", validate_category),
    "presheaf": ("cells", validate_presheaf),
    "signature": ("symbols", validate_signature),
    "computad": ("generators", computad_from_json),
    "morphism": ("assign", morphism_from_json),
    "algebra": ("interpretations", algebra_from_json),
}


def detect_kind(raw: dict) -> str:
    json_object(raw, KernelError, "a document")
    for kind, (key, _) in KINDS.items():
        if key in raw:
            return kind
    raise KernelError("cannot detect the entity kind of this document")


def load_entity(raw: dict):
    kind = detect_kind(raw)
    return kind, KINDS[kind][1](raw)
