"""A seeded mutation fuzzer over the command line, run in process through
``cli.main``.  Each case takes a valid fixture document and mutates it once:
it deletes, retypes, duplicates, swaps or truncates a value, substitutes one
id of the document for another, or replaces one side of a two-sided document
(a morphism, an algebra morphism) with another fixture's valid one.  Every
case must end in exit status 0, 1 or 2, without a traceback or a
``malformed document`` on stderr, and the exit statuses and stdout of all
cases must not depend on the hash seed.

Run as a script, it prints the digest of the statuses and outputs:
``PYTHONPATH=src python tests/test_fuzz.py``."""

import contextlib
import copy
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import computads
from computads.cli import main
from computads.computad import make_computad
from computads.io_json import algebra_to_json, computad_to_json
from computads.packs import discrete_signature, group_signature
from computads.signature import term_to_json

from fixtures import (
    comp_uv,
    fork_algebra_doc,
    fork_computad_doc,
    globe2,
    pathcat_algebra,
    pointed_algebra_doc,
    walk2,
    z5_algebra,
    zero_algebra,
)

SEED = 23
CASES = 200


def _identity(c: dict) -> dict:
    """The identity morphism document on a computad document."""
    gens = [g for gs in c["generators"].values() for g in gs]
    return {"src": c, "dst": c, "assign": [{"gen": g, "term": {"var": g}} for g in gens]}


def _algebra_identity(alg: dict) -> dict:
    """The identity algebra morphism document on an algebra document."""
    cells = [c for cs in alg["carrier"]["cells"].values() for c in cs]
    return {"src": alg, "dst": alg, "components": [{"from": c, "to": c} for c in cells]}


def _corpus():
    """The fixture documents, each with the command lines that read it
    (``{}`` stands for its path), and per two-sided kind of document, keyed
    by the field only it has, the donors a side is replaced with."""
    zero = discrete_signature(["*"], [("zero", "*", {})])
    points = [make_computad(sig, {"*": ("x",)}, {}) for sig in (group_signature(), zero)]
    computads = [computad_to_json(c) for c in [walk2(), globe2(), *points]]
    computads += [fork_computad_doc(t) for t in "ab"]
    algebras = [algebra_to_json(a) for a in (pathcat_algebra(), z5_algebra(), zero_algebra())]
    algebras += [fork_algebra_doc(t) for t in "ab"]
    algebras += [pointed_algebra_doc(constant) for constant in (True, False)]
    term = {"computad": computads[0], "term": term_to_json(comp_uv())}
    computad_reads = [("check", "{}")]
    computad_reads += [(cmd, "--computad", "{}") for cmd in ("nerve", "filtration")]
    morphism_reads = [("check", "{}")]
    morphism_reads += [(cmd, "--morphism", "{}") for cmd in ("support", "factorize", "split")]
    docs = [(c, computad_reads) for c in computads[:2]]
    docs += [(_identity(c), morphism_reads) for c in (computads[0], computads[2], computads[4])]
    docs += [(_algebra_identity(alg), [("check-tfib", "--morphism", "{}")]) for alg in algebras]
    docs += [
        (computads[0], [("enumerate", "--computad", "{}", "--sort", "a", "--depth", "1")]),
        (algebras[0], [("check", "{}")]),
        (algebras[1], [("check", "{}"), ("cofrep", "--algebra", "{}", "--depth", "1")]),
        (term, [("classify", "--term", "{}"), ("boundary", "--face", "s", "--term", "{}")]),
    ]
    return docs, {"assign": computads, "components": algebras}


def _slots(doc):
    """Every ``(container, key)`` pair inside ``doc``, in document order."""
    for key, value in list(doc.items() if isinstance(doc, dict) else enumerate(doc)):
        yield doc, key
        if isinstance(value, (dict, list)):
            yield from _slots(value)


RETYPED = [5, -1, True, None, "x", "", [], {}, [5], {"var": "x"}]
MUTATIONS = ["delete", "retype", "duplicate", "swap", "substitute", "truncate"]


def _mutate(doc, donors: dict, rng: random.Random):
    """``doc`` mutated once, and the name of the mutation."""
    doc = copy.deepcopy(doc)
    sides = [k for k in ("assign", "components") if k in doc]
    op = rng.choice(MUTATIONS + ["replace side"] * (2 * len(sides)))
    if op == "replace side":
        doc[rng.choice(["src", "dst"])] = copy.deepcopy(rng.choice(donors[sides[0]]))
        return doc, op
    slots = list(_slots(doc))
    strings = [parent[key] for parent, key in slots if isinstance(parent[key], str)]
    if op == "substitute":  # one id of the document for another
        slots = [(parent, key) for parent, key in slots if isinstance(parent[key], str)]
    parent, key = rng.choice(slots)
    value = parent[key]
    if op == "retype":
        parent[key] = copy.deepcopy(rng.choice(RETYPED))
    elif op == "duplicate" and isinstance(parent, list):
        parent.insert(key, copy.deepcopy(value))
    elif op == "duplicate":
        parent[key] = [value, copy.deepcopy(value)]
    elif op == "swap":
        other = rng.choice(list(parent) if isinstance(parent, dict) else range(len(parent)))
        parent[key], parent[other] = parent[other], value
    elif op == "substitute":
        parent[key] = rng.choice(strings)
    elif op == "truncate" and isinstance(value, (list, str)):
        parent[key] = value[: rng.randrange(len(value) + 1)]
    else:  # delete, or truncate a scalar
        del parent[key]
    return doc, op


def fuzz(directory: Path, cases: int = CASES):
    """Run ``cases`` mutated documents through ``cli.main``; yields each
    case's mutation, command line, exit status, stdout and stderr."""
    docs, donors = _corpus()
    rng = random.Random(SEED)
    path = directory / "doc.json"
    for _ in range(cases):
        doc, commands = rng.choice(docs)
        mutated, op = _mutate(doc, donors, rng)
        argv = [arg.format(path) for arg in rng.choice(commands)]
        path.write_text(json.dumps(mutated), encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = main(argv)
        yield op, argv[0], status, out.getvalue(), err.getvalue()


def digest(cases) -> str:
    """The digest of the exit status and stdout of every case."""
    h = hashlib.sha256()
    for _, _, status, out, _ in cases:
        h.update(f"{status}\n{out}\0".encode())
    return h.hexdigest()


def test_mutated_documents_end_in_a_verdict(tmp_path):
    # the same cases run meanwhile in a child process under another hash seed
    src = os.path.dirname(os.path.dirname(computads.__file__))
    tests = os.path.dirname(os.path.abspath(__file__))
    seed = "1" if os.environ.get("PYTHONHASHSEED") == "0" else "0"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, tests]), PYTHONHASHSEED=seed)
    child = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )
    try:
        cases = list(fuzz(tmp_path))
    finally:
        there, child_err = child.communicate(timeout=120)
    seen: dict = {}
    for op, command, status, _, err in cases:
        assert status in (0, 1, 2), (op, command, status, err)
        assert "Traceback" not in err and "malformed document" not in err, (op, command, err)
        seen[op, status] = seen.get((op, status), 0) + 1
    # the cases reach both verdicts, side replacement among them
    assert {status for _, status in seen} >= {0, 1}, seen
    assert seen.get(("replace side", 1), 0) > 10, seen
    assert child.returncode == 0, child_err
    assert there.strip() == digest(cases)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        print(digest(fuzz(Path(scratch))))
