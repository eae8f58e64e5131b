import copy
import json
import os
import random
import subprocess
import sys

import pytest

import computads
from computads import errors
from computads.cli import main
from computads.computad import make_computad
from computads.io_json import (
    algebra_to_json,
    computad_to_json,
    morphism_to_json,
)
from computads.packs import discrete_signature
from computads.signature import signature_to_json, term_to_json

from fixtures import (
    comp_signature,
    comp_uv,
    fork_algebra_doc,
    fork_computad_doc,
    kan_nerve,
    pathcat_algebra,
    pointed_algebra_doc,
    relabelled,
    walk2,
    walk_n,
)


@pytest.fixture()
def walk2_file(tmp_path):
    path = tmp_path / "walk2.json"
    path.write_text(json.dumps(computad_to_json(walk2())), encoding="utf-8")
    return path


@pytest.fixture()
def comp_uv_file(tmp_path):
    path = tmp_path / "comp_uv.json"
    doc = {"computad": computad_to_json(walk2()), "term": term_to_json(comp_uv())}
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def run(capsys, *argv):
    status = main(list(argv))
    out = capsys.readouterr().out
    return status, out


def test_check_computad(walk2_file, capsys):
    status, out = run(capsys, "check", str(walk2_file))
    assert status == 0
    assert json.loads(out) == {"ok": True, "kind": "computad"}


def test_check_rejects_broken_document(tmp_path, capsys):
    doc = computad_to_json(walk2())
    doc["gluing"][0]["term"] = {"var": "v"}  # an a-sorted gluing: ill-typed
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    status, _ = run(capsys, "check", str(path))
    assert status == 1


def test_boundary_command(comp_uv_file, capsys):
    status, out = run(capsys, "boundary", "--face", "s", "--term", str(comp_uv_file))
    assert status == 0
    assert json.loads(out) == {"var": "p"}


def test_enumerate_command(walk2_file, capsys):
    status, out = run(
        capsys,
        "enumerate", "--computad", str(walk2_file), "--sort", "a", "--depth", "1",
    )
    assert status == 0
    assert len(json.loads(out)) == 3


def test_classify_and_plexes(comp_uv_file, tmp_path, capsys):
    status, out = run(capsys, "classify", "--term", str(comp_uv_file))
    assert status == 0
    assert "papp" in json.loads(out)
    sig_path = tmp_path / "sig.json"
    sig_path.write_text(
        json.dumps(signature_to_json(comp_signature())), encoding="utf-8"
    )
    status, out = run(
        capsys,
        "plexes", "--sig", str(sig_path), "--sort", "a", "--max-depth", "1",
    )
    assert status == 0
    assert len(json.loads(out)) == 2


def test_nerve_command(walk2_file, capsys):
    status, out = run(capsys, "nerve", "--computad", str(walk2_file))
    assert status == 0
    fibres = json.loads(out)
    assert sorted(len(e["generators"]) for e in fibres) == [2, 3]


def test_support_factorize_split(tmp_path, capsys):
    from computads.computad import identity_morphism

    ident = identity_morphism(walk2())
    path = tmp_path / "ident.json"
    path.write_text(json.dumps(morphism_to_json(ident)), encoding="utf-8")
    status, out = run(capsys, "support", "--morphism", str(path))
    assert status == 0
    assert json.loads(out) == {"a": ["u", "v"], "o": ["p", "q", "r"]}
    status, out = run(capsys, "factorize", "--morphism", str(path))
    assert status == 0
    assert "middle" in json.loads(out)
    status, out = run(capsys, "split", "--morphism", str(path))
    assert status == 0


def test_split_rejects_non_idempotent(tmp_path, capsys):
    from computads.computad import ComputadMorphism
    from computads.terms import var

    c = walk2()
    shift = ComputadMorphism(
        src=c,
        dst=c,
        assign={"p": var("q"), "q": var("r"), "r": var("r"), "u": var("v"), "v": var("r")},
    )
    path = tmp_path / "shift.json"
    path.write_text(json.dumps(morphism_to_json(shift)), encoding="utf-8")
    status, _ = run(capsys, "split", "--morphism", str(path))
    assert status == 1


def test_eval_command(tmp_path, capsys):
    alg_path = tmp_path / "pathcat.json"
    alg_path.write_text(json.dumps(algebra_to_json(pathcat_algebra())), encoding="utf-8")
    term_path = tmp_path / "t.json"
    term_doc = {
        "term": {
            "app": {
                "symbol": "comp",
                "args": [
                    {"cell": "f", "term": {"var": "e1"}},
                    {"cell": "g", "term": {"var": "e2"}},
                    {"cell": "x", "term": {"var": "A"}},
                    {"cell": "y", "term": {"var": "B"}},
                    {"cell": "z", "term": {"var": "C"}},
                ],
            }
        }
    }
    term_path.write_text(json.dumps(term_doc), encoding="utf-8")
    status, out = run(
        capsys, "eval", "--algebra", str(alg_path), "--term", str(term_path)
    )
    assert status == 0
    assert json.loads(out) == {"value": "e12"}


def test_eval_rejects_foreign_generators(tmp_path, capsys):
    # terms are evaluated over the free computad on the carrier; a term
    # naming other generators is a validation error, not a crash
    alg_path = tmp_path / "pathcat.json"
    alg_path.write_text(json.dumps(algebra_to_json(pathcat_algebra())), encoding="utf-8")
    term_path = tmp_path / "foreign.json"
    term_path.write_text(json.dumps({"term": term_to_json(comp_uv())}), encoding="utf-8")
    status, _ = run(capsys, "eval", "--algebra", str(alg_path), "--term", str(term_path))
    assert status == 1


def test_filtration_command(walk2_file, capsys):
    status, out = run(capsys, "filtration", "--computad", str(walk2_file))
    assert status == 0
    report = json.loads(out)
    assert report["replay_isomorphic"] is True
    assert [st["pushout_checked"] for st in report["stages"]] == [True, True]


def test_filtration_of_large_computad(tmp_path):
    # More generators than the recursion limit.
    sig = discrete_signature(["o"], [])
    c = make_computad(sig, {"o": tuple(f"g{i}" for i in range(1200))}, {})
    path = tmp_path / "discrete.json"
    path.write_text(json.dumps(computad_to_json(c)), encoding="utf-8")
    proc = run_process("filtration", "--computad", str(path))
    assert proc.returncode == 0
    assert "Traceback" not in proc.stderr
    assert json.loads(proc.stdout)["replay_isomorphic"] is True


def test_filtration_of_a_relabelled_long_walk(tmp_path):
    # each stage is checked through the pushout's comparison map, so listing
    # the generators of a long walk out of chain order costs no search
    c = relabelled(walk_n(comp_signature(), 200), random.Random(7))
    path = tmp_path / "walk200.json"
    path.write_text(json.dumps(computad_to_json(c)), encoding="utf-8")
    proc = run_process("filtration", "--computad", str(path), timeout=60)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert [st["pushout_checked"] for st in report["stages"]] == [True, True]
    assert report["replay_isomorphic"] is True


def test_filtration_searches_nothing(tmp_path, capsys, monkeypatch):
    # the stage pushouts and the replay are each checked against a map known
    # in advance, so the answers stay as pinned with the search refused
    import hashlib

    from computads import presheaf

    pinned = {
        "walk2": "8481e58ad5a12434d89f67e4ce3a224a88057ff42f6c38e2203b5fb52fb030c5",
        "walk30": "3787c7fc405ac56e2b980c3e7297dc7101023936438080af92a166316870f26c",
    }
    docs = {"walk2": walk2(), "walk30": relabelled(walk_n(comp_signature(), 30), random.Random(5))}
    for name, c in docs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(computad_to_json(c)), encoding="utf-8")

    def refuse(*args):
        raise AssertionError("the filtration searched")

    monkeypatch.setattr(presheaf, "search", refuse)
    for name, digest in pinned.items():
        status, out = run(capsys, "filtration", "--computad", str(tmp_path / f"{name}.json"))
        assert status == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


def run_process(*argv, timeout=120):
    """Run the CLI as its own process, so a crash shows as it would to a user."""
    src = os.path.dirname(os.path.dirname(computads.__file__))
    return subprocess.run(
        [sys.executable, "-m", "computads.cli", *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=timeout,
    )


def _dim_true(doc):
    doc["signature"]["category"]["sorts"][0]["dim"] = True  # bool is an int
    return doc


def _generators_as_string(doc):
    doc["generators"] = {"o": "xy"}  # a string, not the list ["x", "y"]
    return doc


def _generators_at_undeclared_sort(doc):
    doc["generators"]["zzz"] = ["x"]
    return doc


def _gluing_of_undeclared_generator(doc):
    doc["gluing"].append({"gen": "x", "face": "d", "term": {"var": "g"}})
    return doc


def _gluing_along_foreign_face(doc):
    doc["gluing"].append({"gen": "g", "face": "d", "term": {"var": "g"}})
    return doc


def _cells_as_string(doc):
    return {"category": doc["signature"]["category"], "cells": {"o": "xy"}}


def _sorts_as_number(doc):
    doc["signature"]["category"]["sorts"] = 5
    return doc


def _cells_as_list(doc):
    return {"category": doc["signature"]["category"], "cells": ["x"]}


def _generators_as_list(doc):
    doc["generators"] = ["g"]
    return doc


def _signature_category_as_number(doc):
    doc["signature"]["category"] = 5
    return doc


def _symbols_as_number(doc):
    doc["signature"]["symbols"] = 5
    return doc


def _assign_as_number(doc):
    return {"src": doc, "dst": doc, "assign": 5}


def _presheaf_category_as_number(doc):
    return {"category": 5, "cells": {}}


def _assign_to_a_foreign_generator(doc):
    assign = [{"gen": "g", "term": {"var": "g"}}, {"gen": "bogus", "term": {"var": "g"}}]
    return {"src": doc, "dst": doc, "assign": assign}


def _assign_listed_twice(doc):
    # the first entry is wrong; a reader keeping the last entry would accept it
    assign = [{"gen": "g", "term": {"var": "nope"}}, {"gen": "g", "term": {"var": "g"}}]
    return {"src": doc, "dst": doc, "assign": assign}


def _components_from_a_foreign_cell(doc):
    alg = algebra_to_json(pathcat_algebra())
    cells = [c for cs in alg["carrier"]["cells"].values() for c in cs]
    components = [{"from": c, "to": c} for c in cells + ["bogus"]]
    return {"src": alg, "dst": alg, "components": components}


ENUMERATE = ("enumerate", "--computad", "{}", "--sort", "o", "--depth", "0")


@pytest.mark.parametrize(
    "corrupt, commands, error",
    [
        (_dim_true, [("check", "{}"), ENUMERATE], "DimensionViolation"),
        (_generators_as_string, [("check", "{}"), ENUMERATE], "GluingIllTyped"),
        (_cells_as_string, [("check", "{}")], "FunctorialityFailure"),
        (_generators_at_undeclared_sort, [("check", "{}"), ENUMERATE], "UnknownSort"),
        (_gluing_of_undeclared_generator, [("check", "{}"), ENUMERATE], "GluingIllTyped"),
        (_gluing_along_foreign_face, [("check", "{}"), ENUMERATE], "GluingIllTyped"),
        (_sorts_as_number, [("check", "{}"), ENUMERATE], "UnknownSort"),
        (_cells_as_list, [("check", "{}")], "FunctorialityFailure"),
        (_generators_as_list, [("check", "{}"), ENUMERATE], "GluingIllTyped"),
        (_signature_category_as_number, [("check", "{}"), ENUMERATE], "UnknownSort"),
        (_symbols_as_number, [("check", "{}"), ENUMERATE], "UnknownSymbol"),
        (_assign_as_number, [("check", "{}")], "UnknownGenerator"),
        (_presheaf_category_as_number, [("check", "{}")], "UnknownSort"),
        (
            _assign_to_a_foreign_generator,
            [("check", "{}"), ("factorize", "--morphism", "{}")],
            "UnknownGenerator",
        ),
        (_assign_listed_twice, [("check", "{}"), ("support", "--morphism", "{}")], "UnknownGenerator"),
        (_components_from_a_foreign_cell, [("check-tfib", "--morphism", "{}")], "FunctorialityFailure"),
    ],
)
def test_json_boundary_rejects_misreadable_values(tmp_path, corrupt, commands, error):
    sig = discrete_signature(["o"], [])
    doc = corrupt(computad_to_json(make_computad(sig, {"o": ("g",)}, {})))
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    for command in commands:
        proc = run_process(*(arg.format(path) for arg in command))
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""
        assert proc.stderr.startswith(f"{error}: ")


def _string_fields(doc, path=()):
    """The path to every string-valued field of a JSON document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        if isinstance(value, str) and isinstance(doc, dict):
            yield path + (key,)
        elif isinstance(value, (dict, list)):
            yield from _string_fields(value, path + (key,))


def _scalar_mutations():
    """Each document set to ``5`` or ``[5]`` at one string field, one field
    per document and place (list positions merged), the category the
    algebra's carrier repeats included."""
    from computads.computad import identity_morphism

    alg = algebra_to_json(pathcat_algebra())
    cells = [c for cs in pathcat_algebra().carrier.cells.values() for c in cs]
    term_doc = {"computad": computad_to_json(walk2()), "term": term_to_json(comp_uv())}
    docs = [
        (computad_to_json(walk2()), ("check", "{}")),
        (morphism_to_json(identity_morphism(walk2())), ("check", "{}")),
        (alg, ("check", "{}")),
        (term_doc, ("classify", "--term", "{}")),
        (
            {"src": alg, "dst": alg, "components": [{"from": c, "to": c} for c in cells]},
            ("check-tfib", "--morphism", "{}"),
        ),
    ]
    for doc, command in docs:
        places = set()
        for path in _string_fields(doc):
            place = tuple("*" if isinstance(k, int) else k for k in path)
            if place in places:
                continue
            places.add(place)
            for value in (5, [5]):
                mutated = copy.deepcopy(doc)
                node = mutated
                for key in path[:-1]:
                    node = node[key]
                node[path[-1]] = value
                yield mutated, command, place, value


def test_scalar_fields_of_the_wrong_type_are_typed_errors(tmp_path, capsys):
    kernel_errors = {
        name
        for name, cls in vars(errors).items()
        if isinstance(cls, type) and issubclass(cls, errors.KernelError)
    }
    path = tmp_path / "doc.json"
    count = 0
    for doc, command, place, value in _scalar_mutations():
        path.write_text(json.dumps(doc), encoding="utf-8")
        status = main([arg.format(path) for arg in command])
        err = capsys.readouterr().err
        assert status == 1, (place, value)
        assert err.split(":")[0] in kernel_errors, (place, value, err)
        count += 1
    assert count > 200


def test_over_deep_document_is_a_typed_error(tmp_path):
    from computads.packs import group_signature

    c = make_computad(group_signature(), {"*": ("x",)}, {})
    level = '{"app": {"symbol": "neg", "args": [{"cell": "neg.*0", "term": '
    term = level * 300 + '{"var": "x"}' + "}]}}" * 300  # 1,200 nesting levels
    path = tmp_path / "deep.json"
    path.write_text(
        '{"computad": ' + json.dumps(computad_to_json(c)) + ', "term": ' + term + "}",
        encoding="utf-8",
    )
    proc = run_process("classify", "--term", str(path))
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("DocumentTooDeep: ")


def _neg_chain_document(path, depth: int):
    """A term document holding ``neg`` applied ``depth`` times to ``x``; it
    nests 4 * depth + 2 levels."""
    from computads.packs import group_signature

    c = make_computad(group_signature(), {"*": ("x",)}, {})
    level = '{"app": {"symbol": "neg", "args": [{"cell": "neg.*0", "term": '
    term = level * depth + '{"var": "x"}' + "}]}}" * depth
    path.write_text(
        '{"computad": ' + json.dumps(computad_to_json(c)) + ', "term": ' + term + "}",
        encoding="utf-8",
    )
    return path


@pytest.mark.parametrize("depth", [245, 249])
def test_document_within_the_nesting_limit_is_read(tmp_path, depth):
    # 982 and 998 levels, both within MAX_NESTING; under the default
    # recursion limit the second fails to decode on Python 3.10 and 3.11 and
    # to emit on 3.12
    path = _neg_chain_document(tmp_path / "deep.json", depth)
    proc = run_process("classify", "--term", str(path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "" and proc.stdout.startswith('{\n  "papp": ')


def test_document_beyond_the_nesting_limit_names_it(tmp_path):
    from computads.cli import MAX_NESTING

    path = _neg_chain_document(tmp_path / "deep.json", 250)  # 1,002 levels
    proc = run_process("classify", "--term", str(path))
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == (
        f"DocumentTooDeep: {path} nests 1002 levels deep, "
        f"beyond the limit of {MAX_NESTING}\n"
    )


def test_nesting_ignores_brackets_inside_strings(tmp_path, capsys):
    from computads.cli import _nesting

    assert _nesting('{"a": ["[[{", "\\"]]", {"b": "\\\\"}], "c": "}}"}') == 3
    assert _nesting("[]") == 1 and _nesting('"x"') == 0
    # more opening brackets than the limit, all of them inside one name
    name = "[" * 2000
    c = make_computad(comp_signature(), {"o": (name,)}, {})
    path = tmp_path / "brackets.json"
    path.write_text(json.dumps(computad_to_json(c)), encoding="utf-8")
    status, out = run(capsys, "check", str(path))
    assert status == 0
    assert json.loads(out) == {"ok": True, "kind": "computad"}


def test_unterminated_string_is_read_in_linear_time(tmp_path):
    # an unterminated string followed by many escaped quotes: a string
    # pattern that needs its closing quote retries at each of them and scans
    # to the end every time, which takes minutes for this document
    path = tmp_path / "unterminated.json"
    path.write_text('"' + '\\"' * 50_000 + "[" * 1001, encoding="utf-8")
    src = os.path.dirname(os.path.dirname(computads.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "computads.cli", "check", str(path)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=10,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("malformed document: JSONDecodeError(")


# SHA-256 of the stdout of `computads example ...`: the example categories and
# coherence symbols may be built differently, but their output may not change.
EXAMPLE_DIGESTS = {
    "kan --dim 1": "2cec365583df63556acc9a2d681ca4974f2e95d27d275655ff04f47280541bbb",
    "kan --dim 2": "3c5d63af249115ed61d7957f1120ec08859089513ce64d280db7b6163d234c5c",
    "kan --dim 3": "3ef1870c6f4d60f2abf14756918517e33680119038f2aad6b5db678ea5eebacd",
    "grid --counts 2": "e290e6830a1d4efd440db352f66fa4fca82bb5b445c211b96cc5f9dc7065c47b",
    "grid --counts 2,1": "c743daaec2c093dbe12cfedb5dd4f713b7d38bc8931874d6dab3639f002cd799",
    "grid --counts 1,1,1": "a0ded3cd9e993fd78970bec51fadcd1aecfbb2b35363c730dfbe262fd8281d37",
    "grid --counts 2,2": "ec2c50c7ec0f252db121527ef3c2e6d356293cc36e95554b35adaa4e26141f90",
    "grid --counts 4,1": "49f74a2170c54d56c9f5a6e5c08d60f06e6e6e611cf7df8c1e74ffc4739d6b4c",
    "group": "16e32b868e631d283f75320814c6a0339c4cc5d683a3e165990820aef7aa42a4",
    "module": "6407453e8f0fed6e96a92f621783dab64760139e4a4d21a4535660d2eaf2af4a",
    "cat --tree [[],[]]": "4a95a4179e79471865a075e1bd7d2e2278c37b50d0650f096ed1d37623061edd",
    "cat --tree [[[]],[]]": "d24c60c827ffceb1ea9781dd4fc7f97f741dc420ff5dc75959fbe9405e6e7cf0",
    "cat --tree [[[],[]],[[]]]": "8930fb4c0409e7e32d3d79accf1ba001e3e0e156c2f477b3743212114334a270",
    "cat --tree [[[[]]]]": "0eebecdb485bb42457251dd9e8d1b7fa627addad2f1fe95d4f75f8b8d8fe7139",
    "cat --tree [[[[[[]]]]]]": "71826b4cc5e7a5af27f8b69be36fb154abd6e909106c2cce614156e23435f6c5",
    "cat --tree [[[[[[[[[[[[]]]]]]]]]]]]": (
        "0c326916c221f340dc359f8aa91633b5fd8beb3274f35118d50d112014347541"
    ),
    "cat --tree [[[[]],[]],[[],[[]]],[]]": (
        "22cd7b967b4749e325e87129c8d437f05ed5b226f68226fee6fca4dffbf8a95e"
    ),
    "cat --tree [[[[],[]],[[]]],[[[[]]]]]": (
        "2ba31bef1e8585f403dfb72ee04e389e5a68a5eb839abe6c9e70d6fe38b6cff9"
    ),
}


@pytest.mark.parametrize("argv", sorted(EXAMPLE_DIGESTS))
def test_example_output_is_pinned(argv, capsys):
    import hashlib

    status, out = run(capsys, "example", *argv.split())
    assert status == 0
    assert hashlib.sha256(out.encode()).hexdigest() == EXAMPLE_DIGESTS[argv]


def test_cofrep_command(tmp_path, capsys):
    alg_path = tmp_path / "pathcat.json"
    alg_path.write_text(json.dumps(algebra_to_json(pathcat_algebra())), encoding="utf-8")
    status, out = run(capsys, "cofrep", "--algebra", str(alg_path), "--depth", "2")
    assert status == 0
    report = json.loads(out)
    assert report["exact"] is True
    assert len(report["counit"]) == 9


def test_cofrep_of_the_kan_nerve_is_pinned(tmp_path, capsys):
    # the underlying computad of a 2-dimensional algebra, its generators
    # named by their gluings and counit values
    import hashlib

    path = tmp_path / "kan_nerve2.json"
    path.write_text(json.dumps(algebra_to_json(kan_nerve(2))), encoding="utf-8")
    status, out = run(capsys, "cofrep", "--algebra", str(path), "--depth", "1")
    assert status == 0
    digest = "2af97743e3a37068c25b9ed539ce1d5a5698ec43a595c9fcf570361ea75a1d8c"
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_example_commands(capsys):
    status, out = run(capsys, "example", "kan", "--dim", "1")
    assert status == 0
    assert len(json.loads(out)["symbols"]) == 4
    status, out = run(capsys, "example", "group")
    assert status == 0
    status, out = run(capsys, "example", "grid", "--counts", "2")
    assert status == 0
    assert any(s["id"].startswith("coh") for s in json.loads(out)["symbols"])
    status, out = run(capsys, "example", "cat", "--tree", "[[],[]]")
    assert status == 0


def test_apply_command(tmp_path, capsys):
    from computads.computad import identity_morphism

    ident = identity_morphism(walk2())
    m_path = tmp_path / "ident.json"
    m_path.write_text(json.dumps(morphism_to_json(ident)), encoding="utf-8")
    t_path = tmp_path / "t.json"
    t_path.write_text(json.dumps({"term": term_to_json(comp_uv())}), encoding="utf-8")
    status, out = run(
        capsys, "apply", "--morphism", str(m_path), "--term", str(t_path)
    )
    assert status == 0
    assert json.loads(out) == term_to_json(comp_uv())


def test_check_tfib_command(tmp_path, capsys):
    from computads.io_json import algebra_to_json

    alg = pathcat_algebra()
    doc = {
        "src": algebra_to_json(alg),
        "dst": algebra_to_json(alg),
        "components": [
            {"from": c, "to": c} for cs in alg.carrier.cells.values() for c in cs
        ],
    }
    path = tmp_path / "sigma.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    status, out = run(capsys, "check-tfib", "--morphism", str(path))
    assert status == 0
    assert json.loads(out) == {"trivial_fibration": True}


def _tfib_file(tmp_path, alg, component):
    path = tmp_path / "sigma.json"
    doc = {
        "src": algebra_to_json(alg),
        "dst": algebra_to_json(alg),
        "components": [{"from": c, "to": v} for c, v in component.items()],
    }
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def test_check_tfib_rejects_a_map_that_is_not_natural(tmp_path, capsys):
    alg = pathcat_algebra()
    cells = [c for cs in alg.carrier.cells.values() for c in cs]
    nowhere = {c: "nope" for c in cells}
    # e1 : A -> B sent to e2 : B -> C while A stays where it is
    swapped = dict({c: c for c in cells}, e1="e2")
    for component in (nowhere, swapped):
        status = main(["check-tfib", "--morphism", str(_tfib_file(tmp_path, alg, component))])
        captured = capsys.readouterr()
        assert status == 1
        assert captured.out == ""
        assert captured.err.startswith("FunctorialityFailure: ")


def test_check_tfib_rejects_a_map_that_breaks_an_interpretation(tmp_path, capsys):
    from fixtures import z5_algebra

    # k -> k + 1 is natural (Z/5 has no faces) but sends zero to one
    successor = {str(k): str((k + 1) % 5) for k in range(5)}
    path = _tfib_file(tmp_path, z5_algebra(), successor)
    status = main(["check-tfib", "--morphism", str(path)])
    captured = capsys.readouterr()
    assert status == 1
    assert captured.out == ""
    assert captured.err.startswith("NotCompatible: ")


def test_check_tfib_reports_its_counterexample(tmp_path, capsys):
    from computads.algebra import algebra_from_callbacks
    from computads.packs import group_signature
    from computads.presheaf import make_presheaf
    from fixtures import z5_algebra

    # the one-cell sub-algebra {0} of Z/5: nothing in it lies over 1
    sig = group_signature()
    zero_only = make_presheaf(sig.base, {"*": ("0",)}, {})
    sub = algebra_from_callbacks(sig, zero_only, {s: lambda env: "0" for s in sig.symbols})
    doc = {
        "src": algebra_to_json(sub),
        "dst": algebra_to_json(z5_algebra()),
        "components": [{"from": "0", "to": "0"}],
    }
    path = tmp_path / "sigma.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    status, out = run(capsys, "check-tfib", "--morphism", str(path))
    assert status == 0
    assert out == (
        "{\n"
        '  "counterexample": {\n'
        '    "boundary": {},\n'
        '    "element": "1",\n'
        '    "sort": "*"\n'
        "  },\n"
        '  "trivial_fibration": false\n'
        "}\n"
    )


def test_a_missing_document_is_a_usage_error(tmp_path, capsys):
    missing = tmp_path / "no-such.json"
    status = main(["check", str(missing)])
    captured = capsys.readouterr()
    assert status == 2
    assert captured.out == ""
    assert str(missing) in captured.err


def _algebra_pair(src: dict, dst: dict, cells) -> dict:
    """An algebra morphism document with identity components on ``cells``."""
    return {"src": src, "dst": dst, "components": [{"from": c, "to": c} for c in cells]}


# Documents whose two halves are each valid but lie over different categories
# or signatures, and the commands that read them
CROSS_BASE = {
    "fork-algebras": (
        _algebra_pair(fork_algebra_doc("a"), fork_algebra_doc("b"), "pxy"),
        ["check-tfib"],
    ),
    "fork-morphism": (
        {
            "src": fork_computad_doc("a"),
            "dst": fork_computad_doc("b"),
            "assign": [{"gen": g, "term": {"var": g}} for g in "pxy"],
        },
        ["support", "factorize", "split"],
    ),
    "constant-to-empty": (
        _algebra_pair(pointed_algebra_doc(True), pointed_algebra_doc(False), "p"),
        ["check-tfib"],
    ),
    "empty-to-constant": (
        _algebra_pair(pointed_algebra_doc(False), pointed_algebra_doc(True), "p"),
        ["check-tfib"],
    ),
}


@pytest.mark.parametrize("doc, commands", CROSS_BASE.values(), ids=CROSS_BASE.keys())
def test_documents_whose_halves_differ_in_base_are_rejected(tmp_path, doc, commands):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    for command in commands:
        proc = run_process(command, "--morphism", str(path))
        assert proc.returncode == 1, (command, proc.stderr)
        assert proc.stdout == ""
        assert proc.stderr.startswith("BaseMismatch: "), (command, proc.stderr)


@pytest.mark.parametrize("counts", ["x", "-1", "1,,2", "1,2,", ",", "+1", " 1", "1.0"])
def test_grid_counts_must_be_natural_numbers(counts, capsys):
    status = main(["example", "grid", "--counts", counts])
    captured = capsys.readouterr()
    assert status == 1
    assert captured.out == ""
    assert captured.err.startswith("BadSubset: ")


def test_empty_grid_counts_are_the_empty_grid(capsys):
    status, out = run(capsys, "example", "grid", "--counts", "")
    assert status == 0
    assert json.loads(out)["symbols"] == []


@pytest.mark.parametrize("levels", [1000, 5000])
def test_an_over_deep_tree_literal_is_a_typed_error(levels):
    from computads.globular import MAX_TREE_NESTING

    proc = run_process("example", "cat", "--tree", "[" * levels + "]" * levels)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr == f"DocumentTooDeep: tree literal nests beyond {MAX_TREE_NESTING} levels\n"


def test_the_parser_is_built_once_per_process(walk2_file, capsys):
    from computads.cli import build_parser

    build_parser.cache_clear()
    assert main(["check", str(walk2_file)]) == 0
    assert main(["nerve", "--computad", str(walk2_file)]) == 0
    capsys.readouterr()
    assert build_parser.cache_info().misses == 1


def test_usage_error_exit_code(capsys):
    assert main(["boundary", "--face"]) == 2
    assert main(["no-such-command"]) == 2


def test_byte_identical_reruns(walk2_file, capsys):
    _, out1 = run(capsys, "nerve", "--computad", str(walk2_file))
    _, out2 = run(capsys, "nerve", "--computad", str(walk2_file))
    assert out1 == out2


def test_roundtrip_emitted_json_revalidates(tmp_path, capsys):
    status, out = run(capsys, "example", "kan", "--dim", "2")
    assert status == 0
    path = tmp_path / "kan2.json"
    path.write_text(out, encoding="utf-8")
    status, out2 = run(capsys, "check", str(path))
    assert status == 0
    assert json.loads(out2)["kind"] == "signature"


def _seeded_computads() -> dict:
    import random

    from fixtures import globe2, random_computad_comp, walk_n

    sig = comp_signature()
    return {
        "walk": walk_n(sig, 4),
        "random": random_computad_comp(sig, random.Random(3), 5, 6),
        "globe": globe2(),
    }


def test_nerve_lists_shapes_in_spelling_order(tmp_path, capsys):
    from computads.io_json import polyplex_to_json
    from computads.plex import classify
    from computads.terms import var
    from oracles import spell_plex

    for name, c in dict(_seeded_computads(), walk2=walk2()).items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(computad_to_json(c)), encoding="utf-8")
        status, out = run(capsys, "nerve", "--computad", str(path))
        assert status == 0
        fibres: dict = {}
        for _, gen in c.all_generators():
            fibres.setdefault(classify(c, var(gen)), []).append(gen)
        assert json.loads(out) == [
            {"plex": polyplex_to_json(p), "generators": sorted(fibres[p])}
            for p in sorted(fibres, key=spell_plex)
        ], name


def test_output_does_not_depend_on_the_hash_seed(tmp_path):
    from computads.packs import sigma_kan

    sig = comp_signature()
    docs = {name: computad_to_json(c) for name, c in _seeded_computads().items()}
    docs |= {
        "sig": signature_to_json(sig),
        "kan": signature_to_json(sigma_kan(1)),
        "term": {"computad": computad_to_json(walk2()), "term": term_to_json(comp_uv())},
    }
    paths = {}
    for name, doc in docs.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(doc), encoding="utf-8")
    commands = [("classify", "--term", paths["term"])]
    for name in ("walk", "random", "globe"):
        commands.append(("nerve", "--computad", paths[name]))
        commands.append(("filtration", "--computad", paths[name]))
    commands.append(("enumerate", "--computad", paths["walk"], "--sort", "a", "--depth", "2"))
    commands.append(("enumerate", "--computad", paths["globe"], "--sort", "g2", "--depth", "0"))
    commands.append(("plexes", "--sig", paths["sig"], "--sort", "a", "--max-depth", "2"))
    commands.append(("plexes", "--sig", paths["kan"], "--sort", "[1]", "--max-depth", "2"))
    src = os.path.dirname(os.path.dirname(computads.__file__))
    for command in commands:
        outs = []
        for seed in ("1", "2"):
            proc = subprocess.run(
                [sys.executable, "-m", "computads.cli", *map(str, command)],
                capture_output=True,
                text=True,
                env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed),
                timeout=120,
            )
            assert proc.returncode == 0, (command, proc.stderr)
            outs.append(proc.stdout)
        assert outs[0] == outs[1], command


def test_negative_bounds_are_typed_errors(walk2_file, tmp_path):
    sig_path = tmp_path / "sig.json"
    sig_path.write_text(json.dumps(signature_to_json(comp_signature())), encoding="utf-8")
    for command in [
        ("enumerate", "--computad", str(walk2_file), "--sort", "a", "--depth", "-1"),
        ("plexes", "--sig", str(sig_path), "--sort", "o", "--max-depth", "-1"),
    ]:
        proc = run_process(*command)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith("NegativeBound: ")


def test_unknown_sorts_are_typed_errors(walk2_file, tmp_path):
    sig_path = tmp_path / "sig.json"
    sig_path.write_text(json.dumps(signature_to_json(comp_signature())), encoding="utf-8")
    enumerate_zz = ("enumerate", "--computad", str(walk2_file), "--sort", "zz", "--depth")
    for command, error in [
        ((*enumerate_zz, "1"), "UnknownSort"),
        (("plexes", "--sig", str(sig_path), "--sort", "zz", "--max-depth", "1"), "UnknownSort"),
        ((*enumerate_zz, "-1"), "NegativeBound"),  # the bound is checked first
        (("plexes", "--sig", str(sig_path), "--sort", "zz", "--max-depth", "-1"), "NegativeBound"),
    ]:
        proc = run_process(*command)
        assert proc.returncode == 1, command
        assert proc.stdout == ""
        assert proc.stderr.startswith(f"{error}: ")
        assert "Traceback" not in proc.stderr


# The command-line surface, per subcommand and example kind: its help and,
# per option in order, its option string (its name for a positional), whether
# it is required, its argparse type and its help.
SURFACE = {
    "check": ("validate a JSON entity", [("file", True, None, None)]),
    "boundary": (
        "boundary of a term along a face",
        [("--face", True, None, None), ("--term", True, None, "term document with computad")],
    ),
    "apply": (
        "apply a morphism to a term",
        [("--morphism", True, None, None), ("--term", True, None, None)],
    ),
    "enumerate": (
        "terms of a sort up to a depth",
        [("--computad", True, None, None), ("--sort", True, None, None), ("--depth", True, int, None)],
    ),
    "classify": ("the shape of a term", [("--term", True, None, None)]),
    "plexes": (
        "shapes of a sort up to a depth",
        [("--sig", True, None, None), ("--sort", True, None, None), ("--max-depth", True, int, None)],
    ),
    "nerve": ("per-shape generator fibres", [("--computad", True, None, None)]),
    "support": ("support of a morphism", [("--morphism", True, None, None)]),
    "factorize": ("epi / mono image factorisation", [("--morphism", True, None, None)]),
    "split": ("split an idempotent endomorphism", [("--morphism", True, None, None)]),
    "eval": (
        "evaluate a term in an algebra",
        [("--algebra", True, None, None), ("--term", True, None, None)],
    ),
    "filtration": ("skeletal filtration report", [("--computad", True, None, None)]),
    "cofrep": (
        "underlying computad of an algebra",
        [("--algebra", True, None, None), ("--depth", True, int, None)],
    ),
    "check-tfib": (
        "trivial-fibration check",
        [("--morphism", True, None, "algebra morphism document")],
    ),
    "example": ("emit a built-in example signature", []),
    "example kan": (None, [("--dim", True, int, None)]),
    "example grid": (None, [("--counts", True, None, "comma-separated cell counts")]),
    "example group": (None, []),
    "example module": (None, []),
    "example cat": (None, [("--tree", True, None, "bracket tree like [[],[]]")]),
}


def _surface(parser, prefix=""):
    """``SURFACE`` as ``parser`` declares it."""
    import argparse

    out = {}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            helps = {a.dest: a.help for a in action._choices_actions}
            for name, sub in action.choices.items():
                options = [
                    ((a.option_strings or [a.dest])[0], a.required, a.type, a.help)
                    for a in sub._actions
                    if not isinstance(a, (argparse._HelpAction, argparse._SubParsersAction))
                ]
                out[prefix + name] = (helps.get(name), options)
                out.update(_surface(sub, prefix + name + " "))
    return out


def test_cli_surface_is_pinned(capsys):
    from computads.cli import build_parser

    assert _surface(build_parser()) == SURFACE
    assert main(["--help"]) == 0
    for command in SURFACE:
        assert main([*command.split(), "--help"]) == 0, command
    capsys.readouterr()


def _fields(doc, path=()):
    """The path to every field of every object in a JSON document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        if isinstance(doc, dict):
            yield path + (key,)
        if isinstance(value, (dict, list)):
            yield from _fields(value, path + (key,))


def _deletions(doc):
    """``doc`` without one field, one document per place (list positions
    merged, the first position taken)."""
    places = set()
    for path in _fields(doc):
        place = tuple("*" if isinstance(k, int) else k for k in path)
        if place not in places:
            places.add(place)
            mutated = copy.deepcopy(doc)
            node = mutated
            for key in path[:-1]:
                node = node[key]
            del node[path[-1]]
            yield mutated, place


def _assert_typed(status, err, what):
    kernel_errors = {
        name
        for name, cls in vars(errors).items()
        if isinstance(cls, type) and issubclass(cls, errors.KernelError)
    }
    assert status in (0, 1), (what, status, err)
    assert "KeyError" not in err and "Traceback" not in err, (what, err)
    if status == 1:
        assert err.split(":")[0] in kernel_errors, (what, err)


def test_documents_missing_a_field_are_typed_errors(tmp_path, capsys):
    path = tmp_path / "doc.json"
    count = 0
    for doc in (computad_to_json(walk2()), algebra_to_json(pathcat_algebra())):
        for mutated, place in _deletions(doc):
            path.write_text(json.dumps(mutated), encoding="utf-8")
            status = main(["check", str(path)])
            _assert_typed(status, capsys.readouterr().err, place)
            count += 1
    assert count == 82


def test_term_documents_missing_a_field_are_typed_errors(tmp_path, capsys):
    from computads.computad import identity_morphism

    m_path = tmp_path / "ident.json"
    m_path.write_text(json.dumps(morphism_to_json(identity_morphism(walk2()))), encoding="utf-8")
    a_path = tmp_path / "pathcat.json"
    a_path.write_text(json.dumps(algebra_to_json(pathcat_algebra())), encoding="utf-8")
    t_path = tmp_path / "t.json"
    full = {"computad": computad_to_json(walk2()), "term": term_to_json(comp_uv())}
    docs = [{"term": full["term"]}, {"computad": full["computad"]}, 5, []]
    commands = [
        ("boundary", "--face", "s", "--term"),
        ("classify", "--term"),
        ("apply", "--morphism", str(m_path), "--term"),
        ("eval", "--algebra", str(a_path), "--term"),
    ]
    for doc in docs:
        t_path.write_text(json.dumps(doc), encoding="utf-8")
        for command in commands:
            status = main([*command, str(t_path)])
            _assert_typed(status, capsys.readouterr().err, (doc, command))
            # a term document without its term is never read
            if not isinstance(doc, dict) or "term" not in doc:
                assert status == 1, (doc, command)


def test_only_main_reads_documents_and_emits_answers():
    import ast
    from pathlib import Path

    import computads.cli

    tree = ast.parse(Path(computads.cli.__file__).read_text(encoding="utf-8"))
    callers = {
        fn.name
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef)
        for node in ast.walk(fn)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("_read_json", "_emit")
    }
    assert callers == {"main"}
