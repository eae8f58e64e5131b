import json
import os
import subprocess
import sys

import pytest

import computads
from computads.cli import main
from computads.computad import make_computad
from computads.io_json import (
    algebra_to_json,
    computad_to_json,
    morphism_to_json,
)
from computads.packs import discrete_signature
from computads.signature import signature_to_json, term_to_json

from fixtures import comp_signature, comp_uv, pathcat_algebra, walk2


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


def run_process(*argv):
    """Run the CLI as its own process, so a crash shows as it would to a user."""
    src = os.path.dirname(os.path.dirname(computads.__file__))
    return subprocess.run(
        [sys.executable, "-m", "computads.cli", *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=120,
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


def test_cofrep_command(tmp_path, capsys):
    alg_path = tmp_path / "pathcat.json"
    alg_path.write_text(json.dumps(algebra_to_json(pathcat_algebra())), encoding="utf-8")
    status, out = run(capsys, "cofrep", "--algebra", str(alg_path), "--depth", "2")
    assert status == 0
    report = json.loads(out)
    assert report["exact"] is True
    assert len(report["counit"]) == 9


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


def test_output_does_not_depend_on_the_hash_seed(tmp_path):
    import random

    from computads.packs import sigma_kan
    from fixtures import globe2, random_computad_comp, walk_n

    sig = comp_signature()
    docs = {
        "walk": computad_to_json(walk_n(sig, 4)),
        "random": computad_to_json(random_computad_comp(sig, random.Random(3), 5, 6)),
        "globe": computad_to_json(globe2()),
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
