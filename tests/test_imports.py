"""Imports sit at the top of each kernel module, apart from the sites in
``ALLOWED``, each with its reason.  ``signature.check_declaration`` imports
``free_computad`` from ``computad``, which imports ``signature``.  The rest
keep the CLI's cold start small: ``computads.cli`` loads only the core every
subcommand needs (``CORE``), each handler imports the modules its command
runs, and ``io_json`` imports ``algebra`` and ``plex`` inside the public
codecs that use them, once per call.  Every name a kernel module imports is
used there, so a refactor leaves no stranded import behind.

The cold start itself is counted, not timed: a fresh interpreter runs each
subcommand on a small document and reports which kernel modules it loaded."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import computads
from computads.computad import identity_morphism
from computads.io_json import algebra_to_json, computad_to_json, morphism_to_json
from computads.signature import signature_to_json, term_to_json

from fixtures import comp_signature, comp_uv, pathcat_algebra, walk2

ALLOWED = {
    ("signature.py", "check_declaration"): "breaks the cycle with computad",
    **{
        ("cli.py", handler): "cold start"
        for handler in (
            "cmd_enumerate",
            "cmd_classify",
            "cmd_plexes",
            "cmd_nerve",
            "cmd_support",
            "cmd_factorize",
            "cmd_split",
            "cmd_eval",
            "cmd_filtration",
            "cmd_cofrep",
            "cmd_check_tfib",
            "cmd_example",
        )
    },
    **{
        ("io_json.py", codec): "cold start"
        for codec in (
            "algebra_from_json",
            "algebra_to_json",
            "algebra_morphism_from_json",
            "polyplex_from_json",
        )
    },
}


def _function_imports(path: Path):
    """(file name, function name, line) for each import inside a function."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    yield path.name, fn.name, node.lineno


def test_imports_are_at_module_level():
    package = Path(computads.__file__).parent
    found = [
        site
        for path in sorted(package.glob("*.py"))
        for site in _function_imports(path)
        if site[:2] not in ALLOWED
    ]
    assert found == []


def _unused_imports(path: Path):
    """(file name, name, line) for each imported name the module never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update((a.asname or a.name, node.lineno) for a in node.names)
        elif isinstance(node, ast.Import):
            imported.update((a.asname or a.name.split(".")[0], node.lineno) for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for name, line in sorted(imported.items()):
        if name not in used:
            yield path.name, name, line


def test_every_imported_name_is_used():
    package = Path(computads.__file__).parent
    found = [site for path in sorted(package.glob("*.py")) for site in _unused_imports(path)]
    assert found == []


# -- cold start -------------------------------------------------------------------

# the kernel modules that `import computads.cli` loads
CORE = {"base", "errors", "presheaf", "terms", "signature", "computad", "io_json", "cli"}

# the modules a child reports, after running `cli.main` on its arguments if
# it has any, with the exit status
CHILD = """
import json, sys
import computads.cli
status = computads.cli.main(sys.argv[1:]) if sys.argv[1:] else None
loaded = sorted(m.split(".", 1)[1] for m in sys.modules if m.startswith("computads."))
print(json.dumps({"status": status, "loaded": loaded}))
"""


def _loaded(argv, cwd) -> tuple:
    """The exit status and the kernel modules of a fresh interpreter that
    imports ``computads.cli`` and runs ``main(argv)``."""
    src = os.path.dirname(os.path.dirname(computads.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, *argv],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    return report["status"], set(report["loaded"])


def test_importing_the_cli_loads_only_the_core(tmp_path):
    _, loaded = _loaded([], tmp_path)
    assert loaded == CORE
    lazy = {"cofibrant", "factorization", "plex", "monad", "algebra", "packs", "cubical", "globular"}
    assert not loaded & lazy


def _documents(directory: Path) -> dict[str, str]:
    """Small documents for every subcommand, written under ``directory``;
    returns the path of each by name."""
    pathcat = algebra_to_json(pathcat_algebra())
    cells = pathcat_algebra().carrier.cells.values()
    identity = [{"from": c, "to": c} for cs in cells for c in cs]
    docs = {
        "computad": computad_to_json(walk2()),
        "term": {"computad": computad_to_json(walk2()), "term": term_to_json(comp_uv())},
        "var": {"term": {"var": "u"}},
        "morphism": morphism_to_json(identity_morphism(walk2())),
        "sig": signature_to_json(comp_signature()),
        "algebra": pathcat,
        "path": {"term": {"var": "e1"}},
        "sigma": {"src": pathcat, "dst": pathcat, "components": identity},
    }
    paths = {}
    for name, doc in docs.items():
        paths[name] = str(directory / f"{name}.json")
        Path(paths[name]).write_text(json.dumps(doc), encoding="utf-8")
    return paths


# per command line, with `{name}` for the path of a document: the kernel
# modules it loads beyond the core
LOADS = {
    "check {computad}": set(),
    "check {algebra}": {"algebra", "monad"},
    "boundary --face s --term {term}": set(),
    "apply --morphism {morphism} --term {var}": set(),
    "enumerate --computad {computad} --sort a --depth 1": {"monad"},
    "classify --term {term}": {"plex", "monad"},
    "plexes --sig {sig} --sort a --max-depth 1": {"plex", "monad"},
    "nerve --computad {computad}": {"plex", "monad"},
    "support --morphism {morphism}": {"factorization"},
    "factorize --morphism {morphism}": {"factorization"},
    "split --morphism {morphism}": {"factorization"},
    "eval --algebra {algebra} --term {path}": {"algebra", "monad"},
    "filtration --computad {computad}": {"cofibrant", "algebra", "monad"},
    "cofrep --algebra {algebra} --depth 1": {"cofibrant", "algebra", "monad"},
    "check-tfib --morphism {sigma}": {"cofibrant", "algebra", "monad"},
    "example kan --dim 1": {"packs"},
    "example group": {"packs"},
    "example module": {"packs"},
    "example grid --counts 2": {"cubical", "factorization"},
    "example cat --tree [[],[]]": {"globular", "factorization"},
}


@pytest.mark.parametrize("command", list(LOADS))
def test_each_command_loads_only_its_modules(command, tmp_path):
    paths = _documents(tmp_path)
    argv = [word.format(**paths) for word in command.split()]
    status, loaded = _loaded(argv, tmp_path)
    assert status == 0
    assert loaded == CORE | LOADS[command]
