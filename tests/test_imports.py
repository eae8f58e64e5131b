"""Imports sit at the top of each kernel module, apart from the two that
have a reason to wait: ``signature.build_signature`` imports
``free_computad`` from ``computad``, which imports ``signature``, and
``cli.cmd_example`` loads the example packs only when asked, so that every
other command starts without them."""

import ast
from pathlib import Path

import computads

ALLOWED = {("signature.py", "build_signature"), ("cli.py", "cmd_example")}


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
