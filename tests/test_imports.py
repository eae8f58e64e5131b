"""Imports sit at the top of each kernel module, apart from the two that
have a reason to wait: ``signature.check_declaration`` imports
``free_computad`` from ``computad``, which imports ``signature``, and
``cli.cmd_example`` loads the example packs only when asked, so that every
other command starts without them.  Every name a kernel module imports is
used there, so a refactor leaves no stranded import behind."""

import ast
from pathlib import Path

import computads

ALLOWED = {("signature.py", "check_declaration"), ("cli.py", "cmd_example")}


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
