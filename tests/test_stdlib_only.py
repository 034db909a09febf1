"""The library imports nothing outside the standard library."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "webkup"


def foreign_imports(source: str) -> set[str]:
    """Top-level package names imported anywhere in the source that are
    neither standard library nor webkup (relative imports are webkup)."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"webkup"}


def test_checker_flags_a_foreign_import():
    source = "import os\nfrom . import webs\ndef f():\n    import numpy.linalg\n"
    assert foreign_imports(source) == {"numpy"}
    assert foreign_imports("from hypothesis import given") == {"hypothesis"}


def test_library_imports_only_the_standard_library():
    files = sorted(SRC.glob("*.py"))
    assert files
    for path in files:
        assert foreign_imports(path.read_text()) == set(), path.name
