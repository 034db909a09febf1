"""Every function and class of the library is named by the library or its
scripts: no library code is kept alive only by its tests.  No module of
the library, its scripts or its tests imports a name it never reads."""

import ast
import re
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted((ROOT / "src" / "webkup").glob("*.py"))
READERS = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "scripts").rglob("*.py"))
IMPORTERS = LIBRARY + sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
# dunders are called by Python; criterion_<k> is bound by @criterion and read from CRITERIA
EXEMPT = re.compile(r"__\w+__|criterion_\d+")


def _uses() -> dict:
    """Identifier -> [(file, line)] of every name and attribute read or
    bound in the readers, f-strings included; imports, strings and
    comments do not count."""
    uses = defaultdict(list)
    for path in READERS:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Name, ast.Attribute)):
                name = node.id if isinstance(node, ast.Name) else node.attr
                uses[name].append((path, node.lineno))
    return uses


def test_every_def_and_class_is_named_outside_its_definition():
    uses = _uses()
    unused = []
    for path in LIBRARY:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if EXEMPT.fullmatch(node.name):
                continue
            inside = lambda use: use[0] == path and node.lineno <= use[1] <= node.end_lineno
            if all(inside(use) for use in uses[node.name]):
                unused.append(f"{path.name}:{node.lineno} {node.name}")
    assert not unused, f"named only by their own definitions: {unused}"


def unused_imports(source: str) -> set[str]:
    """Names bound by the imports of a module that it never reads as a
    name; `from __future__` imports and the names of its __all__ are
    exempt."""
    tree = ast.parse(source)
    imported, exported = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - read - exported


def test_checker_flags_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os, os.path, sys\n"
        "from json import dumps as d, loads\n"
        "__all__ = ['loads']\n"
        "def f():\n"
        "    import re\n"
        "    return sys.argv\n"
    )
    assert unused_imports(source) == {"os", "d", "re"}


def test_no_module_imports_a_name_it_never_reads():
    unused = [
        f"{path.relative_to(ROOT)} {name}"
        for path in IMPORTERS
        for name in sorted(unused_imports(path.read_text()))
    ]
    assert IMPORTERS and not unused, f"imported and never read: {unused}"
