"""Every function and class of the library is named by the library or its
scripts: no library code is kept alive only by its tests."""

import ast
import re
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted((ROOT / "src" / "webkup").glob("*.py"))
READERS = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "scripts").rglob("*.py"))
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
