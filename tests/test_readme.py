"""README's figures about the tree are the tree's."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _lines(directory: str) -> int:
    return sum(path.read_text().count("\n") for path in (ROOT / directory).glob("*.py"))


def test_readme_line_counts_are_current():
    text = " ".join((ROOT / "README.md").read_text().split())
    found = re.search(r"The library is ([\d,]+) lines in `src/webkup` and the scripts ([\d,]+) lines", text)
    assert found, "README no longer states the line counts"
    library, scripts = (int(n.replace(",", "")) for n in found.groups())
    assert (library, scripts) == (_lines("src/webkup"), _lines("scripts"))
