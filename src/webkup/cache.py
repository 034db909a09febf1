"""Versioned on-disk artifacts, one JSON file per boundary and kind.

Artifacts are plain JSON so regressions diff cleanly.  Every file
carries the schema version, a stamp of the package version and move
weights it was computed with, and a content hash of its payload; a stale
version or stamp is treated as a miss.  Writes go to a temp file in the
target directory and are renamed into place, so readers never see a
partial file and reruns are byte-identical.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import NamedTuple

import webkup

from . import flows

CACHE_VERSION = 1

KINDS = ("basis", "expansions", "dualcan", "blocks")


def default_cache_dir() -> Path:
    env = os.environ.get("WEBKUP_CACHE")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "webkup"


def _canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _digest(text: str) -> str:
    """SHA-256 of text as hex.  hashlib maps OpenSSL, so only a process
    that reads or writes the cache imports it."""
    import hashlib

    return hashlib.sha256(text.encode()).hexdigest()


_CONTAINERS = (dict, list, tuple)


def dumps(obj, indent: int) -> str:
    """Exactly json.dumps(obj, sort_keys=True, indent=indent), built so
    that the C encoder writes every innermost container (one holding no
    dict or list) in one call; json.dumps with an indent would run the
    pure-Python encoder over every entry.  Keys that are not strings are
    written as json.dumps writes them, and keys it rejects raise the same
    TypeError."""
    return _dumps(obj, "\n", " " * indent)


def _dumps(obj, newline: str, step: str) -> str:
    """obj written at the indentation that `newline` carries; its entries
    go one `step` deeper."""
    if not isinstance(obj, _CONTAINERS) or not obj:
        return json.dumps(obj)
    inner = newline + step
    values = obj.values() if isinstance(obj, dict) else obj
    if not any(isinstance(v, _CONTAINERS) for v in values):
        # entries are scalars: the encoder writes them and their
        # separators, and only the brackets need their own lines
        text = json.dumps(obj, sort_keys=True, separators=("," + inner, ": "))
        return text[0] + inner + text[1:-1] + newline + text[-1]
    if isinstance(obj, dict):
        entries = [f"{_key(k)}: {_dumps(v, inner, step)}" for k, v in sorted(obj.items())]
        brackets = "{}"
    else:
        entries = [_dumps(v, inner, step) for v in obj]
        brackets = "[]"
    return brackets[0] + inner + ("," + inner).join(entries) + newline + brackets[1]


def _key(k) -> str:
    """A dict key as json.dumps writes it: a string quoted and escaped, a
    number, bool or None as its JSON text in quotes."""
    if isinstance(k, str):
        return json.dumps(k)
    if k is None or isinstance(k, (int, float)):
        return json.dumps(json.dumps(k))
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(k).__name__}")


def _code_stamp() -> str:
    """Digest of the package version and the single-move weights of both
    slice kinds, which every artifact (growth rules included) is derived
    from."""
    weights = [
        (sign, sorted(A), sorted(B), x, w)
        for sign in "+-"
        for (A, B), moves in flows.transitions(sign, 1).items()
        for (x,), _, _, w in moves
    ]
    return _digest(repr((webkup.__version__, weights)))


class Workspace(NamedTuple):
    root: Path

    @classmethod
    def from_env(cls) -> "Workspace":
        return cls(default_cache_dir())

    def artifact_path(self, kind: str, signs: str) -> Path:
        if kind not in KINDS:
            raise ValueError(f"unknown artifact kind {kind!r}")
        # sign characters are shell-safe but '-' leading a filename is not
        return self.root / kind / f"S_{signs}.json"

    def load(self, kind: str, signs: str):
        """Payload, or None on a miss, a stale schema version or code
        stamp, a file stored for another kind or boundary, or a file that
        is not a JSON object (unreadable, not UTF-8, corrupt, nested too
        deep to parse)."""
        path = self.artifact_path(kind, signs)
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError):
            return None
        if not isinstance(doc, dict) or doc.get("version") != CACHE_VERSION:
            return None
        if doc.get("kind") != kind or doc.get("signs") != signs:
            return None
        if doc.get("stamp") != _code_stamp():
            return None
        payload = doc.get("payload")
        if doc.get("sha256") != _digest(_canonical(payload)):
            return None
        return payload

    def store(self, kind: str, signs: str, payload) -> Path:
        path = self.artifact_path(kind, signs)
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "version": CACHE_VERSION,
            "kind": kind,
            "signs": signs,
            "stamp": _code_stamp(),
            "sha256": _digest(_canonical(payload)),
            "payload": payload,
        }
        text = dumps(doc, indent=1) + "\n"
        import tempfile

        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        return path

    def fetch(self, kind: str, signs: str, compute):
        """Cached payload if fresh, else compute, store, and return it."""
        hit = self.load(kind, signs)
        if hit is not None:
            return hit
        payload = compute()
        self.store(kind, signs, payload)
        return payload
