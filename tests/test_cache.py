"""Workspace cache: versioning, atomicity, byte-identical hits."""

import json
import os
from pathlib import Path

import pytest

import webkup
from webkup import flows
from webkup.cache import CACHE_VERSION, Workspace, default_cache_dir


def test_default_dir_env_override(monkeypatch, tmp_path):
    monkeypatch.setenv("WEBKUP_CACHE", str(tmp_path / "alt"))
    assert default_cache_dir() == tmp_path / "alt"
    assert Workspace.from_env().root == tmp_path / "alt"
    monkeypatch.delenv("WEBKUP_CACHE")
    assert default_cache_dir().name == "webkup"


def test_store_load_roundtrip(tmp_path):
    ws = Workspace(tmp_path)
    payload = {"multiplicities": {"1m": 1}, "sum_of_squares": 1}
    path = ws.store("blocks", "+-", payload)
    assert path.exists()
    assert ws.load("blocks", "+-") == payload


def test_miss_on_absent_and_unknown_kind(tmp_path):
    ws = Workspace(tmp_path)
    assert ws.load("blocks", "+-") is None
    with pytest.raises(ValueError):
        ws.artifact_path("bogus", "+-")


def test_version_stamp_and_stale_miss(tmp_path, monkeypatch):
    ws = Workspace(tmp_path)
    ws.store("basis", "+-", {"a": 1})
    path = ws.artifact_path("basis", "+-")
    doc = json.loads(path.read_text())
    assert doc["version"] == CACHE_VERSION
    assert doc["signs"] == "+-"
    doc["version"] = CACHE_VERSION + 1
    path.write_text(json.dumps(doc))
    assert ws.load("basis", "+-") is None
    # a changed move weight, read back through the transition tables, or a
    # changed package version makes every artifact stale
    real = flows.move_weight
    cap = ("-", flows.FULL, frozenset(), 1)
    for module, name, value in (
        (flows, "move_weight", lambda *move: real(*move) + (move == cap)),
        (webkup, "__version__", webkup.__version__ + ".dev"),
    ):
        ws.store("basis", "+-", {"a": 1})
        assert ws.load("basis", "+-") == {"a": 1}
        with monkeypatch.context() as m:
            m.setattr(module, name, value)
            flows.transitions.cache_clear()
            assert ws.load("basis", "+-") is None
            assert ws.fetch("basis", "+-", lambda: {"a": 2}) == {"a": 2}
            assert ws.load("basis", "+-") == {"a": 2}
        flows.transitions.cache_clear()
        assert ws.load("basis", "+-") is None


def test_corrupted_payload_misses(tmp_path):
    ws = Workspace(tmp_path)
    ws.store("basis", "+-", {"a": 1})
    path = ws.artifact_path("basis", "+-")
    doc = json.loads(path.read_text())
    doc["payload"] = {"a": 2}  # hash no longer matches
    path.write_text(json.dumps(doc))
    assert ws.load("basis", "+-") is None


@pytest.mark.parametrize("kind, signs", [("blocks", "++--"), ("dualcan", "+-+-")])
def test_file_stored_for_another_kind_or_boundary_misses(tmp_path, kind, signs):
    ws = Workspace(tmp_path)
    stored = ws.store("blocks", "+-+-", {"multiplicities": {"1m1m": 2}})
    path = ws.artifact_path(kind, signs)
    path.parent.mkdir(exist_ok=True)
    path.write_bytes(stored.read_bytes())
    assert ws.load(kind, signs) is None
    assert ws.fetch(kind, signs, lambda: {"a": 1}) == {"a": 1}
    assert ws.load(kind, signs) == {"a": 1}


def test_rewrites_are_byte_identical(tmp_path):
    ws = Workspace(tmp_path)
    payload = {"webs": {"1m": {"bottom_weight": [0, 3], "slices": []}}}
    path = ws.store("basis", "+-", payload)
    first = path.read_bytes()
    ws.store("basis", "+-", payload)
    assert path.read_bytes() == first


def test_no_temp_litter(tmp_path):
    ws = Workspace(tmp_path)
    ws.store("dualcan", "++--", {"elements": {}})
    leftovers = [p for p in (tmp_path / "dualcan").iterdir() if p.suffix == ".tmp"]
    assert leftovers == []


def test_fetch_computes_once(tmp_path):
    ws = Workspace(tmp_path)
    calls = []

    def compute():
        calls.append(1)
        return {"n": 42}

    assert ws.fetch("blocks", "+++", compute) == {"n": 42}
    assert ws.fetch("blocks", "+++", compute) == {"n": 42}
    assert len(calls) == 1


@pytest.mark.parametrize("text", ["[1, 2]", "null", "3", '"payload"', "{", pytest.param("[" * 100_000, id="nested")])
def test_file_that_is_not_a_json_object_misses(tmp_path, text):
    ws = Workspace(tmp_path)
    path = ws.artifact_path("blocks", "+-")
    path.parent.mkdir(parents=True)
    path.write_text(text)
    assert ws.load("blocks", "+-") is None


def test_non_utf8_file_misses(tmp_path):
    ws = Workspace(tmp_path)
    path = ws.artifact_path("blocks", "+-")
    path.parent.mkdir(parents=True)
    path.write_bytes(b"\xff\xfe")
    assert ws.load("blocks", "+-") is None


def test_fetch_recomputes_over_corrupt_file(tmp_path):
    ws = Workspace(tmp_path)
    path = ws.artifact_path("blocks", "+-")
    path.parent.mkdir(parents=True)
    path.write_text("[1, 2]")
    assert ws.fetch("blocks", "+-", lambda: {"n": 1}) == {"n": 1}
    assert ws.load("blocks", "+-") == {"n": 1}
