"""Workspace cache: versioning, atomicity, byte-identical hits."""

import json

import pytest
from hypothesis import given, settings, strategies as st

import webkup
from webkup import cache, cli, flows
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


# strings that need escapes or are not ASCII, beside whatever text() draws
_TEXT = st.text(max_size=8) | st.sampled_from(['"', "\\", "\n", "\t", "\x00", "é", "\u2028", "😀", ",\n "])
_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | _TEXT


def _nest(children):
    return (
        st.lists(children, max_size=4)
        | st.dictionaries(_TEXT, children, max_size=4)
        | st.lists(st.dictionaries(_TEXT, children, max_size=3), max_size=3)
    )


# empty dicts and lists can appear at every depth
_JSON = st.recursive(_SCALARS, _nest, max_leaves=40)


@settings(max_examples=300, deadline=None)
@given(_JSON)
def test_dumps_is_json_dumps_sorted_and_indented(obj):
    for indent in (1, 2):
        assert cache.dumps(obj, indent) == json.dumps(obj, sort_keys=True, indent=indent)


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(st.integers() | st.booleans() | st.none(), _JSON, max_size=4),
       st.dictionaries(st.floats(allow_nan=False), _SCALARS, max_size=4))
def test_dumps_writes_non_string_keys_as_json_dumps_does(outer, inner):
    """Keys that are not strings come out in quotes at every level, as
    json.dumps writes them (1 as "1", None as "null"), never bare."""
    for obj in (outer, inner, {"x": inner}, [outer]):
        try:
            want = json.dumps(obj, sort_keys=True, indent=2)
        except TypeError:  # keys of mixed types do not sort
            with pytest.raises(TypeError):
                cache.dumps(obj, 2)
            continue
        assert cache.dumps(obj, 2) == want
    assert cache.dumps({1: [0], 2: {}}, 1) == '{\n "1": [\n  0\n ],\n "2": {}\n}'
    assert cache.dumps({None: {True: 0}}, 1) == '{\n "null": {\n  "true": 0\n }\n}'


@pytest.mark.parametrize("obj", [{(1, 2): 0}, {(1, 2): [0]}, {"a": {b"k": 1}}])
def test_dumps_rejects_the_keys_json_dumps_rejects(obj):
    with pytest.raises(TypeError):
        json.dumps(obj, sort_keys=True, indent=2)
    with pytest.raises(TypeError):
        cache.dumps(obj, 2)


@pytest.mark.parametrize(
    "kind, signs, payload",
    [
        ("basis", "++-+--", cli.basis_payload),
        ("expansions", "++-+--", cli.expansions_payload),
        ("dualcan", "+-+-+-", cli.dualcan_payload),
        ("blocks", "+-+-+-", cli.blocks_payload),
    ],
)
def test_stored_file_is_json_dumps_indented_by_one(tmp_path, kind, signs, payload):
    """The cache file format: the stored document as json.dumps writes it
    with sorted keys and an indent of 1, then a newline."""
    path = Workspace(tmp_path).store(kind, signs, payload(signs))
    text = path.read_text(encoding="utf-8")
    doc = json.loads(text)
    assert doc["payload"] == payload(signs)
    assert text == json.dumps(doc, sort_keys=True, indent=1) + "\n"
