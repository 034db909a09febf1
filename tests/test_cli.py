"""End-to-end tests of the command-line surface."""

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import webkup
from webkup import cache, cli, dualcan, growth
from webkup.cli import main
from webkup.qlaurent import LaurentPoly, add_scaled, qint
from webkup.oracles import invariant_dim
from webkup.webs import LadderWeb, Slice, close, format_states, parse_states, plain_boundaries

ROOT = Path(__file__).resolve().parent.parent


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse usage failures
            code = exc.code
    return code, out.getvalue(), err.getvalue()


CIRCLE = LadderWeb((0, 3), (Slice("+", 1), Slice("-", 1)))
TRIPOD = LadderWeb((3, 0, 0), (Slice("-", 1), Slice("-", 2), Slice("-", 1)))


@pytest.fixture
def circle_file(tmp_path):
    p = tmp_path / "circle.json"
    p.write_text(json.dumps(CIRCLE.to_json()))
    return str(p)


def test_enumerate_single_web():
    code, out, _ = run("enumerate", "+-")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 1
    key, blob = lines[0].split(" ", 1)
    assert key == "1m"
    assert LadderWeb.from_json(json.loads(blob)) == LadderWeb((0, 3), (Slice("+", 1),))


def test_enumerate_json_payload():
    code, out, _ = run("enumerate", "+++---", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["signs"] == "+++---"
    assert len(doc["webs"]) == 6


def test_eval_circle(circle_file):
    code, out, _ = run("eval", "--closed", circle_file)
    assert (code, out.strip()) == (0, "q^2 + 1 + q^-2")
    code, out, _ = run("eval", "--closed", circle_file, "--q1")
    assert (code, out.strip()) == (0, "3")
    code, out, _ = run("eval", "--closed", circle_file, "--route", "rewrite")
    assert (code, out.strip()) == (0, "q^2 + 1 + q^-2")
    code, out, _ = run("eval", "--closed", circle_file, "--route", "both")
    assert (code, out.strip()) == (0, "q^2 + 1 + q^-2")


def test_eval_rejects_open_web(tmp_path):
    p = tmp_path / "open.json"
    p.write_text(json.dumps(LadderWeb((0, 3), (Slice("+", 1),)).to_json()))
    code, _, err = run("eval", "--closed", str(p))
    assert code == 2
    assert "closed" in err


def test_eval_missing_file():
    code, _, err = run("eval", "--closed", "/does/not/exist.json")
    assert code == 2 and "cannot read" in err


def _circle_doc(sign="-", index=1, power=1, bottom=(0, 3)):
    """The circle web's JSON with one field replaced."""
    slices = [{"sign": "+", "index": index, "power": power}, {"sign": sign, "index": 1}]
    return {"bottom_weight": list(bottom), "slices": slices}


@pytest.mark.parametrize(
    "doc",
    [
        _circle_doc(sign=""),
        _circle_doc(sign="+-"),
        _circle_doc(power=1.9),
        _circle_doc(index=True),
        _circle_doc(bottom=[0, "3"]),
        _circle_doc(bottom=[0, 3.7]),
    ],
    ids=["empty-sign", "compound-sign", "float-power", "bool-index", "str-weight", "float-weight"],
)
def test_eval_rejects_a_malformed_web(tmp_path, doc):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    code, out, err = run("eval", "--closed", str(p), "--route", "both")
    assert (code, out) == (2, "")
    assert "is not a ladder web" in err


def test_eval_rejects_a_file_nested_too_deep_to_parse(tmp_path):
    p = tmp_path / "deep.json"
    p.write_text("[" * 100_000)
    code, out, err = run("eval", "--closed", str(p))
    assert (code, out) == (2, "")
    assert "is not a ladder web" in err


@pytest.mark.parametrize("argv", [("eval", "--closed"), ("expand",)])
def test_a_file_that_is_not_utf8_is_a_usage_error(tmp_path, argv):
    p = tmp_path / "bytes.json"
    p.write_bytes(b'{"bottom": [3, 0], "slices": "\xff\xfe"}')
    code, out, err = run(*argv, str(p))
    assert (code, out) == (2, "")
    assert f"cannot read {p}" in err and "utf-8" in err


def test_expand_web_file(tmp_path):
    p = tmp_path / "tripod.json"
    p.write_text(json.dumps(TRIPOD.to_json()))
    code, out, _ = run("expand", str(p))
    assert code == 0
    doc = json.loads(out)
    assert doc["10m"] == "1"
    assert doc["m01"] == "q^-3"
    assert set(doc) == {"10m", "1m0", "01m", "0m1", "m01", "m10"}
    code, out, _ = run("expand", str(p), "--q1")
    assert json.loads(out)["m10"] == 1


def test_expand_boundary_matrix():
    code, out, _ = run("expand", "--boundary", "+-")
    assert code == 0
    doc = json.loads(out)
    assert doc == {"1m": {"1m": "1", "00": "q^-1", "m1": "q^-2"}}


@pytest.mark.parametrize("flags", [(), ("--q1",)])
def test_expand_boundary_minus_minus(flags):
    """The boundary -- has no invariant web, as `enumerate -- --` shows."""
    code, out, err = run("expand", *flags, "--boundary=--")
    assert (code, out, err) == (0, "{}\n", "")


def test_expand_wants_exactly_one_input(circle_file):
    code, _, err = run("expand")
    assert code == 2
    code, _, err = run("expand", circle_file, "--boundary", "+-")
    assert code == 2


def test_dualcan_output():
    code, out, _ = run("dualcan", "+-")
    assert code == 0
    doc = json.loads(out)
    assert doc["elements"]["1m"] == {"1m": "1", "00": "q^-1", "m1": "q^-2"}
    assert doc["d_matrix"] == {}


def test_howe_verify():
    code, out, _ = run("howe-verify", "--k", "3")
    assert code == 0
    assert "536 relation instances hold: PASS" in out


def test_center_dim():
    assert run("center-dim", "+++") == (0, "6\n", "")
    assert run("center-dim", "+-")[1] == "3\n"


def test_blocks():
    code, out, _ = run("blocks", "+-")
    doc = json.loads(out)
    assert doc["multiplicities"] == {"1m": 1, "00": 1, "m1": 1}
    assert doc["sum_of_squares"] == 3


def test_tableau():
    code, out, _ = run("tableau", "++-+--", "1100mm")
    assert code == 0
    doc = json.loads(out)
    assert doc["columns"] == {"1": [1, 2, 3], "0": [4, 5, 6], "-1": [3, 5, 6]}
    assert doc["rows"] == [[1, 4, 3], [2, 5, 5], [3, 6, 6]]
    assert doc["balanced"] and not doc["semistandard"]


def test_tableau_unbalanced_has_no_rows():
    code, out, _ = run("tableau", "+-", "11")
    doc = json.loads(out)
    assert doc["rows"] is None and not doc["balanced"]


def test_inverse_growth_json_and_pretty():
    code, out, _ = run("inverse-growth", "+++", "10m")
    assert code == 0
    word = json.loads(out)
    assert word == [
        {"sign": "-", "index": 1, "power": 1},
        {"sign": "-", "index": 2, "power": 1},
        {"sign": "-", "index": 1, "power": 1},
    ]
    code, out, _ = run("inverse-growth", "+++", "10m", "--pretty")
    assert out.strip() == "1_(1,1,1) E_{-1} E_{-2} E_{-1} 1_(3,0,0)"


def test_inverse_growth_rejects_non_dominant():
    code, _, err = run("inverse-growth", "+++", "m01")
    assert code == 2 and "not dominant" in err


def test_search_counterexample_small():
    code, out, _ = run("search-counterexample", "--max-strands", "3",
                       "--budget-s", "30")
    assert code == 0
    assert "no counterexample found" in out
    assert "complete" in out


def test_render_to_file(tmp_path):
    out_path = tmp_path / "w.svg"
    code, _, _ = run("render", "+++", "10m", "-o", str(out_path))
    assert code == 0
    svg = out_path.read_text()
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
    assert 'class="fl"' in svg  # canonical flow overlay present
    code, _, _ = run("render", "+++", "10m", "-o", str(out_path), "--no-flow")
    assert 'class="fl"' not in out_path.read_text()


def test_render_to_an_unwritable_path(tmp_path):
    out_path = tmp_path / "missing" / "x.svg"
    code, out, err = run("render", "+-", "1m", "-o", str(out_path))
    assert code == 2 and out == ""
    assert f"cannot write {out_path}" in err


def test_render_web_file(tmp_path, circle_file):
    code, out, _ = run("render", "--web", circle_file)
    assert code == 0 and out.startswith("<svg")


def test_render_usage_errors():
    assert run("render")[0] == 2
    assert run("render", "+++")[0] == 2  # boundary without state


def test_bad_sign_and_state_strings():
    assert run("center-dim", "+*-")[0] == 2
    assert run("tableau", "+-", "12")[0] == 2
    assert run("nonsense")[0] == 2


def test_tableau_rejects_wrong_state_length():
    code, out, err = run("tableau", "+-", "1")
    assert code == 2 and out == ""
    assert "visible strands" in err


def test_howe_verify_rejects_vacuous_runs():
    for k in ("-1", "0", "1", "2", "4"):
        code, out, err = run("howe-verify", "--k", k)
        assert code == 2 and out == ""
        assert "no relation instance" in err


def test_search_rejects_vacuous_runs():
    for n in ("-3", "0", "1"):
        code, out, err = run("search-counterexample", "--max-strands", n)
        assert code == 2 and out == ""
        assert "no boundary to search" in err


def test_search_from_min_strands_checks_only_those_boundaries():
    code, out, err = run("search-counterexample", "--min-strands", "4", "--max-strands", "4",
                         "--budget-s", "30")
    assert (code, err) == (0, "")
    webs = sum(invariant_dim(signs) for signs in plain_boundaries(4, 4))
    assert webs == 12
    assert re.search(rf"^complete: {webs} webs checked, last boundary ----, ", out, re.M)


@pytest.mark.parametrize("low", ["1", "0", "5"])
def test_search_rejects_min_strands_out_of_range(low):
    code, out, err = run("search-counterexample", "--min-strands", low, "--max-strands", "4")
    assert code == 2 and out == ""
    assert f"--min-strands must be from 2 to --max-strands, got {low}" in err


def test_selftest_subset_and_bad_only():
    code, out, _ = run("selftest", "--only", "2")
    assert code == 0
    assert out.count("AC02 PASS") == 1
    assert run("selftest", "--only", "99")[0] == 2
    assert run("selftest", "--only", "two")[0] == 2


def test_selftest_rejects_empty_only():
    code, out, err = run("selftest", "--only", "")
    assert code == 2 and out == ""
    assert "--only" in err


@pytest.mark.parametrize("budget", ["abc", "nan", "", "-1"])
def test_search_rejects_bad_budget_setting(monkeypatch, budget):
    monkeypatch.setenv("WEBKUP_SEARCH_BUDGET", budget)
    code, out, err = run("search-counterexample", "--max-strands", "3")
    assert code == 2 and out == ""
    assert "WEBKUP_SEARCH_BUDGET" in err


def test_search_rejects_nan_budget_flag():
    code, out, err = run("search-counterexample", "--max-strands", "3", "--budget-s", "nan")
    assert code == 2 and out == ""
    assert "--budget-s" in err


def test_search_rejects_negative_budget_flag():
    code, out, err = run("search-counterexample", "--max-strands", "3", "--budget-s", "-1")
    assert code == 2 and out == ""
    assert "--budget-s" in err


def test_selftest_bad_budget_setting_is_a_usage_error(monkeypatch):
    monkeypatch.setenv("WEBKUP_SEARCH_BUDGET", "abc")
    code, out, err = run("selftest", "--only", "12")
    assert code == 2 and out == ""
    assert "WEBKUP_SEARCH_BUDGET" in err


def test_selftest_negative_budget_setting_is_a_usage_error(monkeypatch):
    monkeypatch.setenv("WEBKUP_SEARCH_BUDGET", "-1")
    code, out, err = run("selftest", "--only", "12")
    assert code == 2 and out == ""
    assert "WEBKUP_SEARCH_BUDGET" in err


def test_cache_dir_that_is_a_file_is_a_usage_error(tmp_path, monkeypatch):
    blocker = tmp_path / "cache"
    blocker.write_text("")
    monkeypatch.setenv("WEBKUP_CACHE", str(blocker))
    code, out, err = run("enumerate", "+-", "--cache")
    assert code == 2 and out == ""
    assert str(blocker) in err


def test_cache_flag_byte_identical(tmp_path, monkeypatch):
    monkeypatch.setenv("WEBKUP_CACHE", str(tmp_path))
    first = run("dualcan", "++--", "--cache")
    again = run("dualcan", "++--", "--cache")
    plain = run("dualcan", "++--")
    assert first == again == plain
    assert (tmp_path / "dualcan" / "S_++--.json").exists()


@pytest.mark.parametrize("corrupt", [b"[1, 2]", b"null", b"\xff\xfe", b"{", pytest.param(b"[" * 100_000, id="nested")])
def test_cache_corrupt_file_is_recomputed(tmp_path, monkeypatch, corrupt):
    monkeypatch.setenv("WEBKUP_CACHE", str(tmp_path))
    path = tmp_path / "blocks" / "S_++--.json"
    path.parent.mkdir()
    path.write_bytes(corrupt)
    plain = run("blocks", "++--")
    assert plain[0] == 0
    assert run("blocks", "++--", "--cache") == plain
    assert run("blocks", "++--", "--cache") == plain


def test_cache_file_of_another_boundary_or_kind_is_recomputed(tmp_path, monkeypatch):
    monkeypatch.setenv("WEBKUP_CACHE", str(tmp_path))
    assert run("blocks", "+-+-", "--cache")[0] == 0
    stored = (tmp_path / "blocks" / "S_+-+-.json").read_bytes()
    (tmp_path / "blocks" / "S_++--.json").write_bytes(stored)
    (tmp_path / "dualcan").mkdir()
    (tmp_path / "dualcan" / "S_+-+-.json").write_bytes(stored)
    for argv in (("blocks", "++--"), ("dualcan", "--q1", "+-+-")):
        plain = run(*argv)
        assert plain[0] == 0
        assert run(*argv, "--cache") == plain


@pytest.mark.parametrize(
    "argv",
    [
        ("enumerate", "--json", "++-+--"),
        ("expand", "--boundary=++-+--"),
        ("expand", "--q1", "--boundary=++-+--"),
        ("dualcan", "+-+-+-"),
        ("dualcan", "--q1", "+-+-+-"),
        ("blocks", "+-+-+-"),
        ("tableau", "++-+--", "1100mm"),
        ("tableau", "+-", "11"),  # "rows": null
        ("inverse-growth", "+++", "10m"),  # a list
        ("expand", "--boundary=--"),  # {}
    ],
)
def test_every_json_shape_is_json_dumps_sorted_and_indented(argv):
    code, out, err = run(*argv)
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert out == json.dumps(doc, sort_keys=True, indent=2) + "\n"
    for indent in (1, 2):
        assert cache.dumps(doc, indent) == json.dumps(doc, sort_keys=True, indent=indent)


@pytest.mark.parametrize("argv", [("expand", "--boundary=+-+-++--"), ("dualcan", "+-+-++--")])
def test_q1_reads_each_coefficient_at_one(tmp_path, monkeypatch, argv):
    """--q1 gives every entry's text parsed and read at q = 1, computed,
    stored cold and served warm alike, and parses each distinct text of a
    table once."""
    monkeypatch.setenv("WEBKUP_CACHE", str(tmp_path))
    code, out, _ = run(*argv)
    doc = json.loads(out)
    at_one = lambda table: {
        J: {k: LaurentPoly.parse(v).eval_at_one() for k, v in row.items()} for J, row in table.items()
    }
    want = at_one(doc) if argv[0] == "expand" else {part: at_one(t) for part, t in doc.items()}
    expected = (0, json.dumps(want, sort_keys=True, indent=2) + "\n", "")
    parse, parsed = LaurentPoly.parse, []
    monkeypatch.setattr(LaurentPoly, "parse", lambda text: parsed.append(text) or parse(text))
    for flags in (("--q1",), ("--q1", "--cache"), ("--q1", "--cache")):
        parsed.clear()
        assert run(*argv, *flags) == expected
        assert len(parsed) == len(set(parsed)) < sum(len(row) for row in doc.get("elements", doc).values())


def _load_workloads():
    """perfbench/workloads.py loaded as a module: the benchmark's command
    lines, boundaries and reference digests."""
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


WORKLOADS = _load_workloads()
ARTIFACT_DIGESTS = WORKLOADS.load_reference()["artifacts"]


def _clear_every_cache():
    """Empty every lru cache of the loaded webkup modules, as a fresh
    process starts."""
    for name, module in list(sys.modules.items()):
        if name.startswith("webkup."):
            for obj in vars(module).values():
                if hasattr(obj, "cache_clear"):
                    obj.cache_clear()


@pytest.mark.parametrize(
    "signs", ["+++++-----", "+-++--++--", *WORKLOADS.candidates(6, 3)]
)
def test_artifact_bytes_match_the_reference(tmp_path, monkeypatch, signs):
    """The four artifact commands as the benchmark runs them: cold stdout
    has the reference digest, and warm stdout, served from the disk cache
    with nothing computed, equals it."""
    monkeypatch.setenv("WEBKUP_CACHE", str(tmp_path))
    cold = {}
    _clear_every_cache()
    for kind in WORKLOADS.KINDS:
        code, out, err = run(*WORKLOADS.cli_args(kind, signs))
        assert (code, err) == (0, ""), kind
        cold[kind] = out
        assert hashlib.sha256(out.encode()).hexdigest() == ARTIFACT_DIGESTS[signs][kind], kind
    _clear_every_cache()
    for kind in WORKLOADS.KINDS:
        assert run(*WORKLOADS.cli_args(kind, signs)) == (0, cold[kind], ""), kind
    assert growth.web_space.cache_info().currsize == 0
    assert dualcan.dual_canonical_basis.cache_info().currsize == 0


def test_importing_the_cli_leaves_out_what_no_artifact_command_runs():
    lazy = {"acceptance", "gornik", "howe", "oracles", "planar", "render"}
    assert lazy <= {m.name for m in pkgutil.iter_modules(webkup.__path__)}
    code = "import json, sys, webkup.cli; print(json.dumps(sorted(sys.modules)))"
    path = [str(ROOT / "src"), *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    loaded = set(json.loads(done.stdout))
    assert "webkup.cli" in loaded
    assert not {f"webkup.{m}" for m in lazy} & loaded


@pytest.fixture
def fresh_spaces():
    """Cold web spaces, as a fresh process starts, and none left behind."""
    growth.web_space.cache_clear()
    dualcan.dual_canonical_basis.cache_clear()
    yield
    growth.web_space.cache_clear()
    dualcan.dual_canonical_basis.cache_clear()


class _PeakDict(dict):
    """A memo that records the most entries it ever held."""

    peak = 0

    def __setitem__(self, key, value):
        super().__setitem__(key, value)
        self.peak = max(self.peak, len(self))


EXPANSION_READERS = (cli.blocks_payload, cli.expansions_payload, cli.dualcan_payload)


def test_cold_artifacts_hold_one_expansion_at_a_time(fresh_spaces, monkeypatch):
    """On a boundary without a hit, each builder that reads expansions
    holds at most one expansion and one element it made, and leaves a
    fresh space's memos empty.  On a space expanded beforehand, as
    selftest's criterion 3 leaves its spaces, they read the memos, compute
    no expansion and keep every entry, the same objects, with the same
    output."""
    signs = "+-++--++--"
    space = growth.web_space(signs)
    cold = {}
    for build in EXPANSION_READERS:
        space.expanded, space.elements = _PeakDict(), _PeakDict()
        cold[build] = build(signs)
        assert (space.expanded, space.elements) == ({}, {}), build.__name__
        assert space.expanded.peak == 1, build.__name__
        assert space.elements.peak == (1 if build is cli.dualcan_payload else 0), build.__name__
    growth.web_space.cache_clear()
    space = growth.web_space(signs)
    expanded = dict(space.expansions)
    elements = {J: dualcan.element(space, J) for J in space.basis}

    def no_expansion(*args):
        raise AssertionError("an expansion the memo holds was built again")

    monkeypatch.setattr(growth, "expansion", no_expansion)
    for build in EXPANSION_READERS:
        assert build(signs) == cold[build], build.__name__
        for memo, before in ((space.expanded, expanded), (space.elements, elements)):
            assert memo.keys() == before.keys(), build.__name__
            assert all(memo[J] is before[J] for J in before), build.__name__


def test_dualcan_rows_of_planted_corrections_match_the_full_basis(fresh_spaces, monkeypatch):
    """No web through 8 strands needs a correction, so two are planted in
    the expansions of +++---: e_K + [2] e_L at K, then e_J + [2] (that)
    at J.  The cold payload builds J's element, which builds K's and L's
    below it; the scan drops each once past it, and the text rows are
    still those of dual_canonical_basis, non-empty at J and K."""
    signs = "+++---"
    J, K, L = (parse_states(s) for s in ("111mmm", "1100mm", "10m10m"))
    real = growth.WebSpace(signs)
    planted = {s: dict(real.expansion(s)) for s in real.basis}
    add_scaled(planted[K], qint(2), planted[L])
    add_scaled(planted[J], qint(2), planted[K])
    by_web = {real.basis[s]: vec for s, vec in planted.items()}
    monkeypatch.setattr(growth, "expansion", lambda web, states_of: by_web[web])
    payload = cli.dualcan_payload(signs)
    space = growth.web_space(signs)
    assert (space.expanded, space.elements) == ({}, {})

    def text(vec):
        return {format_states(k): str(v) for k, v in vec.items()}

    db = dualcan.dual_canonical_basis(signs)
    assert payload == {
        "elements": {format_states(s): text(vec) for s, (vec, _) in db.items()},
        "d_matrix": {format_states(s): text(row) for s, (_, row) in db.items() if row},
    }
    assert payload["d_matrix"].keys() == {format_states(J), format_states(K)}
