"""Fast checks of the benchmark itself, on tiny inputs.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest

import run
import workloads as wl
from tracer import metric_specs

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY = wl.SIZES["tiny"]


def bench(workload: str, trace: int) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [sys.executable, str(wl.HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, timeout=170, cwd=run.ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.fixture
def runner():
    run.OUT.mkdir(exist_ok=True)
    return run.Runner(time.perf_counter() + run.RUN_LIMIT_S)


@pytest.fixture
def reference():
    return wl.load_reference()


def inputs(workload: str, seed: int = 3) -> dict:
    child = run.Runner(time.perf_counter() + 60).python(
        [run.CHILD, "setup", workload, str(seed), "tiny"], str(run.OUT))
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout)


def test_benchmark_json_matches_the_code():
    assert BENCHMARK["per_layer"] == metric_specs()
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(wl.WORKLOADS)


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    report, result = bench(workload, 0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert result["metrics"] == {
        name: {"value": result["metrics"][name]["value"], "unit": unit}
        for name, unit in run.END_TO_END.items()
    }
    assert all(m["value"] > 0 for m in result["metrics"].values())
    text = "\n".join(report)
    named = {"sweep": ["webs_per_s"],
             "artifacts": ["cold_cmd_p50_s", "cold_cmd_p90_s", "warm_cmd_p50_s",
                           "warm_cmd_p90_s"],
             "selftest": ["AC03"]}[workload]
    for name in ["setup_s", "wall_s", "pass_s", "peak_rss_mb", "failed_share", *named]:
        assert f"{name}:" in text, name


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_traced_run_prints_every_per_layer_metric(workload):
    report, result = bench(workload, 1)
    assert result["correct"], report
    assert list(result["metrics"]) == [s["name"] for s in metric_specs()]
    for spec in metric_specs():
        assert result["metrics"][spec["name"]]["unit"] == spec["unit"]
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert any("tracing overhead" in line for line in report)
    if workload == "sweep":
        assert values["flows.count_weight_zero_flows.calls"] == inputs("sweep")["expected_webs"]
        assert values["growth.dominant_states.calls"] > 0
        assert values["flows.expansion.calls"] == 0 and values["cache.load.calls"] == 0
    if workload == "artifacts":
        # Caches are cleared before each command, as in a fresh process:
        # every cold command misses web_space once, nothing hits.
        assert values["growth.web_space.misses"] == 4 * TINY["per_pass"]
        assert values["growth.web_space.hits"] == 0
        assert values["dualcan.dual_canonical_basis.misses"] == TINY["per_pass"]
        assert values["cache.store.calls"] == 4 * TINY["per_pass"]
        assert values["cache.load.hits"] == 4 * TINY["per_pass"]
        assert values["qlaurent.str.calls"] > 0 and values["cache.store.bytes"] > 0
    if workload == "selftest":
        for k in TINY["criteria"]:
            assert values[f"acceptance.AC{k:02d}.s"] > 0
        assert values["acceptance.AC01.s"] == 0


def test_a_second_pass_is_not_served_by_the_first(runner, reference):
    args = inputs("artifacts")
    seen = []
    spawn = runner.spawn

    def recording(argv, cache_dir):
        seen.append((cache_dir, sorted(p.name for p in Path(cache_dir).rglob("*.json"))))
        return spawn(argv, cache_dir)

    runner.spawn = recording
    first = run.one_pass(runner, "artifacts", args, 0, reference)
    second = run.one_pass(runner, "artifacts", args, 0, reference)
    assert first.failed == second.failed == 0
    n = len(wl.artifact_commands(first.detail["boundaries"]))
    # A fresh, empty cache directory for each pass; the first command of
    # each pass finds nothing cached.
    assert seen[0][0] != seen[n][0]
    assert seen[0][1] == [] and seen[n][1] == []


def test_child_environment_is_isolated(monkeypatch):
    monkeypatch.setenv("WEBKUP_SEARCH_BUDGET", "0")
    env = run.Runner(0).env("somewhere")
    assert "WEBKUP_SEARCH_BUDGET" not in env
    assert env["WEBKUP_CACHE"] == "somewhere"
    assert env["PYTHONPATH"] == str(run.ROOT / "src")


def test_times_are_rescaled_by_the_bursts_timed_during_the_child(runner):
    child = runner.python(["-c", "sum(range(3_000_000))"], str(run.OUT))
    assert child.returncode == 0 and child.cal_s != run.CAL_REF_S
    assert child.ref_s == pytest.approx(child.wall_s * run.CAL_REF_S / child.cal_s)
    untimed = run.Runner(runner.deadline, calibrate=False).python(["-c", "pass"], str(run.OUT))
    assert untimed.ref_s == pytest.approx(untimed.wall_s)


def test_truncated_sweep_fails(runner, reference):
    args = inputs("sweep")
    assert run.one_pass(runner, "sweep", args, 0, reference).failed == 0
    exhausted = dict(args, budget_s=0.0)
    result = run.one_pass(runner, "sweep", exhausted, 0, reference)
    assert result.failed == 1 and "did not complete" in result.errors[0]
    miscounted = dict(args, expected_webs=args["expected_webs"] + 1)
    assert run.one_pass(runner, "sweep", miscounted, 0, reference).failed == 1
    found = {"completed": True, "found": [["+-", [1, -1]]], "checked_webs": 1}
    assert wl.check_sweep(found, 1)


def test_corrupted_digest_fails(runner, reference):
    args = inputs("artifacts")
    signs = wl.pass_boundaries(args["order"], args["per_pass"], 0)[0]
    corrupt = json.loads(json.dumps(reference))
    corrupt["artifacts"][signs]["dualcan"] = "0" * 64
    result = run.one_pass(runner, "artifacts", args, 0, corrupt)
    assert result.failed == 1 and "differs from the reference" in result.errors[0]
    wrong_dim = dict(args, dims=dict(args["dims"], **{signs: args["dims"][signs] + 1}))
    assert run.one_pass(runner, "artifacts", wrong_dim, 0, reference).failed == 1


def test_warm_output_must_equal_cold(reference):
    signs = "+-+-+-"
    cold_err, warm_err = wl.check_artifact(signs, "blocks", wl.summary(0, b"x"),
                                           wl.summary(0, b"y"),
                                           {signs: {"blocks": wl.digest(b"x")}}, 0)
    assert not cold_err and warm_err
    # A failing command is wrong twice over: its exit code and its output.
    cold_err, _ = wl.check_artifact(signs, "blocks", wl.summary(2, b""), wl.summary(2, b""),
                                    reference["artifacts"], 0)
    assert len(cold_err) == 2


def test_failing_criterion_fails(runner, reference):
    args = inputs("selftest")
    ok = run.one_pass(runner, "selftest", args, 0, reference)
    assert ok.failed == 0
    stdout = ok.output["stdout"]
    line = wl.parse_selftest(stdout)[3]
    failing = stdout.replace(line, line.replace(" PASS ", " FAIL "))
    criteria = args["criteria"]
    assert len(wl.check_selftest(1, failing, criteria, reference["selftest"])) == 1
    less_work = stdout.replace(line, line.replace("176", "175"))
    assert len(wl.check_selftest(0, less_work, criteria, reference["selftest"])) == 1
    missing = stdout.replace(line, "")
    assert len(wl.check_selftest(1, missing, criteria, reference["selftest"])) == 1
    tampered = json.loads(json.dumps(reference))
    tampered["selftest"]["3"] = tampered["selftest"]["3"].replace("176", "175")
    assert run.one_pass(runner, "selftest", args, 0, tampered).failed == 1


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_a_run_cut_by_the_time_limit_still_reports(workload, reference):
    """A pass or replay that reaches the run's time limit is not a crash:
    every operation in it counts as failed."""
    args = inputs(workload)
    expired = run.Runner(time.perf_counter())
    n = run.operations(workload, args)
    passes = run.run_untraced(expired, workload, args, 1, reference)
    assert len(passes) == 1 and passes[0].failed == passes[0].attempted == n
    setup = run.Child(0, b"", b"", 0.1, 20.0, run.CAL_REF_S)
    metrics = run.report_untraced(workload, [setup], passes, lambda line: None)
    assert set(metrics) == set(run.END_TO_END)
    errors, attempted, failed, _ = run.run_traced(expired, workload, args, 3, reference,
                                                  lambda line: None)
    assert errors and attempted == failed == 2 * n


def test_normalize_line_drops_only_timings():
    line = "AC01 PASS (   1.3s) evaluator agreement: 888 closures agree, 1.3s of 120s budget"
    assert wl.normalize_line(line) == \
        "AC01 PASS (#s) evaluator agreement: 888 closures agree, #s of #s budget"


def test_bare_directory_gives_no_result():
    """Only the benchmark's files and no program: exit non-zero, print nothing."""
    run.OUT.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=run.OUT))
    try:
        shutil.copytree(wl.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, timeout=60, cwd=bare,
        )
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0 and proc.stdout == ""
