"""The webkup benchmark.

    python3 perfbench/run.py --workload sweep|artifacts|selftest --seed N \
        --seconds S --trace 0|1 [--size full|tiny]

Run from the root of a checkout.  One single-threaded parent runs the
workload's passes one at a time (a closed loop with one client), each pass
in fresh child interpreters that import webkup from ``src``.  It prints a
report, then as its last line one JSON object with the correctness
verdict and the metrics named in ``BENCHMARK.json``: the end-to-end ones
with ``--trace 0``, as times at a reference machine speed (see
``calibration_burst``); with ``--trace 1`` it replays one pass in-process
under the tracer and prints the per-layer ones.  It exits 2 without a
result when the checkout has no ``src/webkup``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field

import workloads as wl
from tracer import metric_specs

ROOT = wl.HERE.parent
OUT = wl.HERE / "out"
CHILD = str(wl.HERE / "child.py")
# Setup is timed SETUP_FIRST times before the first pass, once after each
# pass, and then again until there are SETUP_REPS samples, so that the
# samples spread over the run like the passes do.
SETUP_FIRST = 5
SETUP_REPS = 21
# Every run must end within 180 s, whatever a child does.
RUN_LIMIT_S = 170.0
# While a child runs, the parent times a calibration burst every
# CAL_PAUSE_S seconds on the child's CPU; a child's times are rescaled
# by CAL_REF_S / (harmonic mean of the bursts timed during that child).
# Children run at CHILD_NICE so that a burst is not preempted by the
# child.
CAL_ITERATIONS = 3000
CAL_PAUSE_S = 0.04
CAL_REF_S = 0.0025
CHILD_NICE = 19

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
}


class ChildTimeout(Exception):
    pass


def calibration_burst() -> float:
    """Seconds taken by a fixed piece of pure-Python dict and tuple work,
    the kind of work webkup does, that never changes with webkup.

    The host this benchmark was built on is a shared 2-core VM whose
    speed drifts by up to 2x within minutes.  Bursts timed on the child's
    own CPU while it runs slow down with it: over 103 ``sweep`` passes,
    pass time and the median burst time during the pass correlated at
    0.94.  Bursts are timed at even intervals, so the child's progress
    per second is proportional to the mean of 1 / burst time, and its
    time to the harmonic mean of the bursts."""
    start = time.perf_counter()
    rnd = random.Random(1)
    counts = {}
    for i in range(CAL_ITERATIONS):
        key = (rnd.randrange(300), rnd.randrange(300), i & 7)
        counts[key] = counts.get(key, 0) + i * i % 7
    sum(v for k, v in counts.items() if k[0] > k[1])
    return time.perf_counter() - start


@dataclass
class Child:
    returncode: int
    stdout: bytes
    stderr: bytes
    wall_s: float
    rss_mb: float
    cal_s: float  # harmonic mean of the calibration bursts while the child ran

    @property
    def ref_s(self) -> float:
        """Wall time at the machine speed where a burst takes CAL_REF_S."""
        return self.wall_s * CAL_REF_S / self.cal_s


@dataclass
class Pass:
    wall_s: float
    ref_s: float  # wall_s at the reference speed
    rss_mb: float
    attempted: int
    output: object = None  # in the format of ``child.replay``; None if unfinished
    errors: list = field(default_factory=list)
    failed: int = 0
    detail: dict = field(default_factory=dict)
    slots: dict = field(default_factory=dict)  # command position -> ref latency

    def __post_init__(self):
        self.slots = self.slots or {"pass": self.ref_s}


class Runner:
    """Spawns children one at a time, each waited for before the next.
    The parent and its children share one CPU, so the calibration bursts
    time the CPU the child runs on; on a shared host, another CPU is
    another host thread and may be loaded differently.  Without
    ``calibrate`` (traced runs) no bursts are timed."""

    def __init__(self, deadline: float, calibrate: bool = True):
        self.deadline = deadline
        self.calibrate = calibrate
        os.sched_setaffinity(0, [min(os.sched_getaffinity(0))])

    def env(self, cache_dir: str) -> dict:
        env = {k: v for k, v in os.environ.items() if not k.startswith("WEBKUP_")}
        env["PYTHONPATH"] = str(ROOT / "src")
        # A fixed hash seed removes one source of pass-to-pass variation.
        env["PYTHONHASHSEED"] = "0"
        # Never the user's ~/.cache/webkup.
        env["WEBKUP_CACHE"] = cache_dir
        return env

    def spawn(self, argv: list[str], cache_dir: str) -> Child:
        """Run one child to completion, timing calibration bursts until it
        exits; wall time is spawn to exit (late by at most one burst),
        peak RSS that child's own."""
        if self.deadline <= time.perf_counter():
            raise ChildTimeout
        with tempfile.TemporaryFile(dir=OUT) as out, tempfile.TemporaryFile(dir=OUT) as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT,
                                    env=self.env(cache_dir),
                                    preexec_fn=lambda: os.nice(CHILD_NICE))
            exited = os.pidfd_open(proc.pid)
            bursts = []
            try:
                while True:
                    if self.calibrate:
                        bursts.append(calibration_burst())
                    pause = (CAL_PAUSE_S if self.calibrate
                             else self.deadline - time.perf_counter())
                    if select.select([exited], [], [], max(pause, 0))[0]:
                        break
                    if time.perf_counter() > self.deadline:
                        proc.kill()
                        os.wait4(proc.pid, 0)
                        proc.returncode = -9
                        raise ChildTimeout
                wall = time.perf_counter() - start
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                os.close(exited)
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            return Child(proc.returncode, out.read(), err.read(), wall,
                         usage.ru_maxrss / 1024.0,
                         statistics.harmonic_mean(bursts) if bursts else CAL_REF_S)

    def python(self, args: list[str], cache_dir: str) -> Child:
        return self.spawn([sys.executable, *args], cache_dir)

    def webkup(self, args: list[str], cache_dir: str) -> Child:
        return self.python(["-m", "webkup.cli", *args], cache_dir)


def _json(child: Child):
    if child.returncode != 0:
        return None
    try:
        return json.loads(child.stdout.decode().strip().splitlines()[-1])
    except (ValueError, IndexError):
        return None


# -- passes -----------------------------------------------------------------


def operations(workload: str, inputs: dict) -> int:
    """Operations in one pass: the sweep, each CLI command, each criterion."""
    if workload == "sweep":
        return 1
    if workload == "artifacts":
        return 2 * len(wl.KINDS) * inputs["per_pass"]
    return len(inputs["criteria"])


def gate(workload: str, output, inputs: dict, reference: dict) -> tuple[list[str], int]:
    """Failure messages and the number of failed operations of one pass's
    output, untraced or replayed."""
    if workload == "sweep":
        errors = wl.check_sweep(output, inputs["expected_webs"])
        return errors, min(1, len(errors))
    if workload == "artifacts":
        return wl.check_artifacts(output, reference["artifacts"], inputs["dims"])
    errors = wl.check_selftest(output["returncode"], output["stdout"], inputs["criteria"],
                               reference["selftest"])
    return errors, min(len(inputs["criteria"]), len(errors))


def sweep_pass(runner: Runner, inputs: dict, index: int, tmp: str) -> Pass:
    child = runner.python([CHILD, "sweep", str(inputs["max_strands"]),
                           repr(inputs["budget_s"])], tmp)
    report = _json(child)
    return Pass(child.wall_s, child.ref_s, child.rss_mb, 1, report,
                [] if report else [child.stderr.decode()[-500:]])


def artifacts_pass(runner: Runner, inputs: dict, index: int, tmp: str) -> Pass:
    boundaries = wl.pass_boundaries(inputs["order"], inputs["per_pass"], index)
    results = {}
    for phase, kind, signs in wl.artifact_commands(boundaries):
        results[phase, kind, signs] = runner.webkup(wl.cli_args(kind, signs), tmp)
    return Pass(sum(c.wall_s for c in results.values()),
                sum(c.ref_s for c in results.values()),
                max(c.rss_mb for c in results.values()), len(results),
                [[*k, *wl.summary(c.returncode, c.stdout)] for k, c in results.items()],
                detail={"boundaries": boundaries,
                        "cold": [c.ref_s for (p, _, _), c in results.items() if p == "cold"],
                        "warm": [c.ref_s for (p, _, _), c in results.items() if p == "warm"]},
                slots={i: c.ref_s for i, c in enumerate(results.values())})


def selftest_pass(runner: Runner, inputs: dict, index: int, tmp: str) -> Pass:
    child = runner.webkup(wl.selftest_args(inputs["criteria"]), tmp)
    stdout = child.stdout.decode()
    elapsed = {}
    for k, line in wl.parse_selftest(stdout).items():
        elapsed[k] = float(line.split("(", 1)[1].split("s)", 1)[0])
    return Pass(child.wall_s, child.ref_s, child.rss_mb, len(inputs["criteria"]),
                {"returncode": child.returncode, "stdout": stdout},
                detail={"elapsed": elapsed})


PASSES = {"sweep": sweep_pass, "artifacts": artifacts_pass, "selftest": selftest_pass}


def one_pass(runner: Runner, workload: str, inputs: dict, index: int, reference: dict) -> Pass:
    """A gated pass with its own empty cache directory, removed afterwards.
    A pass cut by the run's time limit counts every operation as failed."""
    tmp = tempfile.mkdtemp(prefix="cache-", dir=OUT)
    start = time.perf_counter()
    try:
        done = PASSES[workload](runner, inputs, index, tmp)
    except ChildTimeout:
        n = operations(workload, inputs)
        elapsed = time.perf_counter() - start
        return Pass(elapsed, elapsed, 0.0, n, None,
                    [f"pass {index} did not finish within {RUN_LIMIT_S:.0f} s"], n)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    errors, failed = gate(workload, done.output, inputs, reference)
    done.errors += errors
    done.failed = failed
    return done


# -- statistics and report ------------------------------------------------------


def quantile(values: list[float], p: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def timing(name: str, values: list[float], unit: str = "s") -> str:
    """Median plus the highest of p75/p90/p95/p99 that has at least ten
    samples beyond it, with the sample count."""
    n = len(values)
    parts = [f"{name}: p50 {statistics.median(values):.4f} {unit}"]
    tail = [p for p in (99, 95, 90, 75) if n * (100 - p) / 100 >= 10]
    if tail:
        parts.append(f"p{tail[0]} {quantile(values, tail[0]):.4f} {unit}")
    else:
        parts.append("no tail percentile has 10 samples beyond it")
    parts.append(f"n={n}")
    return ", ".join(parts)


def pass_time(passes: list[Pass]) -> float:
    """The time of one pass: over the pass's commands (its slots), the sum
    of each slot's median across passes.  With one command per pass this
    is the median pass time; with several, one slow command moves only
    its own slot."""
    return sum(statistics.median(p.slots[k] for p in passes) for k in passes[0].slots)


def report_untraced(workload: str, setups: list[Child], passes: list[Pass], say) -> dict:
    """Timings over the finished passes; over the unfinished one only if
    no pass finished.  Every time but the measured ones is at the
    reference speed."""
    passes = [p for p in passes if p.output is not None] or passes
    metrics = {
        "setup_s": statistics.median(c.ref_s for c in setups),
        "wall_s": pass_time(passes),
        "peak_rss_mb": statistics.median(p.rss_mb for p in passes),
    }
    say(timing("setup_s", [c.ref_s for c in setups]))
    say(f"wall_s: {metrics['wall_s']:.4f} s (sum over the pass's commands of their "
        f"median latency; {len(passes[0].slots)} per pass)")
    say(timing("pass_s", [p.ref_s for p in passes]))
    say(timing("measured setup_s", [c.wall_s for c in setups]))
    say(timing("measured pass_s", [p.wall_s for p in passes]))
    slowdown = statistics.median(p.wall_s / p.ref_s for p in passes)
    say(f"slowdown: measured pass times are {slowdown:.3f} x those at the reference "
        f"speed, where a calibration burst takes {CAL_REF_S} s")
    if workload == "sweep":
        rates = [p.output["checked_webs"] / p.ref_s for p in passes if p.output]
        if rates:
            say(f"webs_per_s: {statistics.median(rates):.2f} webs/s "
                f"(checked_webs / pass_s, median of {len(rates)} passes)")
    if workload == "artifacts":
        cold = [t for p in passes for t in p.detail.get("cold", ())]
        warm = [t for p in passes for t in p.detail.get("warm", ())]
        for name, values in (("cold_cmd", cold), ("warm_cmd", warm)):
            if values:
                say(f"{name}_p50_s: {statistics.median(values):.4f} s, "
                    f"{name}_p90_s: {quantile(values, 90):.4f} s "
                    f"(n={len(values)}; {len(values) * 0.1:.1f} samples beyond p90)")
        say("boundaries: " + " ".join(b for p in passes for b in p.detail.get("boundaries", ())))
    if workload == "selftest":
        elapsed = [p.detail["elapsed"] for p in passes if p.detail]
        for k in sorted({k for e in elapsed for k in e}):
            values = [e[k] for e in elapsed if k in e]
            say(f"AC{k:02d}: {statistics.median(values):.1f} s as printed by selftest")
    say(f"peak_rss_mb: {metrics['peak_rss_mb']:.1f} MB (median over passes of the "
        f"largest child)")
    return metrics


def failed_share(workload: str, attempted: int, failed: int) -> str:
    base = {"sweep": "sweeps", "artifacts": "CLI commands", "selftest": "criteria"}[workload]
    return f"failed_share: {failed}/{attempted} {base} = {failed / attempted:.4f}"


# -- the run ---------------------------------------------------------------------


def setup(runner: Runner, workload: str, seed: int, size: str) -> tuple[dict, Child]:
    """One fresh-interpreter setup: the workload's inputs and its child."""
    child = runner.spawn([sys.executable, CHILD, "setup", workload, str(seed), size],
                         str(OUT))
    inputs = _json(child)
    if inputs is None:
        raise SystemExit("setup failed:\n" + child.stderr.decode()[-2000:])
    return inputs, child


def run_untraced(runner, workload, inputs, seconds, reference, between=lambda: None):
    """Passes until the next would end after ``seconds`` or a pass is cut by
    the run's time limit; ``between`` runs after each finished pass."""
    passes = []
    window_end = time.perf_counter() + seconds
    while True:
        passes.append(one_pass(runner, workload, inputs, len(passes), reference))
        if passes[-1].output is None:
            return passes
        between()
        next_end = time.perf_counter() + statistics.median(p.wall_s for p in passes)
        if next_end > window_end or next_end > runner.deadline - 10:
            return passes


def compare_traced(workload: str, plain, traced) -> list[str]:
    """One message per operation whose traced output differs from the
    plain replay's."""
    if workload == "sweep":
        return [] if traced == plain else ["traced sweep report differs"]
    if workload == "artifacts":
        want = {tuple(cmd[:3]): cmd[3:] for cmd in plain}
        return [f"traced {ph} {kind} {signs} output differs"
                for ph, kind, signs, *got in traced if want.get((ph, kind, signs)) != got]
    mine = wl.parse_selftest(traced["stdout"])
    theirs = wl.parse_selftest(plain["stdout"])
    return [f"traced AC{k:02d} differs" for k in sorted(set(mine) | set(theirs))
            if k not in mine or k not in theirs
            or wl.normalize_line(mine[k]) != wl.normalize_line(theirs[k])]


def run_traced(runner, workload, inputs, seed, reference, say):
    """One pass replayed in one child, first plain, then with every traced
    layer wrapped.  The plain output is gated, the traced one compared
    with it.  Returns errors, attempted and failed operations, metrics."""
    n = operations(workload, inputs)
    replay = dict(inputs)
    if workload == "artifacts":
        replay["boundaries"] = wl.pass_boundaries(inputs["order"], inputs["per_pass"], 0)
    inputs_path = OUT / f"trace-inputs-{workload}-{seed}.json"
    spans_path = OUT / f"spans-{workload}-{seed}.jsonl.gz"
    inputs_path.write_text(json.dumps(replay))
    tmp = tempfile.mkdtemp(prefix="cache-", dir=OUT)
    try:
        child = runner.python([CHILD, "trace", workload, str(inputs_path), str(spans_path)], tmp)
        traced = _json(child)
        if traced is None:
            say(child.stderr.decode()[-2000:])
    except ChildTimeout:
        traced = None
        say(f"the traced replay did not finish within {RUN_LIMIT_S:.0f} s")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        inputs_path.unlink()
    if traced is None:
        return ["traced replay failed"], 2 * n, 2 * n, {}
    errors, failed = gate(workload, traced["plain"], inputs, reference)
    mismatches = compare_traced(workload, traced["plain"], traced["output"])
    metrics = dict(traced["metrics"])
    metrics["trace.overhead_s"] = traced["traced_s"] - traced["plain_s"]
    say(f"tracing overhead: traced {traced['traced_s']:.4f} s - untraced "
        f"{traced['plain_s']:.4f} s = {metrics['trace.overhead_s']:.4f} s "
        f"(wall_s of the same pass replayed in one process)")
    say(f"spans written to {spans_path.relative_to(ROOT)}")
    return errors + mismatches, 2 * n, failed + len(mismatches), metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="webkup benchmark")
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=tuple(wl.SIZES), default="full",
                    help="input sizes; tiny is for the benchmark's own tests")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "webkup" / "__init__.py").is_file():
        print(f"error: no webkup sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    say = lambda line: print(f"[{args.workload}] {line}", flush=True)
    runner = Runner(time.perf_counter() + RUN_LIMIT_S, calibrate=not args.trace)
    reference = wl.load_reference()
    inputs, first = setup(runner, args.workload, args.seed, args.size)

    if args.trace:
        errors, attempted, failed, values = run_traced(runner, args.workload, inputs,
                                                       args.seed, reference, say)
        specs = metric_specs()
        width = max(len(s["name"]) for s in specs)
        for s in specs:
            say(f"{s['name']:<{width}} {values.get(s['name'], 0):>14.6g} {s['unit']}")
        metrics = {s["name"]: {"value": values.get(s["name"], 0), "unit": s["unit"]}
                   for s in specs}
    else:
        setups = [first]

        def sample():
            if runner.deadline - time.perf_counter() > 10:
                setups.append(setup(runner, args.workload, args.seed, args.size)[1])

        for _ in range(SETUP_FIRST - 1):
            sample()
        passes = run_untraced(runner, args.workload, inputs, args.seconds, reference, sample)
        while len(setups) < SETUP_REPS and runner.deadline - time.perf_counter() > 10:
            sample()
        values = report_untraced(args.workload, setups, passes, say)
        errors = [e for p in passes for e in p.errors]
        attempted = sum(p.attempted for p in passes)
        failed = sum(p.failed for p in passes)
        say(f"passes: {len(passes)}, each in fresh interpreters, one at a time")
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}

    say(failed_share(args.workload, attempted, failed))
    for e in errors:
        say(f"FAIL {e}")
    say("correct" if not errors else "INCORRECT")
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
