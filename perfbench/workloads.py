"""Workload definitions, inputs and correctness gates.

Nothing here imports webkup: the parent process stays free of the
program's caches, and every pass runs in a fresh child interpreter.

Workloads (see README.md for why each was chosen):

- ``sweep``: ``dualcan.search_counterexample`` through ``max_strands``
  with a budget that never triggers.  Exhaustive, so the seed is unused.
- ``artifacts``: ``enumerate``, ``expand --boundary``, ``dualcan`` and
  ``blocks`` as separate CLI processes with ``--cache``, first on an
  empty cache (cold), then again served from it (warm).  Boundaries are
  drawn from the seed among the plain strings with ``plus`` ``+`` signs.
- ``selftest``: ``webkup selftest`` over the listed criteria.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from itertools import combinations, product
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"

WORKLOADS = ("sweep", "artifacts", "selftest")

# A budget far beyond any pass, so an exhausted budget can only mean a
# defect (the gate then fails) and never reads as a speed-up.
SWEEP_BUDGET_S = 1_000_000.0

# "full" is what the benchmark measures; "tiny" keeps the benchmark's own
# tests fast while exercising the same code paths.
SIZES = {
    "full": {
        "max_strands": 7,
        "strands": 10,
        "plus": 5,
        "per_pass": 1,
        "criteria": (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 13),
    },
    "tiny": {
        "max_strands": 5,
        "strands": 6,
        "plus": 3,
        "per_pass": 1,
        "criteria": (3, 4, 9),
    },
}

KINDS = ("enumerate", "expand", "dualcan", "blocks")


def cli_args(kind: str, signs: str) -> list[str]:
    """webkup arguments for one artifact command.  ``--`` and ``=`` keep a
    boundary that starts with ``-`` from reading as an option."""
    if kind == "expand":
        return ["expand", "--cache", f"--boundary={signs}"]
    return [kind, "--cache", "--", signs]


def artifact_commands(boundaries) -> list[tuple[str, str, str]]:
    """One artifact pass: ``(phase, kind, signs)`` for every cold command,
    then the same commands again, warm."""
    return [(phase, kind, signs) for phase in ("cold", "warm")
            for signs in boundaries for kind in KINDS]


def selftest_args(criteria) -> list[str]:
    return ["selftest", "--only", ",".join(str(k) for k in criteria)]


def candidates_upto(max_strands: int) -> list[str]:
    """The plain boundaries the sweep visits: 2 to ``max_strands`` signs."""
    return ["".join(p) for n in range(2, max_strands + 1) for p in product("+-", repeat=n)]


def candidates(strands: int, plus: int) -> list[str]:
    """Plain boundaries of the given length with ``plus`` plus signs."""
    out = []
    for pos in combinations(range(strands), plus):
        out.append("".join("+" if i in pos else "-" for i in range(strands)))
    return sorted(out)


def boundary_order(seed: int, strands: int, plus: int) -> list[str]:
    """The seed's order of artifact boundaries; pass i takes the next
    ``per_pass`` of them."""
    order = candidates(strands, plus)
    random.Random(seed).shuffle(order)
    return order


def pass_boundaries(order: list[str], per_pass: int, index: int) -> list[str]:
    start = (index * per_pass) % len(order)
    return [order[(start + j) % len(order)] for j in range(per_pass)]


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


# -- selftest output ----------------------------------------------------------

_LINE = re.compile(r"^AC(\d\d) (PASS|FAIL) ")
_TIMING = re.compile(r"\d+(?:\.\d+)?s\b")


def normalize_line(line: str) -> str:
    """A criterion line with its timing figures removed, so the rest of
    the detail (counts of work done) can be compared across runs."""
    line = re.sub(r"\(\s*", "(", line)
    return _TIMING.sub("#s", line)


def parse_selftest(stdout: str) -> dict[int, str]:
    """Criterion number -> its output line."""
    out = {}
    for line in stdout.splitlines():
        m = _LINE.match(line)
        if m:
            out[int(m.group(1))] = line
    return out


# -- correctness gates: each returns a list of failure messages ---------------


def check_sweep(report: dict | None, expected_webs: int) -> list[str]:
    """The sweep must complete, find nothing and check exactly one web per
    invariant of every swept boundary."""
    if report is None:
        return ["sweep produced no report"]
    errors = []
    if not report.get("completed"):
        errors.append(f"sweep did not complete: {report.get('checked_webs')} webs")
    if report.get("found"):
        errors.append(f"sweep found discrepant webs: {report['found'][:3]}")
    if report.get("checked_webs") != expected_webs:
        errors.append(
            f"checked {report.get('checked_webs')} webs, expected {expected_webs}"
        )
    return errors


def summary(returncode: int, stdout: bytes) -> list:
    """What the artifact gates need of one command: its exit code, the
    SHA-256 of its stdout and the number of lines in it."""
    return [returncode, digest(stdout), len(stdout.splitlines())]


def check_artifact(signs: str, kind: str, cold, warm, reference: dict,
                   basis_size: int) -> tuple[list[str], list[str]]:
    """Failures of the cold and of the warm command.  ``cold`` and ``warm``
    are ``summary`` lists; equal digests mean byte-equal stdout."""
    cold_err, warm_err = [], []
    if cold[0] != 0:
        cold_err.append(f"cold {kind} {signs} exited {cold[0]}")
    want = reference.get(signs, {}).get(kind)
    if want is None:
        cold_err.append(f"no reference digest for {kind} {signs}")
    elif cold[1] != want:
        cold_err.append(f"cold {kind} {signs} output differs from the reference")
    if kind == "enumerate" and cold[2] != basis_size:
        cold_err.append(f"enumerate {signs} lists {cold[2]} webs, invariant_dim is {basis_size}")
    if warm[0] != 0:
        warm_err.append(f"warm {kind} {signs} exited {warm[0]}")
    if warm[1] != cold[1]:
        warm_err.append(f"warm {kind} {signs} output differs from cold")
    return cold_err, warm_err


def check_artifacts(output, reference: dict, dims: dict) -> tuple[list[str], int]:
    """Failure messages and the number of failed commands of one artifacts
    pass, given as ``[phase, kind, signs, *summary]`` per command."""
    results = {(phase, kind, signs): rest for phase, kind, signs, *rest in output}
    errors, failed = [], 0
    for phase, kind, signs in results:
        if phase != "cold":
            continue
        for errs in check_artifact(signs, kind, results[phase, kind, signs],
                                   results["warm", kind, signs], reference, dims[signs]):
            errors += errs
            failed += bool(errs)
    return errors, failed


def check_selftest(returncode: int, stdout: str, criteria, reference: dict) -> list[str]:
    """One message per criterion that failed, is missing, or whose detail
    (timings removed) differs from the reference."""
    lines = parse_selftest(stdout)
    errors = []
    for k in criteria:
        line = lines.get(k)
        if line is None:
            errors.append(f"AC{k:02d} missing (exit {returncode})")
        elif " PASS " not in line[:10]:
            errors.append(f"AC{k:02d} failed: {line}")
        elif normalize_line(line) != reference.get(str(k)):
            errors.append(f"AC{k:02d} detail differs from the reference: {line}")
    if returncode != 0 and not errors:
        errors.append(f"selftest exited {returncode} with every criterion passing")
    return errors
