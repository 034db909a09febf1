"""The benchmark's code that runs inside a fresh child interpreter.

    python perfbench/child.py setup WORKLOAD SEED SIZE
    python perfbench/child.py sweep MAX_STRANDS BUDGET_S
    python perfbench/child.py trace WORKLOAD INPUTS_JSON SPANS_OUT

Each prints one JSON document on stdout.  The parent sets ``PYTHONPATH``
to the checkout's ``src`` so webkup is built from source; ``setup``
refuses to run against any other copy of the package.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path

import workloads as wl
from tracer import MODULES, Tracer

SRC = wl.HERE.parent / "src"
OUT = wl.HERE / "out"


def import_webkup():
    """Import the CLI (and with it the whole package) from ``src``."""
    import webkup.cli

    where = Path(webkup.cli.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SystemExit(f"webkup imported from {where}, not from {SRC}")
    return webkup.cli


def modules() -> dict:
    return {name: importlib.import_module(f"webkup.{name}") for name in MODULES}


def lru_caches(mods) -> list:
    """Every lru cache in the package, each once."""
    seen = {}
    for mod in mods:
        for val in vars(mod).values():
            if hasattr(val, "cache_clear"):
                seen[id(val)] = val
    return list(seen.values())


def call_cli(cli, argv) -> tuple[int, bytes]:
    """Run ``cli.main`` in this process; return its exit code and stdout."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code
    return rc, buf.getvalue().encode()


# -- subcommands -------------------------------------------------------------


def setup(workload: str, seed: int, size: str) -> dict:
    """Import the CLI and prepare the workload's inputs."""
    import_webkup()
    from webkup.oracles import invariant_dim

    cfg = wl.SIZES[size]
    if workload == "sweep":
        n = cfg["max_strands"]
        expected = sum(invariant_dim(s) for s in wl.candidates_upto(n))
        return {"max_strands": n, "budget_s": wl.SWEEP_BUDGET_S, "expected_webs": expected}
    if workload == "artifacts":
        order = wl.boundary_order(seed, cfg["strands"], cfg["plus"])
        return {"order": order, "per_pass": cfg["per_pass"],
                "dims": {s: invariant_dim(s) for s in order}}
    if workload == "selftest":
        return {"criteria": list(cfg["criteria"])}
    raise SystemExit(f"unknown workload {workload!r}")


def sweep(max_strands: int, budget_s: float) -> dict:
    from webkup.dualcan import search_counterexample

    rep = search_counterexample(max_strands=max_strands, budget_s=budget_s)
    return {"found": [[s, list(J)] for s, J in rep.found], "checked_webs": rep.checked_webs,
            "completed": rep.completed, "last_boundary": rep.last_boundary}


def replay(workload: str, inputs: dict, cli, caches, tracer=None):
    """One pass in this process, starting from empty lru caches; returns
    its output."""
    for cache in caches:
        cache.cache_clear()
    if workload == "sweep":
        return sweep(inputs["max_strands"], inputs["budget_s"])
    if workload == "selftest":
        rc, out = call_cli(cli, wl.selftest_args(inputs["criteria"]))
        return {"returncode": rc, "stdout": out.decode()}
    if workload != "artifacts":
        raise SystemExit(f"unknown workload {workload!r}")
    output = []
    OUT.mkdir(exist_ok=True)
    cache_dir = tempfile.mkdtemp(prefix="cache-", dir=OUT)
    os.environ["WEBKUP_CACHE"] = cache_dir
    try:
        for op, (phase, kind, signs) in enumerate(wl.artifact_commands(inputs["boundaries"])):
            for cache in caches:  # as in a fresh process
                cache.cache_clear()
            if tracer is not None:
                tracer.op = op
            rc, out = call_cli(cli, wl.cli_args(kind, signs))
            output.append([phase, kind, signs, *wl.summary(rc, out)])
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    return output


def trace(workload: str, inputs: dict, spans_out: str) -> dict:
    """Replay one pass in this process, first plain, then with every traced
    layer wrapped.  The parent gates the plain output and compares the
    traced one with it; the difference of their times is the tracing
    overhead."""
    cli = import_webkup()
    mods = modules()
    caches = lru_caches(mods.values())
    start = time.perf_counter()
    plain = replay(workload, inputs, cli, caches)
    plain_s = time.perf_counter() - start
    tracer = Tracer()
    tracer.install(mods)
    start = time.perf_counter()
    output = replay(workload, inputs, cli, caches, tracer)
    traced_s = time.perf_counter() - start
    tracer.write_spans(spans_out)
    return {"plain": plain, "output": output, "metrics": tracer.metrics(),
            "plain_s": plain_s, "traced_s": traced_s}


def main(argv) -> int:
    cmd = argv[0]
    if cmd == "setup":
        doc = setup(argv[1], int(argv[2]), argv[3])
    elif cmd == "sweep":
        doc = sweep(int(argv[1]), float(argv[2]))
    elif cmd == "trace":
        doc = trace(argv[1], json.loads(Path(argv[2]).read_text()), argv[3])
    else:
        raise SystemExit(f"unknown command {cmd!r}")
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
