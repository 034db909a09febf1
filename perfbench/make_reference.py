"""Regenerate ``perfbench/reference.json`` from the program in ``src``.

    python3 perfbench/make_reference.py

Records, for every boundary the ``full`` and ``tiny`` artifact workloads
can draw, the SHA-256 of each command's stdout, and for every selftest
criterion the benchmark runs, its output line with timings removed.
Only rerun it for a change that is meant to alter program output.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import shutil
import sys
import tempfile
import time

import workloads as wl

sys.path.insert(0, str(wl.HERE.parent / "src"))

import child  # noqa: E402  (needs src on the path)


def boundary_digests(signs: str) -> tuple[str, dict, float]:
    """Digests of the four artifact commands on one boundary, run on an
    empty cache.  The commands are pure, so they share lru caches here."""
    cli = child.import_webkup()
    caches = child.lru_caches(child.modules().values())
    cache_dir = tempfile.mkdtemp(prefix="ref-", dir=child.OUT)
    os.environ["WEBKUP_CACHE"] = cache_dir
    start = time.perf_counter()
    out = {}
    try:
        for cache in caches:
            cache.cache_clear()
        for kind in wl.KINDS:
            rc, stdout = child.call_cli(cli, wl.cli_args(kind, signs))
            if rc != 0:
                raise SystemExit(f"{kind} {signs} exited {rc}")
            out[kind] = wl.digest(stdout)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    return signs, out, time.perf_counter() - start


def main() -> int:
    child.OUT.mkdir(exist_ok=True)

    boundaries = sorted({s for cfg in wl.SIZES.values()
                         for s in wl.candidates(cfg["strands"], cfg["plus"])})
    artifacts = {}
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(2) as pool:
        for signs, digests, took in pool.imap_unordered(boundary_digests, boundaries):
            artifacts[signs] = digests
            print(f"{signs} {took:.2f}s", file=sys.stderr)

    criteria = sorted({k for cfg in wl.SIZES.values() for k in cfg["criteria"]})
    rc, stdout = child.call_cli(child.import_webkup(), wl.selftest_args(criteria))
    lines = wl.parse_selftest(stdout.decode())
    if rc != 0 or sorted(lines) != criteria:
        raise SystemExit(f"selftest exited {rc}:\n{stdout.decode()}")
    selftest = {str(k): wl.normalize_line(lines[k]) for k in criteria}

    doc = {"artifacts": dict(sorted(artifacts.items())), "selftest": selftest}
    wl.REFERENCE_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
