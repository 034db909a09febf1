"""In-process tracing of webkup from outside its source tree.

``Tracer.install`` replaces each traced public function with a wrapper
under every name it is bound to in a webkup module (``dominant_states``
is bound in ``growth``, ``dualcan``, ``acceptance`` and ``cli``), and in
the module-level dispatch tables that hold it (``cli._BUILDERS``,
``acceptance.CRITERIA``).  Each call records a span ``(id, name, start,
end, parent id, op id)`` in memory; self time is a span's duration minus
the part its child spans cover.  ``LaurentPoly`` operations are too
frequent for spans and only bump counters.
"""

from __future__ import annotations

import gzip
import itertools
import json
import time
from collections import Counter, defaultdict

import workloads as wl

# (module, function, fields beyond calls/self_s): the layers a ROADMAP
# item targets.  ``lru`` marks an lru-cached function, reported as
# hits/misses instead of calls.
FUNCTIONS = (
    ("growth", "dominant_states", ("states",)),
    ("growth", "growth", ()),
    ("growth", "web_space", ("lru",)),
    ("flows", "count_weight_zero_flows", ("prefilter",)),
    ("flows", "expansion", ("terms",)),
    ("flows", "enumerate_flows", ("flows",)),
    ("flows", "bracket", ()),
    ("planar", "rewrite_bracket", ()),
    ("howe", "verify_relations", ("instances",)),
    ("howe", "phi_word", ()),
    ("howe", "inverse_growth", ()),
    ("oracles", "invariant_dim", ()),
    ("oracles", "hook_content_dim", ()),
    ("tableaux", "enumerate_fillings", ()),
    ("gornik", "coloring_count", ()),
    ("dualcan", "dual_canonical_basis", ("lru",)),
    ("cli", "basis_payload", ("self_only",)),
    ("cli", "expansions_payload", ("self_only",)),
    ("cli", "dualcan_payload", ("self_only",)),
    ("cli", "blocks_payload", ("self_only",)),
    ("cli", "main", ("self_only",)),
)

LAURENT_OPS = (("init", "__init__"), ("shift", "shift"), ("add", "__add__"),
               ("mul", "__mul__"), ("str", "__str__"))

CRITERIA = wl.SIZES["full"]["criteria"]

MODULES = ("qlaurent", "webs", "flows", "planar", "growth", "howe", "tableaux",
           "gornik", "dualcan", "oracles", "render", "cache", "acceptance", "cli")


def metric_specs() -> list[dict]:
    """Every per-layer metric with its unit and better direction, in the
    order the benchmark prints them."""
    specs = []

    def add(name, unit, better):
        specs.append({"name": name, "unit": unit, "better": better})

    for mod, fn, fields in FUNCTIONS:
        name = f"{mod}.{fn}"
        if "lru" in fields:
            add(f"{name}.hits", "count", "higher")
            add(f"{name}.misses", "count", "lower")
        elif "self_only" not in fields:
            add(f"{name}.calls", "count", "lower")
        add(f"{name}.self_s", "s", "lower")
        for extra in ("states", "terms", "flows", "instances"):
            if extra in fields:
                add(f"{name}.{extra}", "count", "lower")
    for short, _ in LAURENT_OPS:
        add(f"qlaurent.{short}.calls", "count", "lower")
    add("dualcan.prefilter.hits", "count", "lower")
    add("dualcan.prefilter.hit_ratio", "ratio", "lower")
    add("cache.load.calls", "count", "lower")
    add("cache.load.hits", "count", "higher")
    add("cache.load.self_s", "s", "lower")
    add("cache.store.calls", "count", "lower")
    add("cache.store.self_s", "s", "lower")
    add("cache.store.bytes", "bytes", "lower")
    for k in CRITERIA:
        add(f"acceptance.AC{k:02d}.s", "s", "lower")
    add("trace.spans", "count", "lower")
    add("trace.overhead_s", "s", "lower")
    return specs


def rebind(modules, old, new) -> int:
    """Replace ``old`` by ``new`` wherever a module binds it, directly or
    as a value of a module-level dict.  Returns the number of bindings."""
    n = 0
    for mod in modules:
        for attr, val in list(vars(mod).items()):
            if val is old:
                setattr(mod, attr, new)
                n += 1
            elif type(val) is dict:
                for key, item in list(val.items()):
                    if item is old:
                        val[key] = new
                        n += 1
    return n


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.op = 0
        self._stack = [0]
        self._ids = itertools.count(1).__next__

    # -- wrappers ---------------------------------------------------------

    def wrap(self, name: str, fn, observe=None):
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            sid = ids()
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, name, start, end, parent, tracer.op))
            if observe is not None:
                observe(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _lru(self, name: str, fn):
        counts = self.counts

        def call(*args, **kwargs):
            before = fn.cache_info().hits
            result = fn(*args, **kwargs)
            hit = fn.cache_info().hits > before
            counts[f"{name}.hits" if hit else f"{name}.misses"] += 1
            return result

        return call

    def _observer(self, name: str, fields):
        counts = self.counts
        if "prefilter" in fields:
            def observe(result):
                if result > 1:
                    counts["dualcan.prefilter.hits"] += 1
            return observe
        if "instances" in fields:
            def observe(result):
                counts[f"{name}.instances"] += result
            return observe
        for extra in ("states", "terms", "flows"):
            if extra in fields:
                key = f"{name}.{extra}"

                def observe(result, key=key):
                    counts[key] += len(result)
                return observe
        return None

    def install(self, modules: dict) -> None:
        """Trace the webkup modules given as ``{short name: module}``."""
        mods = list(modules.values())
        for mod, fn_name, fields in FUNCTIONS:
            name = f"{mod}.{fn_name}"
            orig = getattr(modules[mod], fn_name)
            inner = self._lru(name, orig) if "lru" in fields else orig
            if not rebind(mods, orig, self.wrap(name, inner, self._observer(name, fields))):
                raise RuntimeError(f"{name} is bound nowhere")
        for k in CRITERIA:
            orig = getattr(modules["acceptance"], f"criterion_{k}")
            rebind(mods, orig, self.wrap(f"acceptance.AC{k:02d}", orig))

        ws = modules["cache"].Workspace
        counts = self.counts

        def loaded(result):
            counts["cache.load.hits"] += result is not None

        def stored(path):
            counts["cache.store.bytes"] += path.stat().st_size

        ws.load = self.wrap("cache.load", ws.load, loaded)
        ws.store = self.wrap("cache.store", ws.store, stored)

        poly = modules["qlaurent"].LaurentPoly
        for short, attr in LAURENT_OPS:
            setattr(poly, attr, self._counted(f"qlaurent.{short}.calls", getattr(poly, attr)))

    def _counted(self, key: str, fn):
        counts = self.counts
        counts[key] = 0

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- results -------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric except the ``trace.overhead_s`` the
        parent derives; layers this run never entered read 0."""
        covered = defaultdict(float)
        for _, _, start, end, parent, _ in self.spans:
            covered[parent] += end - start
        self_s: dict = defaultdict(float)
        total_s: dict = defaultdict(float)
        calls: Counter = Counter()
        for sid, name, start, end, _, _ in self.spans:
            self_s[name] += (end - start) - covered.get(sid, 0.0)
            total_s[name] += end - start
            calls[name] += 1
        checked = calls["flows.count_weight_zero_flows"]
        out: dict[str, float] = {}
        for spec in metric_specs():
            metric = spec["name"]
            base, _, field = metric.rpartition(".")
            if metric == "dualcan.prefilter.hit_ratio":
                value = self.counts["dualcan.prefilter.hits"] / checked if checked else 0.0
            elif metric == "trace.spans":
                value = len(self.spans)
            elif metric == "trace.overhead_s":
                continue
            elif field == "self_s":
                value = self_s.get(base, 0.0)
            elif field == "calls" and not base.startswith("qlaurent."):
                value = calls[base]
            elif base.startswith("acceptance."):
                value = total_s.get(base, 0.0)
            else:
                value = self.counts[metric]
            out[metric] = value
        return out

    def write_spans(self, path) -> None:
        """Spans as gzipped JSON lines: id, name, start, end, parent, op."""
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps({"fields": ["id", "name", "start", "end", "parent", "op"]}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
