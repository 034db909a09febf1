"""perfbench's tracer still finds what it wraps in webkup.

The tracer rebinds functions by name from outside the source tree, so a
rename or a dropped cache in webkup would otherwise first show as an
error in a traced benchmark run.  The tracer is read as it is, never
changed.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name, monkeypatch):
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)  # tracer imports workloads by name
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def tracer(monkeypatch):
    _load("workloads", monkeypatch)
    return _load("tracer", monkeypatch)


def test_every_traced_module_imports(tracer):
    for name in tracer.MODULES:
        importlib.import_module(f"webkup.{name}")


def test_every_traced_function_is_bound_in_webkup(tracer):
    for module, name, fields in tracer.FUNCTIONS:
        fn = getattr(importlib.import_module(f"webkup.{module}"), name, None)
        assert callable(fn), f"webkup.{module}.{name} is gone"
        if "lru" in fields:
            assert hasattr(fn, "cache_info"), f"webkup.{module}.{name} is no longer lru-cached"


def test_every_traced_criterion_exists(tracer):
    acceptance = importlib.import_module("webkup.acceptance")
    assert tracer.CRITERIA
    for k in tracer.CRITERIA:
        assert callable(getattr(acceptance, f"criterion_{k}", None)), f"criterion_{k} is gone"
