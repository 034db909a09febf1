"""Shared fixtures."""

import importlib.util
from pathlib import Path

import pytest

from webkup import flows


@pytest.fixture(scope="session")
def calibration():
    """scripts/calibrate_weights.py loaded as a module, not run: the
    weight-table solver and the derived-rules document writer."""
    path = Path(__file__).resolve().parent.parent / "scripts" / "calibrate_weights.py"
    spec = importlib.util.spec_from_file_location("calibrate_weights", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


@pytest.fixture
def shift_weight(monkeypatch):
    """Plant a wrong weight-table entry: shift(key, delta) adds delta to
    the '+' move of key = (sorted A, sorted B, x), x carried from B into
    A, and to the '-' move that mirrors it, so the mirror rule still
    holds.  Each call replaces the last one; the caller clears the caches
    of tables derived from the weights."""
    real = flows.move_weight

    def shift(key, delta):
        A, B, x = frozenset(key[0]), frozenset(key[1]), key[2]
        moved = {("+", A, B, x), ("-", A | {x}, B - {x}, x)}
        monkeypatch.setattr(flows, "move_weight", lambda *move: real(*move) + delta * (move in moved))

    return shift
