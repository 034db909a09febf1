"""Shared fixtures."""

import importlib.util
from pathlib import Path

import pytest


@pytest.fixture(scope="session")
def calibration():
    """scripts/calibrate_weights.py loaded as a module, not run: the
    weight-table solver and the derived-rules document writer."""
    path = Path(__file__).resolve().parent.parent / "scripts" / "calibrate_weights.py"
    spec = importlib.util.spec_from_file_location("calibrate_weights", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script
