import importlib.util
import pathlib
import sys

import pytest


@pytest.fixture
def layer_counters(monkeypatch):
    """``scripts/layer_counters.py``, loaded as a module."""
    path = pathlib.Path(__file__).parents[1] / "scripts" / "layer_counters.py"
    spec = importlib.util.spec_from_file_location("layer_counters", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script extends it
    spec.loader.exec_module(module)
    return module
