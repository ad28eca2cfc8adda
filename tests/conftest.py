import importlib.util
import pathlib
import sys

import pytest


def _script(name, monkeypatch):
    """``scripts/<name>.py``, loaded as a module."""
    path = pathlib.Path(__file__).parents[1] / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "path", list(sys.path))  # a script may extend it
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def layer_counters(monkeypatch):
    return _script("layer_counters", monkeypatch)


@pytest.fixture
def startup_counters(monkeypatch):
    return _script("startup_counters", monkeypatch)
