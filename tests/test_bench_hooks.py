"""The public names the benchmark's tracer wraps still exist."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_TRACING = _tracing()


@pytest.mark.parametrize("path,attr", [
    (path, attr) for path, attr, _ in _TRACING.SPANS + _TRACING.COUNTS])
def test_traced_name_resolves(path, attr):
    # the tracer replaces each name by a wrapper; a renamed or deleted one
    # would crash every traced benchmark run
    assert callable(getattr(importlib.import_module(path), attr, None))
