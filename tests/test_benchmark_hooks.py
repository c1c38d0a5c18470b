"""The benchmark's traced run (perfbench/spans.py) wraps package functions by
name; each one it names must exist, so that renaming or removing one fails
here and not only in a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _wrapped():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [(module, function) for module, function, _ in spans.WRAPPED]


@pytest.mark.parametrize("module, function", _wrapped())
def test_wrapped_function_resolves(module, function):
    assert callable(getattr(importlib.import_module(f"swiptifc.{module}"), function, None))
