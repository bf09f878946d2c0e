"""The names perfbench's traced run wraps still exist in the package.

The tracer replaces module attributes from outside the package
(`perfbench/layers.py::WRAP_POINTS`); a name that moves would crash the
traced run or leave its metric silently at 0.  The file is loaded by path,
so the benchmark itself is not imported or changed.
"""
import importlib
import importlib.util
from pathlib import Path

import pytest

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def wrap_points():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers.WRAP_POINTS


@pytest.mark.parametrize("module, attr", [point[:2] for point in wrap_points()])
def test_wrap_point_exists(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None))
