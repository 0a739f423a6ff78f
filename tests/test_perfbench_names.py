"""Every function the benchmark's tracer wraps exists in ``wgflow``.

``perfbench/tracer.py`` looks each ``layers.TRACED`` entry up with a bare
``getattr``, so a renamed or deleted function would otherwise surface only
when a traced benchmark run starts.
"""

import importlib
import importlib.util
import os

import pytest

LAYERS_PATH = os.path.join(os.path.dirname(__file__), "..", "perfbench", "layers.py")


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS_PATH)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return [(module, attr) for module, attr, _ in layers.TRACED]


@pytest.mark.parametrize("module, attr", _traced())
def test_traced_name_resolves(module, attr):
    owner = importlib.import_module(f"wgflow.{module}")
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner), f"{module}.{attr} is not callable"
