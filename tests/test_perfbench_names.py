"""Every name the benchmark takes from ``wgflow`` exists there.

``perfbench/tracer.py`` looks each ``layers.TRACED`` entry up with a bare
``getattr``, and the ``perfbench/*.py`` files import names from ``wgflow``,
many inside the functions that build a workload; a renamed or deleted name
would otherwise surface only when a benchmark run starts.
"""

import ast
import glob
import importlib
import importlib.util
import os

import pytest

PERFBENCH = os.path.join(os.path.dirname(__file__), "..", "perfbench")
LAYERS_PATH = os.path.join(PERFBENCH, "layers.py")


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS_PATH)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return [(module, attr) for module, attr, _ in layers.TRACED]


def _imported():
    """``(module, name)`` for each ``from wgflow... import name`` in a
    ``perfbench/*.py`` file, at any depth, and ``(module, "")`` for each
    ``import wgflow...``."""
    found = set()
    for path in glob.glob(os.path.join(PERFBENCH, "*.py")):
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == "wgflow":
                found.update((node.module, alias.name) for alias in node.names)
            elif isinstance(node, ast.Import):
                found.update((a.name, "") for a in node.names if a.name.split(".")[0] == "wgflow")
    return sorted(found)


@pytest.mark.parametrize("module, attr", _traced())
def test_traced_name_resolves(module, attr):
    owner = importlib.import_module(f"wgflow.{module}")
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner), f"{module}.{attr} is not callable"


@pytest.mark.parametrize("module, name", _imported())
def test_perfbench_import_resolves(module, name):
    owner = importlib.import_module(module)
    # as ``from module import name`` does: an attribute, else a submodule
    if name and not hasattr(owner, name):
        importlib.import_module(f"{module}.{name}")


def test_imports_inside_functions_are_found():
    # workloads.py imports these inside the functions that build a workload
    assert {("wgflow.potential", "curvature_bound"), ("wgflow.analytic", "collapse_time")} <= set(_imported())
