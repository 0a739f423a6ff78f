"""The package's lazy public names, and the modules each command loads."""

import json
import os
import subprocess
import sys

import pytest

import wgflow

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
# what the ``wgflow`` console script runs
MAIN = "import sys; from wgflow.cli import main; sys.exit(main(sys.argv[1:]))"
RUN_BASE = {"wgflow", "wgflow.cli", "wgflow.measures", "wgflow.potential", "wgflow.jko"}

JKO = {
    "potential": {"eta": -1.0},
    "initial": {"atoms": [[0.0, 1.0]]},
    "method": "jko",
    "tau": 0.01,
    "t_end": 0.02,
    "n": 8,
}
PARTICLES = {
    "potential": {"eta": 1.0},
    "initial": {"atoms": [[-1.0, 0.5], [1.0, 0.5]]},
    "method": "particles",
    "dt": 0.01,
    "t_end": 0.05,
    "n": 8,
}
EXACT = dict(JKO, method="exact")
OTHER_DIAGNOSTICS = {"energy_identity": True, "evi_sigma": {"pieces": [[-1.0, 1.0, 1.0]]}}


def _loaded(tmp_path, code, *argv):
    """The ``wgflow`` modules ``python -c CODE ARGV`` imports, read off
    ``-X importtime``; it must exit 0."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", code, *argv],
        cwd=tmp_path, env=env, capture_output=True, text=True,
    )
    assert out.returncode == 0, out.stderr
    lines = [line.rsplit("|", 1) for line in out.stderr.splitlines() if line.startswith("import time:")]
    return {name.strip() for _, name in lines if name.strip().startswith("wgflow")}


def test_ot_and_w2_load_only_the_transport_modules(tmp_path):
    instance = {"sources": [[[0.0], 0.5], [[1.0], 0.5]], "sinks": [[[0.5], 1.0]]}
    (tmp_path / "i.json").write_text(json.dumps(instance))
    (tmp_path / "a.json").write_text(json.dumps({"atoms": [[0.0, 1.0]]}))
    (tmp_path / "b.json").write_text(json.dumps({"atoms": [[1.0, 0.5], [2.0, 0.5]]}))
    for argv in (("ot", "i.json"), ("w2", "a.json", "b.json")):
        modules = _loaded(tmp_path, MAIN, *argv)
        assert modules == {"wgflow", "wgflow.cli", "wgflow.measures", "wgflow.transport"}, argv


@pytest.mark.parametrize(
    "config, extra",
    [
        (JKO, set()),
        (dict(JKO, diagnostics=OTHER_DIAGNOSTICS), set()),
        (dict(JKO, diagnostics={"weak_residual": True}), {"wgflow.analytic"}),
        (PARTICLES, {"wgflow.particles"}),
        (dict(PARTICLES, diagnostics={"weak_residual": True}), {"wgflow.particles", "wgflow.analytic"}),
        (EXACT, {"wgflow.analytic"}),
    ],
    ids=["jko", "jko_diagnostics", "jko_weak_residual", "particles", "particles_weak_residual", "exact"],
)
def test_a_run_loads_only_the_modules_it_runs(tmp_path, config, extra):
    # the particle and weak-residual modules only for the runs that use
    # them, and never ``transport``
    (tmp_path / "c.json").write_text(json.dumps(config))
    assert _loaded(tmp_path, MAIN, "run", "--config", "c.json", "--out", "out", "--quiet") == RUN_BASE | extra


def test_validating_a_config_does_not_load_transport(tmp_path):
    code = (
        "import json, sys; from wgflow.cli import ExperimentConfig; "
        "ExperimentConfig.from_json_dict(json.loads(sys.argv[1]))"
    )
    for config in (JKO, PARTICLES, EXACT):
        modules = _loaded(tmp_path, code, json.dumps(config))
        assert "wgflow.transport" not in modules and "wgflow.analytic" not in modules, modules


def test_every_public_name_resolves():
    for name in wgflow.__all__:
        assert getattr(wgflow, name) is not None, name
    assert "Potential" in wgflow.__all__ and "potential" in wgflow.__all__
    namespace: dict = {}
    exec("from wgflow import *", namespace)
    assert set(wgflow.__all__) <= set(namespace)
    for name in wgflow.__all__:
        assert namespace[name] is getattr(wgflow, name), name
