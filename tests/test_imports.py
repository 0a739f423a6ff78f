"""The package's lazy public names, and the modules each command loads."""

import json
import os
import subprocess
import sys

import wgflow

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
RUN_STACK = ("wgflow.potential", "wgflow.jko", "wgflow.particles", "wgflow.analytic")


def _imported(tmp_path, *argv):
    """The ``wgflow`` modules ``python -m wgflow.cli ARGV`` imports, read off
    ``-X importtime``; the command must exit 0."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "wgflow.cli", *argv],
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
        modules = _imported(tmp_path, *argv)
        assert {"wgflow", "wgflow.measures", "wgflow.transport"} <= modules
        assert not modules & set(RUN_STACK), (argv, modules)


def test_every_public_name_resolves():
    for name in wgflow.__all__:
        assert getattr(wgflow, name) is not None, name
    assert "Potential" in wgflow.__all__ and "potential" in wgflow.__all__
    namespace: dict = {}
    exec("from wgflow import *", namespace)
    assert set(wgflow.__all__) <= set(namespace)
    for name in wgflow.__all__:
        assert namespace[name] is getattr(wgflow, name), name
