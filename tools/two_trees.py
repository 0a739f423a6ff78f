"""The command line shared by the benchmark tools that compare two trees.

A tool calls ``main(script, doc, measure, report)``.  Run with ``--base
BASE``, it runs ``script --measure`` in its own interpreter for each tree,
first BASE and then this checkout, each importing ``wgflow`` from that
tree's ``src``; ``report(base, change)`` gets the two parsed results, refuses
a mismatch with ``SystemExit`` and returns the JSON object printed on stdout.
Run with ``--measure``, the script prints ``measure()`` of the ``wgflow`` on
``sys.path`` as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")


def _child(script: str, root: str) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    out = subprocess.run(
        [sys.executable, os.path.abspath(script), "--measure"], env=env, check=True, capture_output=True, text=True
    )
    return json.loads(out.stdout)


def main(script: str, doc: str, measure, report) -> int:
    parser = argparse.ArgumentParser(description=doc.splitlines()[0])
    parser.add_argument("--base", help="checkout of the commit to compare against")
    parser.add_argument("--measure", action="store_true", help="measure the wgflow on sys.path and print JSON")
    args = parser.parse_args()
    if args.measure:
        json.dump(measure(), sys.stdout)
        return 0
    if args.base is None:
        parser.error("--base is required")
    base = _child(script, args.base)
    json.dump(report(base, _child(script, ROOT)), sys.stdout, indent=1)
    print()
    return 0
