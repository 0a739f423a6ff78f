"""The command line shared by the benchmark tools that compare two trees.

A tool calls ``main(script, doc, measure, report, passes)``.  Run with
``--base BASE``, it runs ``script --measure`` in its own interpreter for each
tree, first BASE and then this checkout, each importing ``wgflow`` from that
tree's ``src``, and does so ``passes`` times in turn.  Each tree's passes
merge into one result (``_merge``): the least of each time, page-fault
count and peak RSS, beside each time its spread over the passes, every other
value the same in every pass.  ``report(base, change)`` gets the two merged
results, refuses a mismatch with ``SystemExit`` and returns the JSON object
printed on stdout.  Run with ``--measure``, the script prints ``measure()``
of the ``wgflow`` on ``sys.path`` as JSON.  ``least_time`` is the per-call
timing of ``bench_exact.py`` and ``bench_trajectory.py``, and ``wgflow_run``
the peak RSS of one ``wgflow run`` process, compiling its source and from
bytecode, for ``bench_particles.py`` and ``bench_trajectory.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import timeit

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")


def least_time(fn, rounds: int) -> float:
    """Seconds per call of ``fn``: the least over ``rounds`` rounds, each of
    as many calls as take at least 0.2 s (``timeit``'s autorange).  On a
    shared host a round can only be slowed, so the least is the steadiest
    reading."""
    timer = timeit.Timer(fn)
    number, _ = timer.autorange()
    return min(t / number for t in timer.repeat(rounds, number))


def wgflow_run(config_path: str, out_dir: str) -> dict:
    """Peak RSS of one ``wgflow run`` process, read two ways, and its
    summary's sha256.  ``max_rss_kib`` compiles ``wgflow`` from its source,
    as perfbench's processes do; ``bytecode_max_rss_kib`` reads bytecode
    compiled beforehand.  The launches share a temporary
    ``PYTHONPYCACHEPREFIX``, so the tree gets no ``__pycache__``: a first
    launch fills it, the second reads it, and the third reads it with the
    ``wgflow`` package's part removed, the rest (numpy, the standard
    library) still compiled.  Each process is spawned by
    ``perfbench/launch.py``, which is small: at ``exec`` Linux carries the
    spawning process's peak into the child's."""
    import wgflow

    argv = [sys.executable, "-m", "wgflow.cli", "run", "--config", config_path, "--out", out_dir, "--quiet"]
    package = os.path.normpath(os.path.dirname(os.path.abspath(wgflow.__file__)))
    with tempfile.TemporaryDirectory() as prefix:
        env = dict(os.environ, PYTHONPYCACHEPREFIX=prefix)
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        _launch(argv, out_dir, env)
        env["PYTHONDONTWRITEBYTECODE"] = "1"
        bytecode = _launch(argv, out_dir, env)
        shutil.rmtree(os.path.join(prefix, package.lstrip(os.sep)))
        source = _launch(argv, out_dir, env)
    with open(os.path.join(out_dir, "summary.csv"), "rb") as fh:
        summary = hashlib.sha256(fh.read()).hexdigest()
    return {"max_rss_kib": source, "bytecode_max_rss_kib": bytecode, "summary_sha256": summary}


def _launch(argv: list, out_dir: str, env: dict) -> int:
    """The ``ru_maxrss`` in KiB of ``argv`` run under ``env`` by
    ``perfbench/launch.py``; it must exit 0."""
    launch = os.path.join(ROOT, "perfbench", "launch.py")
    logs = [out_dir + ext for ext in (".out", ".err")]
    line = subprocess.run(
        [sys.executable, "-S", launch, *logs, "600", "--", *argv], env=env, check=True, capture_output=True, text=True
    ).stdout
    _, kib, code = line.split()
    if code != "0":
        raise SystemExit(f"wgflow run exited with {code}")
    return int(kib)


def _child(script: str, root: str) -> dict:
    # no ``__pycache__`` is written into either tree
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run(
        [sys.executable, os.path.abspath(script), "--measure"], env=env, check=True, capture_output=True, text=True
    )
    return json.loads(out.stdout)


def _merge(passes: list, key: str = ""):
    """One result from a tree's passes: a number under a key ``s`` or ending
    in ``_s`` is a time, one ending in ``_faults`` or ``_kib`` a page-fault
    count or a peak RSS, and the least is kept, as a busy host only adds to
    them; beside each time, under its key plus ``_spread``, goes the largest
    pass over the least, which is 1.0 when the passes repeat.  Any other
    value must be the same in every pass."""
    first = passes[0]
    if isinstance(first, dict):
        merged = {}
        for k in first:
            values = [p[k] for p in passes]
            merged[k] = _merge(values, k)
            if _is_time(k):
                merged[f"{k}_spread"] = max(values) / min(values)
        return merged
    if _is_time(key) or key.endswith(("_faults", "_kib")):
        return min(passes)
    if any(p != first for p in passes):
        raise SystemExit(f"{key} differs between passes of one tree")
    return first


def _is_time(key: str) -> bool:
    return key == "s" or key.endswith("_s")


def main(script: str, doc: str, measure, report, passes: int = 1) -> int:
    parser = argparse.ArgumentParser(description=doc.splitlines()[0])
    parser.add_argument("--base", help="checkout of the commit to compare against")
    parser.add_argument("--measure", action="store_true", help="measure the wgflow on sys.path and print JSON")
    args = parser.parse_args()
    if args.measure:
        json.dump(measure(), sys.stdout)
        return 0
    if args.base is None:
        parser.error("--base is required")
    runs: dict[str, list] = {args.base: [], ROOT: []}
    for _ in range(passes):
        # alternating the trees spreads a slow spell of the host over both
        for root, results in runs.items():
            results.append(_child(script, root))
    base, change = (_merge(results) for results in runs.values())
    json.dump(report(base, change), sys.stdout, indent=1)
    print()
    return 0
