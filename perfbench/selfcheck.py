"""Show that the output oracles have teeth.

Usage, from the root of a checkout: ``python3 perfbench/selfcheck.py``

Runs each checked job of every workload once at seed 0 and requires its
check to pass; then corrupts the output and requires the check to fail: the
final state of every trajectory shifted by 1e-6, and a transport objective
off by a relative 1e-6.  A job whose config the CLI refuses (exit code 2)
must count as failed.  Exits 0 when every corruption is caught.
"""

from __future__ import annotations

import os
import shutil
import sys
import tempfile
import time

import harness
import workloads
from workloads import CheckFailure, Job

SHIFT = 1e-6


def shift_final_state(path: str, column: int, delta: float):
    """Add ``delta`` to ``column`` of every CSV row at the last recorded time."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    last_t = lines[-1].split(",")[0]
    for k in range(len(lines) - 1, 0, -1):
        fields = lines[k].split(",")
        if fields[0] != last_t:
            break
        fields[column] = repr(float(fields[column]) + delta)
        lines[k] = ",".join(fields)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _bites(job: Job, out_dir: str, stdout: str) -> str | None:
    try:
        job.check(out_dir, stdout)
    except CheckFailure as exc:
        return str(exc)
    return None


def main() -> int:
    root = os.getcwd()
    sys.path.insert(0, os.path.join(root, "src"))
    os.makedirs(".bench_build", exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="selfcheck-", dir=".bench_build")
    runner = harness.Runner(root, workdir, time.monotonic() + 600.0)
    missed = 0

    def report(case: str, caught: str | None):
        nonlocal missed
        missed += caught is None
        print(f"{'caught' if caught else 'MISSED'}  {case}: {caught or 'the check passed'}")

    try:
        os.makedirs(os.path.join(workdir, harness.OUT))
        for name in workloads.NAMES:
            for job in workloads.build(name, 0, workdir):
                result = runner.run_job(job)
                if result.failure:
                    print(f"ERROR   {name}/{job.name} fails uncorrupted: {result.failure}")
                    missed += 1
                    continue
                out_dir = os.path.join(workdir, harness.OUT, job.name)
                with open(os.path.join(workdir, harness.OUT, job.name + ".stdout")) as fh:
                    stdout = fh.read()
                if job.argv[0] == "ot":
                    primal = workloads.read_ot_stdout(stdout)["primal"]
                    wrong = "".join(
                        f"primal {primal * (1 + SHIFT)!r}\n" if line.startswith("primal ") else line
                        for line in stdout.splitlines(keepends=True)
                    )
                    report(f"{name}/{job.name} wrong OT objective", _bites(job, out_dir, wrong))
                else:
                    column = 2 if job.name == "particles" else 3
                    shift_final_state(os.path.join(out_dir, "trajectory.csv"), column, SHIFT)
                    report(f"{name}/{job.name} final state shifted by {SHIFT}", _bites(job, out_dir, stdout))
        bad = workloads.build("cusp_readme", 0, workdir)[0]
        bad.argv = ["run", "--config", "refused.json", "--out", "{out}", "--quiet"]
        with open(os.path.join(workdir, "readme.json")) as fh:
            cfg = fh.read().replace('"tau": 0.001', '"tau": 0.1')
        with open(os.path.join(workdir, "refused.json"), "w") as fh:
            fh.write(cfg)
        report("config refused with a non-zero exit", runner.run_job(bad).failure)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("all corruptions caught" if not missed else f"{missed} corruption(s) missed")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
