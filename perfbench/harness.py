"""Run ``wgflow`` jobs as fresh processes, one at a time, and check them.

Each job is started by ``launch.py``, a small process that times it from
spawn to exit and reads its peak resident set from the job's own ``wait4``
rusage (``RUSAGE_CHILDREN`` keeps the maximum over every earlier child).  A
job fails when it exits non-zero or its output check fails; a failure never
stops the other jobs.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass

from workloads import CheckFailure, Job

HERE = os.path.dirname(os.path.abspath(__file__))
TRACER = os.path.join(HERE, "tracer.py")
SETUP_CHILD = os.path.join(HERE, "setup_child.py")
LAUNCH = os.path.join(HERE, "launch.py")
OUT = "out"


@dataclass
class JobResult:
    name: str
    wall_s: float
    peak_rss_mb: float
    failure: str | None
    output_bytes: int = 0
    csv_rows: int = 0
    trace: dict | None = None


def _output_stats(out_dir: str, stdout: bytes) -> tuple[int, int]:
    """Bytes the command wrote (files and stdout) and CSV data rows."""
    total, rows = len(stdout), 0
    if os.path.isdir(out_dir):
        for entry in os.scandir(out_dir):
            total += entry.stat().st_size
            if entry.name.endswith(".csv"):
                with open(entry.path, "rb") as fh:
                    rows += fh.read().count(b"\n") - 1
    return total, rows


class Runner:
    """Spawns children in ``workdir`` with ``src`` of ``root`` on the path,
    killing any child still running at ``deadline`` (a ``time.monotonic``)."""

    def __init__(self, root: str, workdir: str, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        src = os.path.join(root, "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)

    def spawn(self, argv: list[str], stdout_path: str, stderr_path: str) -> tuple[float, float, int]:
        """Run ``argv`` to completion; returns (wall s, peak RSS MB, exit code).

        The child is started by ``launch.py``, which times it and takes its
        ``wait4`` rusage; see there why this process must not spawn it.
        """
        timeout = max(1.0, self.deadline - time.monotonic())
        outputs = [os.path.abspath(stdout_path), os.path.abspath(stderr_path)]
        launcher = [sys.executable, "-S", LAUNCH, *outputs, repr(timeout), "--"]
        proc = subprocess.run(
            launcher + argv, cwd=self.workdir, env=self.env, capture_output=True, text=True, timeout=timeout + 30.0
        )
        if proc.returncode != 0:
            raise RuntimeError(f"launch.py exit code {proc.returncode}: {proc.stderr.strip()}")
        wall, rss_kib, code = proc.stdout.split()
        return float(wall), int(rss_kib) / 1024.0, int(code)

    def run_job(self, job: Job, traced: bool = False, run_id: str = "") -> JobResult:
        out_rel = os.path.join(OUT, job.name)
        base = out_dir = os.path.join(self.workdir, out_rel)
        prefix = [sys.executable, "-m", "wgflow.cli"]
        if traced:
            prefix = [sys.executable, TRACER, run_id, base + ".spans.json", "--"]
        wall, rss, code = self.spawn(prefix + job.command(out_rel), base + ".stdout", base + ".stderr")
        with open(base + ".stdout", "rb") as fh:
            stdout = fh.read()
        result = JobResult(job.name, wall, rss, None)
        if code != 0:
            with open(base + ".stderr", "rb") as fh:
                tail = fh.read()[-400:].decode(errors="replace").strip()
            result.failure = f"exit code {code}: {tail}"
        else:
            try:
                job.check(out_dir, stdout.decode())
            except CheckFailure as exc:
                result.failure = f"check: {exc}"
            except Exception as exc:  # an unreadable output is a failed job
                result.failure = f"check raised {type(exc).__name__}: {exc}"
        if traced and code == 0:
            result.output_bytes, result.csv_rows = _output_stats(out_dir, stdout)
            with open(base + ".spans.json") as fh:
                result.trace = json.load(fh)
        return result

    def run_pass(self, jobs: list[Job], traced: bool = False, pass_id: int = 0) -> list[JobResult]:
        """Every job once, in order, in a fresh output directory."""
        out = os.path.join(self.workdir, OUT)
        shutil.rmtree(out, ignore_errors=True)
        os.makedirs(out)
        results = [self.run_job(job, traced, f"{pass_id}.{k}") for k, job in enumerate(jobs)]
        shutil.rmtree(out, ignore_errors=True)
        return results

    def setup_time(self, inputs: list[str]) -> tuple[float, str | None]:
        """Wall time of a fresh process that imports wgflow and validates ``inputs``."""
        base = os.path.join(self.workdir, "setup")
        wall, _, code = self.spawn([sys.executable, SETUP_CHILD] + inputs, base + ".stdout", base + ".stderr")
        if code == 0:
            return wall, None
        with open(base + ".stderr", "rb") as fh:
            return wall, f"set-up exit code {code}: {fh.read()[-400:].decode(errors='replace').strip()}"
