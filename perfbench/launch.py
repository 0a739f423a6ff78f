"""Spawn one command, wait for it, and report its own wall time and peak RSS.

Usage: ``python3 -S launch.py STDOUT STDERR TIMEOUT_S -- ARGV...``

Prints one line ``<wall s> <peak RSS KiB> <exit code>`` and exits 0 (2 on a
usage error).  The child's stdout and stderr go to the two files.  A child
still running after TIMEOUT_S seconds is killed.

The peak RSS is the child's ``wait4`` ``ru_maxrss``.  At ``exec`` Linux
carries the RSS high-water mark of the spawning process into the child's
figure, so the spawning process must be small: this launcher imports only
``os``, ``signal``, ``sys`` and ``time``.  Spawned straight from the
benchmark, which holds numpy, scipy and the trajectories it checks, a small
child would read as large as the benchmark.
"""

import os
import signal
import sys
import time


def main() -> int:
    args = sys.argv[1:]
    if len(args) < 5 or args[3] != "--":
        print("usage: launch.py STDOUT STDERR TIMEOUT_S -- ARGV...", file=sys.stderr)
        return 2
    stdout_path, stderr_path, timeout, argv = args[0], args[1], float(args[2]), args[4:]
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, stdout_path, flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, stderr_path, flags, 0o644),
    ]
    start = time.perf_counter()
    pid = os.posix_spawnp(argv[0], argv, os.environ, file_actions=actions)
    signal.signal(signal.SIGALRM, lambda *_: os.kill(pid, signal.SIGKILL))
    signal.setitimer(signal.ITIMER_REAL, timeout)
    _, status, usage = os.wait4(pid, 0)  # retried after the alarm's handler
    wall = time.perf_counter() - start
    signal.setitimer(signal.ITIMER_REAL, 0)
    print(f"{wall!r} {usage.ru_maxrss} {os.waitstatus_to_exitcode(status)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
