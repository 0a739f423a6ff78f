"""In-process timings of the power-term pair kernels: this checkout against a base.

Usage, from the root of a checkout, with the base commit unpacked elsewhere::

    mkdir ../7e0224c && git archive 7e0224c | tar -x -C ../7e0224c
    python3 tools/bench_pair_kernels.py --base ../7e0224c/src > BENCH_pair_kernels.json

The output names the base by its checkout's directory.

Each side is timed in its own interpreter, with its ``src`` first on the
path.  For n in ``SIZES`` and p in ``EXPONENTS`` the points are n sorted
standard normal draws (seed 0) with weights 1/n, and W = |x|^p.  Two
operations are timed:

- ``energy_force``: the energy and the cone force of one accepted iterate of
  the implicit step, from ``pair_energy_force`` where the side has it and
  otherwise from ``pair_energy`` followed by ``pair_force``;
- ``hessian``: one ``pair_hessian`` product with a fixed random vector.

Each time is the median over ``REPEATS`` rounds of the seconds per call,
each round as many calls as take at least 0.2 s (``timeit``'s autorange).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import timeit
import warnings

SIZES = (200, 400, 1000, 4000)
EXPONENTS = (1.25, 1.5, 3.0)
REPEATS = 5


def _time(fn) -> float:
    timer = timeit.Timer(fn)
    number, _ = timer.autorange()
    return statistics.median(t / number for t in timer.repeat(REPEATS, number))


def time_side(src: str) -> dict:
    """Median seconds per call of each operation, keyed ``"op n p"``."""
    sys.path.insert(0, os.path.abspath(src))
    import numpy as np
    from wgflow import potential

    out = {}
    for n in SIZES:
        rng = np.random.default_rng(0)
        x = np.sort(rng.standard_normal(n))
        m = np.full(n, 1.0 / n)
        v = rng.standard_normal(n)
        for p in EXPONENTS:
            W = potential.Potential(terms=((1.0, p),))
            if hasattr(potential, "pair_energy_force"):
                def both(W=W):
                    return potential.pair_energy_force(W, x, m, cone=True)
            else:
                def both(W=W):
                    return potential.pair_energy(W, x, m), potential.pair_force(W, x, m, cone=True)
            out[f"energy_force {n} {p}"] = _time(both)
            with warnings.catch_warnings():
                # a Hessian whose tie weight is inf (p > 2) warns on every call
                warnings.simplefilter("ignore", RuntimeWarning)
                out[f"hessian {n} {p}"] = _time(lambda W=W: potential.pair_hessian(W, x, m, v))
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="the base checkout's src directory")
    parser.add_argument("--side", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.side:
        json.dump(time_side(args.side), sys.stdout)
        return 0
    here = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    times = {}
    for name, src in (("base", args.base), ("change", here)):
        run = subprocess.run(
            [sys.executable, __file__, "--base", args.base, "--side", src],
            check=True, capture_output=True, text=True,
        )
        times[name] = json.loads(run.stdout)
    rows = []
    for key in times["base"]:
        op, n, p = key.split()
        base, change = times["base"][key], times["change"][key]
        rows.append({
            "op": op, "n": int(n), "p": float(p),
            "base_s": base, "change_s": change, "speedup": base / change,
        })
    json.dump({
        "command": "python3 tools/bench_pair_kernels.py --base <base checkout>/src",
        "base": os.path.basename(os.path.dirname(os.path.abspath(args.base))),
        "host": f"{platform.machine()}, {os.cpu_count()} CPUs, Python {platform.python_version()}",
        "timing": f"median of {REPEATS} rounds of seconds per call (timeit autorange)",
        "results": rows,
    }, sys.stdout, indent=1)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
