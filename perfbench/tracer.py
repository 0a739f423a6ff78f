"""Run one ``wgflow`` command in-process with spans at each layer boundary.

Usage: ``python3 tracer.py RUN_ID SPANS_JSON -- <wgflow arguments>``

Imports ``wgflow``, replaces every function listed in ``layers.TRACED``
wherever a ``wgflow`` module binds it, calls ``wgflow.cli.main`` and exits
with its code.  Spans ``[name, start, end, parent, run_id]`` and counters are
kept in memory and written to SPANS_JSON when the command returns.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

import numpy as np

from layers import MODULES, PAIR_KERNELS, TRACED


class Recorder:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []
        self.stack: list[int] = []
        self.counters = {"pair_evals": 0, "max_pair_elems": 0, "substeps": 0}

    def wrap(self, name: str, fn):
        spans, stack, run_id = self.spans, self.stack, self.run_id
        counters = self.counters
        pair_kernel = name in PAIR_KERNELS
        integrate = name == "particles.integrate"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if pair_kernel:
                size = int(np.size(args[1]))
                counters["pair_evals"] += size
                counters["max_pair_elems"] = max(counters["max_pair_elems"], size)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = [name, start, end, parent, run_id]
            if integrate:
                counters["substeps"] += len(result) - 1
            return result

        return traced

    def install(self):
        modules = [importlib.import_module("wgflow")]
        modules += [importlib.import_module(f"wgflow.{m}") for m in MODULES]
        wrapped: dict[int, object] = {}
        for module_name, attr, span in TRACED:
            owner = importlib.import_module(f"wgflow.{module_name}")
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, method, self.wrap(span, getattr(cls, method)))
                continue
            original = getattr(owner, attr)
            wrapped[id(original)] = (original, self.wrap(span, original))
        # Rebind each function in every module that imported it, under any alias.
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])


def main() -> int:
    run_id, spans_path, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: tracer.py RUN_ID SPANS_JSON -- <wgflow arguments>")
    import wgflow.cli

    recorder = Recorder(run_id)
    recorder.install()
    code = wgflow.cli.main(argv)
    with open(spans_path, "w") as fh:
        json.dump({"spans": recorder.spans, "counters": recorder.counters}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
