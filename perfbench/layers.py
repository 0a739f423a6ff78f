"""Layer boundaries of ``wgflow`` and the per-layer metrics built from spans.

``TRACED`` lists the functions the tracer wraps, each as (module, attribute,
span name).  A span name is ``<module>.<function>``; the per-layer metrics
``<span name>.calls`` and ``<span name>.s`` are the number of spans with that
name and their summed duration (inclusive of nested spans), and
``<module>.self_s`` is the module's self time: span durations minus the part
covered by their child spans.
"""

from __future__ import annotations

import statistics

import numpy as np

MODULES = ("measures", "transport", "potential", "jko", "particles", "analytic", "cli")

TRACED = (
    ("measures", "to_quantile_grid", "measures.to_quantile_grid"),
    ("transport", "w2_quantile", "transport.w2_quantile"),
    ("transport", "solve_primal", "transport.solve_primal"),
    ("transport", "solve_dual", "transport.solve_dual"),
    ("potential", "interaction_energy", "potential.interaction_energy"),
    ("potential", "velocity_profile", "potential.velocity_profile"),
    ("potential", "convexity_certificate", "potential.convexity_certificate"),
    ("potential", "evaluate", "potential.evaluate"),
    ("potential", "smooth_part", "potential.smooth_part"),
    ("potential", "deriv_smooth", "potential.deriv_smooth"),
    ("jko", "run_flow", "jko.run_flow"),
    ("jko", "jko_step", "jko.jko_step"),
    ("jko", "_pava", "jko.pava"),
    ("jko", "evi_residual", "jko.evi_residual"),
    ("jko", "energy_identity_residual", "jko.energy_identity_residual"),
    ("particles", "integrate", "particles.integrate"),
    ("particles", "ode_rhs", "particles.ode_rhs"),
    ("particles", "quantile_trajectory", "particles.quantile_trajectory"),
    ("analytic", "weak_residual", "analytic.weak_residual"),
    ("analytic", "metric_derivative_estimate", "analytic.metric_derivative_estimate"),
    ("cli", "main", "cli.main"),
    ("cli", "cmd_run", "cli.cmd_run"),
    ("cli", "cmd_ot", "cli.cmd_ot"),
    ("cli", "ExperimentConfig.validate", "cli.validate"),
    ("cli", "_run_diagnostics", "cli.diagnostics"),
    ("cli", "_write_grid_trajectory", "cli.write_trajectory"),
    ("cli", "_write_particle_trajectory", "cli.write_trajectory"),
    ("cli", "_write_summary", "cli.write_summary"),
)

# Pairwise kernels: every array they receive is one n x n (or m x m) block of
# pair differences, so its size counts pair evaluations.
PAIR_KERNELS = frozenset({"potential.evaluate", "potential.smooth_part", "potential.deriv_smooth"})

# Metrics read off spans: name -> (span name, "calls" or "s").
_SPAN_METRICS = {
    f"{span}.{kind}": (span, kind)
    for span, kinds in (
        ("measures.to_quantile_grid", ("calls", "s")),
        ("transport.w2_quantile", ("calls", "s")),
        ("transport.solve_primal", ("s",)),
        ("transport.solve_dual", ("s",)),
        ("potential.interaction_energy", ("calls", "s")),
        ("potential.velocity_profile", ("calls", "s")),
        ("potential.convexity_certificate", ("s",)),
        ("jko.run_flow", ("s",)),
        ("jko.jko_step", ("calls", "s")),
        ("jko.evi_residual", ("s",)),
        ("jko.energy_identity_residual", ("s",)),
        ("particles.integrate", ("s",)),
        ("particles.ode_rhs", ("calls",)),
        ("particles.quantile_trajectory", ("s",)),
        ("analytic.weak_residual", ("s",)),
        ("analytic.metric_derivative_estimate", ("s",)),
        ("cli.validate", ("s",)),
        ("cli.write_trajectory", ("s",)),
        ("cli.write_summary", ("s",)),
    )
    for kind in kinds
}

# Counts that must repeat exactly between traced runs of one seed.
COUNTS = (
    "jko.pava_calls",
    "potential.pair_evals",
    "particles.substeps",
    "cli.csv_rows",
    "cli.output_bytes",
)

# Fewer traced steps than this leave fewer than ten samples beyond the 99th
# percentile; the percentile then reads 0.
P99_MIN_SAMPLES = 1000


def self_times(spans) -> dict[str, float]:
    """Self time per module from spans ``[name, start, end, parent, run_id]``."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out = dict.fromkeys(MODULES, 0.0)
    for k, (name, start, end, _, _) in enumerate(spans):
        out[name.split(".", 1)[0]] += end - start - child[k]
    return out


def pass_metrics(traces: list[dict], outputs: list[tuple[int, int]]) -> tuple[dict, list[float]]:
    """Metrics of one traced pass over a workload's jobs, plus its step times.

    ``traces`` holds each job's tracer record, ``outputs`` each job's
    (bytes written, CSV data rows).
    """
    calls: dict[str, int] = {}
    secs: dict[str, float] = {}
    selfs = dict.fromkeys(MODULES, 0.0)
    steps_ms: list[float] = []
    counters = {"pair_evals": 0, "max_pair_elems": 0, "substeps": 0}
    spans_total = 0
    for trace in traces:
        spans = trace["spans"]
        spans_total += len(spans)
        for name, start, end, _, _ in spans:
            calls[name] = calls.get(name, 0) + 1
            secs[name] = secs.get(name, 0.0) + (end - start)
            if name == "jko.jko_step":
                steps_ms.append(1e3 * (end - start))
        for module, value in self_times(spans).items():
            selfs[module] += value
        c = trace["counters"]
        counters["pair_evals"] += c["pair_evals"]
        counters["max_pair_elems"] = max(counters["max_pair_elems"], c["max_pair_elems"])
        counters["substeps"] += c["substeps"]
    metrics: dict[str, float] = {}
    for metric, (span, kind) in _SPAN_METRICS.items():
        metrics[metric] = calls.get(span, 0) if kind == "calls" else secs.get(span, 0.0)
    steps = calls.get("jko.jko_step", 0)
    metrics["jko.pava_calls"] = calls.get("jko.pava", 0)
    metrics["jko.pava_per_step"] = metrics["jko.pava_calls"] / steps if steps else 0.0
    metrics["potential.pair_evals"] = counters["pair_evals"]
    metrics["potential.max_temp_mb"] = 8.0 * counters["max_pair_elems"] / 2**20
    metrics["particles.substeps"] = counters["substeps"]
    metrics["cli.output_bytes"] = sum(b for b, _ in outputs)
    metrics["cli.csv_rows"] = sum(r for _, r in outputs)
    for module, value in selfs.items():
        metrics[f"{module}.self_s"] = value
    metrics["trace.spans"] = spans_total
    return metrics, steps_ms


def combine(passes: list[dict], steps_ms: list[float], overhead_s: list[float], traced_wall_s: list[float]) -> tuple[dict, list[str]]:
    """Per-layer metrics over traced passes: medians of times, the counts of
    the first pass, and step-time percentiles over all traced steps.

    Returns the metrics and a list of counts that differed between passes.
    """
    out: dict[str, float] = {}
    unsteady = []
    for name in passes[0]:
        values = [p[name] for p in passes]
        if name in COUNTS or name.endswith(".calls") or name == "trace.spans":
            out[name] = values[0]
            if any(v != values[0] for v in values):
                unsteady.append(name)
        else:
            out[name] = statistics.median(values)
    out["jko.step_ms.p50"] = statistics.median(steps_ms) if steps_ms else 0.0
    if len(steps_ms) >= P99_MIN_SAMPLES:
        out["jko.step_ms.p99"] = float(np.percentile(steps_ms, 99, method="inverted_cdf"))
    else:
        out["jko.step_ms.p99"] = 0.0
    out["trace.overhead_s"] = statistics.median(overhead_s)
    out["trace.wall_s"] = statistics.median(traced_wall_s)
    return out, unsteady
