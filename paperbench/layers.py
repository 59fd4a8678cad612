"""Per-layer metrics of a traced run, one value per traced iteration.

Each metric is the median over traced iterations.  A metric of a layer
the workload bypasses reads 0.  Span-derived times are inclusive: the
summed duration of the outermost spans of that name, over the main
process and every pool worker, so parallel workers can add up to more
than the wall time.  The ``account.*`` metrics are different: they split
the main process's cold wall time by self time (see ``spans.py``), and
``account.uncovered_s`` is what no named layer claims.
"""

from __future__ import annotations

import statistics

from spans import LAYERS, layer_account, outermost

#: metric -> (span name, unit) for inclusive span times.
SPAN_TIMES = {
    "exec.submit_s": "exec.submit",
    "exec.cache.get_s": "exec.cache.get",
    "exec.cache.put_s": "exec.cache.put",
    "exec.ledger.append_s": "exec.ledger.append",
    "sqed.circuit_build_s": "sqed.circuit_build",
    "sqed.ed.build_s": "sqed.ed.build",
    "qaoa.ndar_s": "qaoa.ndar",
    "reservoir.run_s": "reservoir.run",
    "reservoir.readout_s": "reservoir.readout",
    "compile.synthesis_s": "compile.synthesis",
    "core.density.run_s": "core.density.run",
    "core.auto.select_s": "core.auto.select",
    "core.lpdo.run_s": "core.lpdo.run",
    "core.trajectories.run_s": "core.trajectories.run",
    "kernel.svd_s": "kernel.svd",
    "kernel.eigh_s": "kernel.eigh",
    "kernel.expm_s": "kernel.expm",
    "kernel.qr_s": "kernel.qr",
}

#: metric -> span name whose calls are counted.
SPAN_CALLS = {
    "exec.submits": "exec.submit",
    "exec.ledger.records": "exec.ledger.append",
    "kernel.svd.calls": "kernel.svd",
    "kernel.eigh.calls": "kernel.eigh",
    "kernel.expm.calls": "kernel.expm",
    "kernel.qr.calls": "kernel.qr",
}

#: metric -> (span name, count key) summed over spans.
SPAN_COUNTS = {
    "exec.cache.hits": ("exec.cache.get", "hit"),
    "exec.cache.misses": ("exec.cache.get", "miss"),
    "sqed.instructions": ("sqed.circuit_build", "instructions"),
    "compile.synthesis.iterations": ("compile.bfgs", "iterations"),
    "compile.synthesis.cost_evals": ("compile.bfgs", "cost_evals"),
    "core.density.instructions": ("core.density.run", "instructions"),
    "kernel.eigh.flops": ("kernel.eigh", "flops"),
}

TASKS = ("sqed.task", "qaoa.task", "reservoir.task")


def _units(name: str) -> str:
    if name.endswith("_s") or name.startswith("exec.point_s."):
        return "s"
    if name.endswith("_frac") or name in ("account.coverage", "trace.overhead"):
        return "ratio"
    if name.endswith(".flops"):
        return "flop"
    if name.endswith("us_per_instruction"):
        return "us"
    return "count"


def _quantile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def iteration_metrics(record, spans, main, workers, handles, width) -> dict:
    """Metrics of one traced iteration.

    ``spans`` are all spans that started inside the iteration's window
    (cold start to the next iteration's cold start), in every process.
    """
    out: dict[str, float] = {}
    by_name: dict[str, list] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)
    for metric, name in SPAN_TIMES.items():
        out[metric] = sum(s.duration for s in outermost(by_name.get(name, []), name))
    for metric, name in SPAN_CALLS.items():
        out[metric] = float(len(by_name.get(name, [])))
    for metric, (name, key) in SPAN_COUNTS.items():
        out[metric] = float(sum(s.counts.get(key, 0) for s in by_name.get(name, [])))
    ed = sum(s.duration for s in outermost(by_name.get("sqed.ed", []), "sqed.ed"))
    out["sqed.ed.solve_s"] = ed - out["sqed.ed.build_s"]
    out["sqed.ed.dim"] = float(
        max((s.counts.get("dim", 0) for s in by_name.get("sqed.ed.build", [])), default=0)
    )
    instructions = out["core.density.instructions"]
    out["core.density.us_per_instruction"] = (
        1e6 * out["core.density.run_s"] / instructions if instructions else 0.0
    )

    # executor: the public per-point timeline of this iteration's handles
    wall = record["t2"] - record["t0"]
    own = handles[record["h0"] : record["h1"]]
    computed = [
        row for h in own for row in h.timeline if row.get("source") == "computed"
    ]
    pooled = [
        row["exec_s"]
        for h in own
        if h.workers > 1
        for row in h.timeline
        if row.get("source") == "computed"
    ]
    point_s = [row["exec_s"] for row in computed]
    out["exec.queue_wait_s"] = sum(row["queue_wait_s"] for row in computed)
    out["exec.point_s.p50"] = _quantile(point_s, 0.5)
    out["exec.point_s.p90"] = _quantile(point_s, 0.9)
    out["exec.busy_frac"] = sum(pooled) / (width * wall) if pooled else 0.0
    out["exec.points_computed"] = float(sum(h.computed for h in own))
    out["exec.attempts"] = float(sum(row["attempts"] for row in computed))
    tasks = sum(len(by_name.get(name, [])) for name in TASKS)
    out["exec.useful_frac"] = out["exec.points_computed"] / tasks if tasks else 0.0
    before, after = record["stats_before"], record["stats_after"]
    for key in ("retries", "respawns", "escalations"):
        out[f"exec.{key}"] = float(after.get(key, 0) - before.get(key, 0))

    # self-time account of the cold wall time
    account = layer_account(main, workers, record["t0"], record["t1"])
    cold = record["t1"] - record["t0"]
    for layer in LAYERS:
        out[f"account.{layer}_s"] = account[layer]
    out["account.uncovered_s"] = account["uncovered"]
    out["account.coverage"] = 1.0 - account["uncovered"] / cold
    out["trace.wall_s"] = cold
    return out


def per_layer(
    records, main, workers, handles, *, width, pool_start_s, untraced_wall_s
) -> dict:
    """Median per-layer metrics over traced iterations, with units."""
    everything = main + workers
    rows = []
    for i, record in enumerate(records):
        lo = record["t0"]
        hi = records[i + 1]["t0"] if i + 1 < len(records) else float("inf")
        window = [s for s in everything if lo <= s.start < hi]
        rows.append(iteration_metrics(record, window, main, workers, handles, width))
    metrics = {"exec.pool_start_s": (pool_start_s, "s")}
    for name in rows[0] if rows else ():
        metrics[name] = (statistics.median(row[name] for row in rows), _units(name))
    traced_wall = metrics.get("trace.wall_s", (0.0, "s"))[0]
    metrics["trace.untraced_wall_s"] = (untraced_wall_s, "s")
    metrics["trace.overhead"] = (
        traced_wall / untraced_wall_s if untraced_wall_s else 0.0,
        "ratio",
    )
    return metrics
