"""Paper-workload benchmark: four ``repro`` studies, end to end and per layer.

Usage (from the repository root)::

    python3 paperbench/run.py --workload ec1_threshold --seed 1 \
        --seconds 20 --trace 0

Workloads: ``ec1_threshold``, ``lpdo_damage``, ``table1_grid``,
``paper_claims`` (see ``paperbench/README.md``).  Each is a closed loop
driven by this one client process: one study iteration (a cold answer
on a fresh on-disk result cache, then the same study answered again)
starts only when the previous one has finished, until ``--seconds`` of
measurement are used up.  A campaign study keeps one executor for the
whole run.

``--trace 0`` prints the end-to-end metrics: ``wall_s`` (median time
to the cold answer), ``setup_s`` (import, executor and warm pool;
median of five fresh interpreters) and ``peak_rss_mb`` (main process
and pool workers).  It also prints ``replay_s``, the median time to
answer again, outside the result's metrics: a sub-millisecond cache
replay varies too much between runs to carry a bound.

``--trace 1`` first runs untraced iterations, then installs span
wrappers around the probed ``repro`` functions (``paperbench/probes.py``),
starts a fresh executor so the pool workers inherit them, and runs
traced iterations.  It prints the per-layer metrics, the self-time
account of the traced wall time with the uncovered remainder, and the
tracing overhead (traced over untraced wall time).

The harness never sets BLAS or OpenMP thread variables; it records them,
with the rest of the environment, in a ``# env`` line.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is non-zero when any answer
misses its check.
"""

from __future__ import annotations

import argparse
import importlib
import json
import multiprocessing
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".paperbench_work"

SETUP_SAMPLES = 5
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: Run in a fresh interpreter: the set-up a user pays before the first point.
SETUP_SCRIPT = """
import importlib, sys, time
started = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import repro
for name in sys.argv[3:]:
    importlib.import_module(name)
workers = int(sys.argv[2])
if workers:
    executor = repro.CampaignExecutor(workers).warm()
elapsed = time.perf_counter() - started
if workers:
    executor.close()
print(repr(elapsed))
"""


def _median(values):
    return statistics.median(values) if values else 0.0


# ----------------------------------------------------------------------
# environment
# ----------------------------------------------------------------------
def _blas(module) -> dict | None:
    try:
        blas = module.__config__.CONFIG["Build Dependencies"]["blas"]
    except (AttributeError, KeyError, TypeError):
        return None
    return {key: blas.get(key) for key in ("name", "version")}


def environment() -> dict:
    import numpy
    import scipy

    sha = None
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=10,
            )
            sha = out.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            sha = None
    return {
        "git_sha": sha,
        "cpu_count": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "blas_numpy": _blas(numpy),
        "blas_scipy": _blas(scipy),
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARIABLES},
        "mp_start_method": multiprocessing.get_start_method(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def peak_rss_mb() -> float:
    """Largest VmHWM of this process and its live multiprocessing children."""
    peaks = []
    for pid in [os.getpid()] + [p.pid for p in multiprocessing.active_children()]:
        try:
            status = Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                peaks.append(int(line.split()[1]) / 1024.0)
    return max(peaks) if peaks else 0.0


def setup_seconds(study) -> list[float]:
    """Set-up time in fresh interpreters, one sample per interpreter."""
    samples = []
    flag = str(study.workers)
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_SCRIPT, str(SRC), flag, *study.modules],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return samples


# ----------------------------------------------------------------------
# the closed loop
# ----------------------------------------------------------------------
class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.misses: list[str] = []


def iterate(study, executor, work, seconds, min_iters, tally, handles=()):
    """Run study iterations until ``seconds`` are used; one record each.

    ``handles`` is the list the traced run's submit wrapper appends to;
    each record notes the slice of it that its iteration submitted.
    """
    from repro.exec import ResultCache

    records = []
    started = time.perf_counter()
    while True:
        cache_dir = work / f"cache-{len(records)}"
        cache = ResultCache(cache_dir)
        stats_before = dict(executor.stats) if executor is not None else {}
        h0 = len(handles)
        t0 = time.perf_counter()
        try:
            cold, ops, errors = study.cold(executor, cache)
            t1 = time.perf_counter()
            replays = []
            for _ in range(study.replays):
                started_replay = time.perf_counter()
                replay, ops_replay, err_replay = study.replay(executor, cache, cold)
                replays.append(time.perf_counter() - started_replay)
                ops += ops_replay
                errors += err_replay
            t2 = time.perf_counter()
        except Exception:
            traceback.print_exc()
            tally.attempted += 1
            tally.failed += 1
            tally.misses.append(f"{study.name}: study raised")
            break
        misses = study.check(cold, replay)
        tally.attempted += ops
        tally.failed += errors + len(misses)
        tally.misses.extend(misses)
        records.append(
            {
                "t0": t0,
                "t1": t1,
                "t2": t2,
                "wall_s": t1 - t0,
                "replay_s": statistics.median(replays),
                "replays": replays,
                "stats_before": stats_before,
                "stats_after": dict(executor.stats) if executor else {},
                "h0": h0,
                "h1": len(handles),
            }
        )
        shutil.rmtree(cache_dir, ignore_errors=True)
        if misses:
            break
        elapsed = time.perf_counter() - started
        per_iteration = elapsed / len(records)
        if len(records) >= min_iters and elapsed + per_iteration > seconds:
            break
    return records


def start_executor(study):
    """The run's shared executor (``None`` for serial studies) and its
    start-up time."""
    if not study.workers:
        return None, 0.0
    from repro.exec import CampaignExecutor

    started = time.perf_counter()
    executor = CampaignExecutor(study.workers).warm()
    return executor, time.perf_counter() - started


# ----------------------------------------------------------------------
# modes
# ----------------------------------------------------------------------
def end_to_end(study, seconds: float, work: Path, tally) -> tuple[dict, list]:
    setup = setup_seconds(study)
    for name in study.modules:
        importlib.import_module(name)
    executor, _ = start_executor(study)
    try:
        records = iterate(study, executor, work, seconds, 3, tally)
        rss = peak_rss_mb()
    finally:
        if executor is not None:
            executor.close()
    metrics = {
        "wall_s": (_median([r["wall_s"] for r in records]), "s"),
        "setup_s": (_median(setup), "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    return metrics, records


def traced(study, seconds: float, work: Path, tally) -> tuple[dict, list]:
    import layers
    import probes
    from spans import Tracer, load_worker_spans, main_spans

    for name in study.modules:
        importlib.import_module(name)
    executor, _ = start_executor(study)
    try:
        plain = iterate(study, executor, work, seconds / 2, 1, tally)
    finally:
        if executor is not None:
            executor.close()
    spans_dir = work / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer(spans_dir)
    handles: list = []
    try:
        probes.install(tracer, handles)
        executor, pool_start_s = start_executor(study)
        try:
            records = iterate(study, executor, work, seconds / 2, 1, tally, handles)
        finally:
            if executor is not None:
                executor.close()
    finally:
        tracer.uninstall()
    metrics = layers.per_layer(
        records,
        main_spans(tracer),
        load_worker_spans(spans_dir),
        handles,
        width=executor.workers if executor is not None else 1,
        pool_start_s=pool_start_s,
        untraced_wall_s=_median([r["wall_s"] for r in plain]),
    )
    return metrics, records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from workloads import STUDIES

    if args.workload not in STUDIES:
        print(
            f"error: unknown workload {args.workload!r}; "
            f"choose from {sorted(STUDIES)}",
            file=sys.stderr,
        )
        return 2
    study = STUDIES[args.workload](args.seed)
    env = environment()
    work = WORK / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    tally = Tally()
    try:
        mode = traced if args.trace else end_to_end
        metrics, records = mode(study, args.seconds, work, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    correct = tally.failed == 0 and bool(records)
    print(f"# workload {study.name} seed {args.seed} trace {args.trace}: "
          f"{len(records)} iterations")
    print("# env " + json.dumps(env, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:14.6g} {unit}")
    replay_s = _median([t for r in records for t in r["replays"]])
    print(f"{'replay_s':34s} {replay_s:14.6g} s (printed only, no bound)")
    for key in ("wall_s", "replay_s"):
        samples = " ".join(f"{r[key]:.4g}" for r in records)
        print(f"# {key} samples (n={len(records)}): {samples}")
    failed_frac = tally.failed / max(tally.attempted, 1)
    print(f"{'failed_frac':34s} {failed_frac:14.6g} ratio "
          f"({tally.failed}/{tally.attempted})")
    for miss in tally.misses:
        print(f"# MISS {miss}")
    result = {
        "correct": correct,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
