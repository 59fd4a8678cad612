"""Campaign-subsystem benchmark — parallel speedup, cache replay, calibration.

Nine sections, emitted to the committed ``BENCH_exec.json``:

1. **calibration** — measures the per-unit cost constants the
   ``get_backend("auto")`` cost model ranks engines with (seconds per
   amplitude·instruction for the dense engines, per
   site·chi^3[·kappa]·instruction for the tensor networks).  Regenerating
   this file *is* how the auto-selector is recalibrated for new hardware.
2. **auto_selection** — the decision table on the anchor workloads: a
   4-qutrit noiseless register must resolve to ``statevector`` and a
   12-qutrit noisy register to a tensor-network engine (``lpdo``/``mps``),
   with the full estimate table on record.
3. **latency_campaign** — a latency-bound campaign (each point sleeps,
   standing in for a remote/IO-bound backend call) run serially and at 8
   workers.  This isolates the *scheduler's* concurrency from the host's
   core count: sleeping points overlap even on a single core, so the
   >= 2x guard is meaningful everywhere.
4. **sqed_campaign** — the acceptance workload: a 64-point sQED
   encoding-damage sweep (``repro.sqed.noise_study.damage_task`` through
   ``method="auto"``) run serially, at 8 workers (CPU-bound speedup is
   recorded together with ``cpu_count`` — on a single-core host it is
   honestly ~1x), and replayed from the result cache (>= 10x, >= 95% of
   points served without recomputation).
5. **pool_reuse** — a battery of short campaigns run twice: once through
   the one-shot :func:`repro.exec.run_campaign` (a fresh pool forked and
   torn down per campaign) and once on a single persistent
   :class:`repro.exec.CampaignExecutor` (one warm pool amortised across
   the battery).  Short sweeps are fork-dominated, so the executor must
   be >= 2x faster end to end.
6. **streaming** — one latency-bound campaign consumed two ways: the
   barrier runner (no value visible until every point is done) vs the
   executor's ``stream_results()`` (first value as soon as point 0
   lands).  Records the streamed time-to-first-result, required to be
   <= 0.5x the barrier runner's total wall time.
7. **supervised_overhead** — the fault-tolerance tax: the same
   latency-bound battery dispatched through a raw, unsupervised
   ``multiprocessing.Pool.imap_unordered`` (the pre-supervision
   architecture: no liveness monitoring, no respawn, no per-point
   timeouts) vs the supervised executor.  The supervised wall time is
   required to be <= 1.10x the raw pool's — crash detection must cost
   under 10% on latency-bound work.
8. **autopilot** — plan quality of the error-budget contract
   (``method="auto"``, ``target_error``, zero hand-set caps) against a
   hand-tuned ``(max_bond, max_kraus)`` grid on the sQED damage ladder:
   the autopilot must meet the target and land within 1.2x the wall
   time of the best hand-tuned configuration that also meets it.
9. **obs_overhead** — the observability tax: a CPU-bound gate-apply
   workload (the hottest instrumented call sites, :mod:`repro.obs`)
   timed with telemetry disabled, enabled, and disabled again,
   min-of-k.  The disabled-after/disabled-before ratio is required to
   be <= 1.05 — the instrumentation must be near-free when off (one
   module-attribute check per call site) and must leave no residue
   behind after an enabled run.  The enabled ratio is on record too,
   together with proof the enabled run actually collected telemetry,
   and a ``serve_scrape`` sub-record: while telemetry is live, an
   :class:`repro.obs.serve.ObsServer` is scraped over HTTP and the
   min scrape latency, response status, and exposed family count are
   recorded (the scrape must return 200 with a non-empty, typed body).

Run as a script to (re)generate the committed record::

    PYTHONPATH=src python benchmarks/bench_exec.py

The ``bench_smoke`` tier-1 tests call :func:`run_benchmarks` at tiny
sizes and separately validate the committed JSON.
"""

from __future__ import annotations

import json
import os
import platform
import time
from pathlib import Path

import numpy as np

from repro.core import QuditCircuit, get_backend
from repro.core.channels import photon_loss
from repro.exec import (
    Campaign,
    CampaignExecutor,
    ResultCache,
    run_campaign,
    zip_sweep,
)
from repro.exec.costmodel import DEFAULT_CALIBRATION, select_backend

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_JSON = REPO_ROOT / "BENCH_exec.json"


# ----------------------------------------------------------------------
# campaign tasks (module-level so worker processes can import them)
# ----------------------------------------------------------------------
def latency_task(
    point: int, delay_ms: float = 40.0, tag: int = 0, seed: int = 0
) -> int:
    """Stands in for an IO/latency-bound backend call (sleeps, no CPU).

    ``tag`` carries no behaviour — it keeps the points of otherwise
    identical short campaigns distinct in the pool-reuse battery.
    """
    time.sleep(delay_ms / 1000.0)
    return int(point)


# ----------------------------------------------------------------------
# section 1: cost-model calibration
# ----------------------------------------------------------------------
def _clean_circuit(n: int) -> QuditCircuit:
    qc = QuditCircuit([3] * n)
    for i in range(n):
        qc.fourier(i)
    for i in range(n - 1):
        qc.csum(i, i + 1)
    for i in range(n):
        qc.z(i)
    return qc


def _noisy_circuit(n: int, loss: float = 0.1) -> QuditCircuit:
    qc = _clean_circuit(n)
    for i in range(n):
        qc.channel(photon_loss(3, loss).kraus, i, name="loss")
    return qc


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def calibrate(scale: int = 1) -> dict:
    """Measure the auto-selector's per-unit cost constants on this host.

    Args:
        scale: >= 1 grows the probe circuits (full benchmark uses larger
            probes than the tier-1 smoke run for steadier timings).

    Returns:
        A dict with the :data:`repro.exec.costmodel.DEFAULT_CALIBRATION`
        keys, each measured here (memory budget kept at its default).
    """
    out = dict(DEFAULT_CALIBRATION)

    n_sv = 6 + (1 if scale > 1 else 0)
    clean = _clean_circuit(n_sv)
    dim = 3.0**n_sv
    elapsed = _timed(lambda: get_backend("statevector").run(clean))
    out["statevector_amp_op_s"] = elapsed / (dim * len(clean))

    n_rho = 4
    noisy = _noisy_circuit(n_rho)
    dim = 3.0**n_rho
    elapsed = _timed(lambda: get_backend("density").run(noisy))
    out["density_amp2_op_s"] = elapsed / (dim * dim * len(noisy))

    n_traj, batch = 5, 64 * scale
    noisy = _noisy_circuit(n_traj)
    dim = 3.0**n_traj
    elapsed = _timed(
        lambda: get_backend("trajectories").run(
            noisy, n_trajectories=batch, rng=0
        )
    )
    out["trajectories_amp_op_s"] = elapsed / (dim * batch * len(noisy))

    n_mps, chi = 8 + 2 * scale, 16
    clean = _clean_circuit(n_mps)
    elapsed = _timed(lambda: get_backend("mps").run(clean, max_bond=chi))
    out["mps_site_chi3_op_s"] = elapsed / (n_mps * chi**3 * len(clean))

    n_lpdo, chi, kappa = 5 + scale, 16, 4
    noisy = _noisy_circuit(n_lpdo)
    elapsed = _timed(
        lambda: get_backend("lpdo").run(noisy, max_bond=chi, max_kraus=kappa)
    )
    out["lpdo_site_chi3_kappa2_op_s"] = elapsed / (
        n_lpdo * chi**3 * kappa**2 * len(noisy)
    )
    return out


# ----------------------------------------------------------------------
# section 2: auto-selection decision table
# ----------------------------------------------------------------------
def auto_selection_table(calibration: dict) -> dict:
    """The cost model's decisions on the anchor workloads."""
    anchors = {
        "4_qutrit_noiseless": dict(dims=[3] * 4, noisy=False),
        "7_qutrit_noiseless": dict(dims=[3] * 7, noisy=False),
        "3_qutrit_noisy": dict(dims=[3] * 3, noisy=True),
        "12_qutrit_noisy": dict(dims=[3] * 12, noisy=True),
        "20_qutrit_noisy": dict(dims=[3] * 20, noisy=True),
    }
    table = {}
    for label, spec in anchors.items():
        choice = select_backend(
            spec["dims"], noisy=spec["noisy"], calibration=calibration
        )
        table[label] = {
            "backend": choice.name,
            "options": choice.options,
            "estimates": choice.estimates,
        }
    return table


# ----------------------------------------------------------------------
# sections 3 & 4: campaign speedups
# ----------------------------------------------------------------------
def _latency_campaign(n_points: int, delay_ms: float) -> Campaign:
    return Campaign(
        task=latency_task,
        sweep=zip_sweep(point=list(range(n_points))),
        name="latency-smoke",
        base_params={"delay_ms": delay_ms},
        seed=0,
    )


def bench_latency_campaign(n_points: int, delay_ms: float, workers: int) -> dict:
    """Scheduler concurrency on a latency-bound workload (core-count free)."""
    serial = run_campaign(_latency_campaign(n_points, delay_ms))
    parallel = run_campaign(_latency_campaign(n_points, delay_ms), workers=workers)
    assert parallel.values == serial.values
    return {
        "n_points": n_points,
        "delay_ms": delay_ms,
        "workers": workers,
        "serial_s": round(serial.duration_s, 4),
        "parallel_s": round(parallel.duration_s, 4),
        "speedup": round(serial.duration_s / parallel.duration_s, 2),
    }


def bench_pool_reuse(
    n_campaigns: int, n_points: int, delay_ms: float, workers: int
) -> dict:
    """A battery of short campaigns: fresh pool per campaign vs one warm pool.

    Every campaign is tagged so no two share cache keys (no cache is used
    anyway); the work per campaign is deliberately tiny so the fork +
    import cost of a fresh pool dominates the one-shot path.
    """

    def battery():
        return [
            Campaign(
                task=latency_task,
                sweep=zip_sweep(point=list(range(n_points))),
                name=f"short-{tag}",
                base_params={"delay_ms": delay_ms, "tag": tag},
                seed=0,
            )
            for tag in range(n_campaigns)
        ]

    start = time.perf_counter()
    cold_values = [
        run_campaign(campaign, workers=workers).values
        for campaign in battery()
    ]
    cold_s = time.perf_counter() - start

    start = time.perf_counter()
    with CampaignExecutor(workers) as executor:
        warm_values = [
            executor.run(campaign).values for campaign in battery()
        ]
        stats = executor.stats
    warm_s = time.perf_counter() - start
    assert warm_values == cold_values
    assert stats["pools_created"] == 1 and stats["campaigns"] == n_campaigns
    return {
        "n_campaigns": n_campaigns,
        "n_points": n_points,
        "delay_ms": delay_ms,
        "workers": workers,
        "fresh_pool_s": round(cold_s, 4),
        "warm_pool_s": round(warm_s, 4),
        "speedup": round(cold_s / warm_s, 2),
    }


def bench_streaming(n_points: int, delay_ms: float, workers: int) -> dict:
    """Streamed time-to-first-result vs the barrier runner's total wall.

    The campaign is latency-bound, so the comparison isolates scheduling:
    the barrier runner cannot show anything until every point is done,
    the stream yields point 0 after one task latency.
    """
    campaign = _latency_campaign(n_points, delay_ms)
    barrier = run_campaign(campaign, workers=workers)

    with CampaignExecutor(workers) as executor:
        executor.warm()
        start = time.perf_counter()
        handle = executor.submit(_latency_campaign(n_points, delay_ms))
        stream = handle.stream_results()
        first = next(stream)
        time_to_first_s = time.perf_counter() - start
        values = [first, *stream]
        streamed_total_s = time.perf_counter() - start
    assert values == barrier.values
    return {
        "n_points": n_points,
        "delay_ms": delay_ms,
        "workers": workers,
        "barrier_total_s": round(barrier.duration_s, 4),
        "time_to_first_s": round(time_to_first_s, 4),
        "streamed_total_s": round(streamed_total_s, 4),
        "first_vs_barrier_ratio": round(
            time_to_first_s / barrier.duration_s, 4
        ),
    }


def _raw_pool_point(payload):
    """Unsupervised baseline worker: plain (task_ref, point) execution."""
    from repro.exec.executor import _call_task

    task_ref, point = payload
    return point.index, _call_task(task_ref, point)


def bench_supervised_overhead(
    n_points: int, delay_ms: float, workers: int
) -> dict:
    """The cost of supervision vs an opaque ``multiprocessing.Pool``.

    Both sides pay pool startup and run the identical latency-bound
    battery; the raw pool has no liveness monitoring, no respawn, and no
    per-point deadline bookkeeping, so the wall-clock difference *is*
    the fault-tolerance overhead.
    """
    import multiprocessing

    campaign = _latency_campaign(n_points, delay_ms)
    points = campaign.points()
    task_ref = campaign.task_reference
    payloads = [(task_ref, point) for point in points]

    start = time.perf_counter()
    with multiprocessing.Pool(workers) as pool:
        raw = dict(pool.imap_unordered(_raw_pool_point, payloads, chunksize=1))
    raw_s = time.perf_counter() - start
    raw_values = [raw[i] for i in range(n_points)]

    start = time.perf_counter()
    with CampaignExecutor(workers) as executor:
        supervised = executor.run(campaign)
    supervised_s = time.perf_counter() - start
    assert supervised.values == raw_values
    return {
        "n_points": n_points,
        "delay_ms": delay_ms,
        "workers": workers,
        "raw_pool_s": round(raw_s, 4),
        "supervised_s": round(supervised_s, 4),
        "overhead_ratio": round(supervised_s / raw_s, 4),
    }


def bench_obs_overhead(
    n_qudits: int = 6, gate_loops: int = 40, repeats: int = 5
) -> dict:
    """The cost of the observability instrumentation, on and off.

    Runs a CPU-bound statevector circuit (every gate apply crosses an
    instrumented call site) three ways — telemetry disabled, enabled,
    and disabled again — taking the min over ``repeats`` to suppress
    scheduler noise.  ``disabled_ratio`` (after/before, both disabled)
    is the committed <= 1.05 guard: with collection off the entire cost
    per call site is one module-attribute check, and an enabled run
    must leave no lingering slowdown behind.  The enabled ratio is
    informational (it pays real dict/span work), and the recorded
    sample counts prove the enabled run actually collected telemetry.

    While the registry is hot, an :class:`repro.obs.serve.ObsServer`
    is started on an ephemeral port and ``/metrics`` is scraped once
    per repeat — the ``serve_scrape`` sub-record pins the live HTTP
    path (status 200, non-empty typed exposition) and its latency.
    """
    import urllib.request

    from repro import obs
    from repro.obs.serve import ObsServer

    circuit = _clean_circuit(n_qudits)
    backend = get_backend("statevector")

    def once() -> float:
        start = time.perf_counter()
        for _ in range(gate_loops):
            backend.run(circuit)
        return time.perf_counter() - start

    obs.disable()
    obs.reset()
    disabled_before_s = min(once() for _ in range(repeats))

    obs.enable()
    enabled_s = min(once() for _ in range(repeats))
    snap = obs.metrics.snapshot()
    gate_applies = sum(
        snap.get("gate_applies", {}).get("values", {}).values()
    )
    n_spans = len(obs.tracing.events())

    server = ObsServer(port=0).start()
    try:
        scrape_times = []
        for _ in range(repeats):
            start = time.perf_counter()
            with urllib.request.urlopen(
                server.url + "/metrics", timeout=10
            ) as response:
                scrape_status = response.status
                body = response.read().decode("utf-8")
            scrape_times.append(time.perf_counter() - start)
    finally:
        server.stop()
    families = sum(
        1 for line in body.splitlines() if line.startswith("# TYPE ")
    )
    assert scrape_status == 200 and families > 0  # live scrape worked
    serve_scrape = {
        "scrapes": repeats,
        "status": scrape_status,
        "min_scrape_s": round(min(scrape_times), 6),
        "families": families,
        "body_bytes": len(body.encode("utf-8")),
    }

    obs.disable()
    obs.reset()
    disabled_after_s = min(once() for _ in range(repeats))

    assert gate_applies > 0 and n_spans > 0  # the enabled run collected
    return {
        "n_qudits": n_qudits,
        "gate_loops": gate_loops,
        "repeats": repeats,
        "disabled_before_s": round(disabled_before_s, 4),
        "enabled_s": round(enabled_s, 4),
        "disabled_after_s": round(disabled_after_s, 4),
        "disabled_ratio": round(disabled_after_s / disabled_before_s, 4),
        "enabled_ratio": round(enabled_s / disabled_before_s, 4),
        "gate_applies_observed": int(gate_applies),
        "spans_recorded": n_spans,
        "serve_scrape": serve_scrape,
    }


def bench_sqed_campaign(
    n_points: int, workers: int, cache_dir: Path, n_sites: int, n_steps: int
) -> dict:
    """The acceptance campaign: damage sweep, parallel run, cached replay."""
    epsilons = [float(e) for e in np.geomspace(1e-4, 0.5, n_points)]
    base = dict(
        n_sites=n_sites,
        spin=1,
        t_total=1.0,
        n_steps=n_steps,
        method="auto",
    )

    def campaign() -> Campaign:
        return Campaign(
            task="repro.sqed.noise_study:damage_task",
            sweep=zip_sweep(epsilon=epsilons),
            name="sqed-noise-campaign",
            base_params=base,
            seed=0,
        )

    serial = run_campaign(campaign())
    cache = ResultCache(cache_dir)
    parallel = run_campaign(campaign(), workers=workers, cache=cache)
    assert parallel.values == serial.values
    replay = run_campaign(campaign(), workers=workers, cache=cache)
    assert replay.values == serial.values
    return {
        "n_points": n_points,
        "n_sites": n_sites,
        "n_steps": n_steps,
        "workers": workers,
        "serial_s": round(serial.duration_s, 4),
        "parallel_s": round(parallel.duration_s, 4),
        "parallel_speedup": round(serial.duration_s / parallel.duration_s, 2),
        "replay_s": round(replay.duration_s, 4),
        "replay_speedup": round(serial.duration_s / replay.duration_s, 2),
        "replay_cache_hits": replay.cache_hits,
        "replay_hit_fraction": round(replay.hit_fraction, 4),
        "monotone_damage": bool(
            np.all(np.diff(np.asarray(serial.values)) > -1e-9)
        ),
    }


def bench_autopilot(
    n_points: int,
    n_sites: int,
    n_steps: int,
    target_error: float,
    hand_grid: tuple = ((4, 2), (8, 4), (16, 8)),
) -> dict:
    """Autopilot plan quality vs hand-tuned configurations on the sQED ladder.

    Runs the same damage sweep three ways: an exact dense reference
    (``method="density"``, which doubles as the conservative hand-tuned
    configuration), a grid of hand-tuned LPDO cap configurations (the
    pre-autopilot workflow: pick an engine, guess
    ``max_bond``/``max_kraus``, hope the truncation error is
    acceptable), and the autopilot contract (``method="auto"``,
    ``target_error=...``, zero hand-set caps).

    The committed guard: the autopilot's wall time is <= 1.2x the best
    *hand-tuned configuration that actually meets the target* — i.e. the
    contract API costs at most 20% over an oracle that already knows the
    right engine and caps, and unlike the oracle it never silently
    under-delivers.
    """
    epsilons = [float(e) for e in np.geomspace(1e-4, 0.5, n_points)]
    base = dict(n_sites=n_sites, spin=1, t_total=1.0, n_steps=n_steps)

    def campaign(name: str, **params) -> Campaign:
        return Campaign(
            task="repro.sqed.noise_study:damage_task",
            sweep=zip_sweep(epsilon=epsilons),
            name=name,
            base_params={**base, **params},
            seed=0,
            target_error=params.get("target_error"),
        )

    reference = run_campaign(campaign("autopilot-ref", method="density"), cache=None)
    ref = np.asarray(reference.values, dtype=float)

    # The dense run is itself the conservative hand-tuned configuration
    # (exact by construction), so it anchors the comparison grid.
    hand = [{
        "method": "density",
        "wall_s": round(reference.duration_s, 4),
        "max_abs_error": 0.0,
        "meets_target": True,
    }]
    for chi, kappa in hand_grid:
        result = run_campaign(
            campaign(f"hand-chi{chi}-kappa{kappa}", method="lpdo",
                     max_bond=int(chi), max_kraus=int(kappa)),
            cache=None,
        )
        err = float(np.max(np.abs(np.asarray(result.values, dtype=float) - ref)))
        hand.append({
            "method": "lpdo",
            "max_bond": int(chi),
            "max_kraus": int(kappa),
            "wall_s": round(result.duration_s, 4),
            "max_abs_error": err,
            "meets_target": bool(err <= target_error),
        })

    auto = run_campaign(
        campaign("autopilot-auto", method="auto", target_error=target_error),
        cache=None,
    )
    auto_err = float(np.max(np.abs(np.asarray(auto.values, dtype=float) - ref)))

    meeting = [h for h in hand if h["meets_target"]] or hand
    best_hand_s = min(h["wall_s"] for h in meeting)
    return {
        "n_points": n_points,
        "n_sites": n_sites,
        "n_steps": n_steps,
        "target_error": target_error,
        "hand_tuned": hand,
        "best_hand_s": best_hand_s,
        "autopilot_s": round(auto.duration_s, 4),
        "autopilot_max_abs_error": auto_err,
        "meets_target": bool(auto_err <= target_error),
        "vs_best_hand_ratio": round(
            auto.duration_s / best_hand_s if best_hand_s > 0 else 1.0, 4
        ),
    }


def run_benchmarks(
    sqed_points: int = 64,
    sqed_sites: int = 3,
    sqed_steps: int = 2,
    latency_points: int = 32,
    latency_delay_ms: float = 40.0,
    battery_campaigns: int = 12,
    battery_points: int = 6,
    battery_delay_ms: float = 1.0,
    battery_workers: int = 4,
    streaming_points: int = 32,
    streaming_delay_ms: float = 25.0,
    overhead_points: int = 32,
    overhead_delay_ms: float = 25.0,
    obs_qudits: int = 6,
    obs_gate_loops: int = 40,
    obs_repeats: int = 5,
    autopilot_points: int = 16,
    autopilot_target: float = 1e-6,
    workers: int = 8,
    calibration_scale: int = 2,
    cache_dir: Path | str | None = None,
    out_path: Path | str | None = None,
) -> dict:
    """Run the campaign benchmark suite and optionally emit JSON.

    Args:
        sqed_points: epsilon count of the acceptance campaign (64 for the
            committed record).
        sqed_sites, sqed_steps: damage-task size knobs.
        latency_points, latency_delay_ms: latency-bound section size.
        battery_campaigns, battery_points, battery_delay_ms,
        battery_workers: pool-reuse battery shape (many short campaigns).
        streaming_points, streaming_delay_ms: streaming section size.
        overhead_points, overhead_delay_ms: supervised-overhead section
            size (same latency-bound shape, two dispatch architectures).
        obs_qudits, obs_gate_loops, obs_repeats: observability-overhead
            section size (CPU-bound gate-apply workload, min-of-k).
        autopilot_points, autopilot_target: autopilot-vs-hand-tuned
            section size (same damage task as the acceptance campaign).
        workers: pool width for the parallel sections.
        calibration_scale: probe-size multiplier for the calibration.
        cache_dir: where the replay cache lives (a temp dir if omitted).
        out_path: where to write the JSON report (``None`` = don't write).

    Returns:
        The report dictionary (also written to ``out_path`` if given).
    """
    import tempfile

    calibration = calibrate(scale=calibration_scale)
    selection = auto_selection_table(calibration)
    latency = bench_latency_campaign(latency_points, latency_delay_ms, workers)
    pool_reuse = bench_pool_reuse(
        battery_campaigns, battery_points, battery_delay_ms, battery_workers
    )
    streaming = bench_streaming(streaming_points, streaming_delay_ms, workers)
    overhead = bench_supervised_overhead(
        overhead_points, overhead_delay_ms, workers
    )
    obs_overhead = bench_obs_overhead(obs_qudits, obs_gate_loops, obs_repeats)
    autopilot = bench_autopilot(
        autopilot_points, sqed_sites, sqed_steps, autopilot_target
    )
    if cache_dir is None:
        with tempfile.TemporaryDirectory() as tmp:
            sqed = bench_sqed_campaign(
                sqed_points, workers, Path(tmp), sqed_sites, sqed_steps
            )
    else:
        sqed = bench_sqed_campaign(
            sqed_points, workers, Path(cache_dir), sqed_sites, sqed_steps
        )
    report = {
        "meta": {
            "benchmark": "bench_exec",
            "numpy": np.__version__,
            "python": platform.python_version(),
            "cpu_count": os.cpu_count() or 1,
        },
        "calibration": calibration,
        "auto_selection": selection,
        "latency_campaign": latency,
        "pool_reuse": pool_reuse,
        "streaming": streaming,
        "supervised_overhead": overhead,
        "obs_overhead": obs_overhead,
        "autopilot": autopilot,
        "sqed_campaign": sqed,
    }
    if out_path is not None:
        Path(out_path).write_text(json.dumps(report, indent=2) + "\n")
    return report


def main() -> None:
    report = run_benchmarks(out_path=BENCH_JSON)
    print(json.dumps(report, indent=2))
    print(f"\nwrote {BENCH_JSON}")


if __name__ == "__main__":
    main()
