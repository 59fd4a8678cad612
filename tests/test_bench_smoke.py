"""Tier-1 smoke invocations of the core-engine benchmark harness.

These run the real benchmark code paths at tiny sizes so a regression in
the structured fast paths or the batched trajectory engine fails tier-1,
while the full-size benchmark (``python benchmarks/bench_core_engine.py``,
which regenerates the committed ``BENCH_core.json``) stays opt-in.
"""

import json
import os
import shutil
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
BENCH_DIR = REPO_ROOT / "benchmarks"
if str(BENCH_DIR) not in sys.path:
    sys.path.insert(0, str(BENCH_DIR))


def _publish_artifact(path: Path) -> None:
    """Copy a regenerated benchmark JSON where CI can pick it up.

    The bench-smoke CI job sets ``BENCH_ARTIFACT_DIR`` and uploads
    whatever lands there, so drift against the committed ``BENCH_*.json``
    records can be inspected per run.  A no-op everywhere else.
    """
    target = os.environ.get("BENCH_ARTIFACT_DIR")
    if target:
        Path(target).mkdir(parents=True, exist_ok=True)
        shutil.copy2(path, Path(target) / path.name)


def _check_reservoir_record(record: dict, timed: tuple[str, ...]) -> None:
    """Photon loss as two superoperator GEMMs equals the Kraus sum at 16
    and 81 neurons, and takes at most half its step time at the ``timed``
    sizes."""
    assert sorted(record) == ["levels_4", "levels_9"]
    for name, size in record.items():
        assert size["max_deviation"] <= 1e-13
        if name in timed:
            assert size["superoperator_us"] <= 0.5 * size["kraus_sum_us"]


@pytest.mark.bench_smoke
def test_core_engine_bench_smoke(tmp_path):
    from bench_core_engine import run_benchmarks

    out = tmp_path / "BENCH_core.json"
    report = run_benchmarks(
        n_qutrits=4,
        gate_repeats=3,
        n_traj_nodes=4,
        n_trajectories=8,
        ec1_step_repeats=2,
        ec1_bench=False,
        ndar_repeats=1,
        reservoir_steps=10,
        reservoir_repeats=10,
        out_path=out,
    )
    # Fast paths must agree with the dense reference on the benchmark state.
    assert report["correctness"]["max_fastpath_vs_dense_error"] < 1e-12
    # The density engine's compiled noisy qubit step equals the
    # operator-by-operator loop, and fuses gates with their noise.
    step = report["ec1_density"]["noisy_qubit_step"]
    assert step["max_error_vs_apply_kraus"] < 1e-12
    assert step["compiled_ops"] <= 0.55 * step["plan_steps"]
    assert step["change_ms"] > 0 and step["change_bind_evolve_ms"] > 0
    # A 10-step smoke timing at levels 4 (~50 us against ~145 us) is too
    # short to gate on; levels 9 has a ~10x margin.
    _check_reservoir_record(report["reservoir"], timed=("levels_9",))
    # The Table I NDAR sample draws the counts the committed record took
    # from the parent engine (too short a run here to gate on its time).
    committed = json.loads((REPO_ROOT / "BENCH_core.json").read_text())
    ndar = report["trajectories"]["table1_ndar"]
    assert ndar["counts"] == committed["trajectories"]["table1_ndar"]["parent_counts"]
    assert ndar["change_ms"]["total"] > 0
    trajectories = report["trajectories"]["ndar_style"]
    assert trajectories["n_trajectories"] == 8
    assert trajectories["batched_s"] > 0 and trajectories["seed_loop_s"] > 0
    for key in ("diagonal_geomean_speedup", "permutation_geomean_speedup"):
        assert report["gate_apply"][key] > 0
    # The emitter round-trips through JSON.
    assert json.loads(out.read_text())["meta"]["benchmark"] == "bench_core_engine"
    _publish_artifact(out)


@pytest.mark.bench_smoke
def test_mps_bench_smoke(tmp_path):
    from bench_mps import run_benchmarks

    out = tmp_path / "BENCH_mps.json"
    report = run_benchmarks(
        n_small=4,
        n_large=10,
        bond_caps=(4, 8),
        n_trajectories=32,
        shots=10,
        out_path=out,
    )
    # Unbounded-chi MPS must match the dense statevector on the anchor.
    assert report["correctness"]["noiseless_max_amplitude_error"] < 1e-10
    assert report["correctness"]["full_chi_truncation_error"] < 1e-12
    scale = report["scale"]
    assert scale["n_qutrits"] == 10
    sweep = scale["chi_sweep"]
    assert [point["max_bond"] for point in sweep] == [4, 8]
    for point in sweep:
        assert point["evolve_s"] > 0
        assert point["peak_bond"] <= point["max_bond"]
        assert point["truncation_error"] >= 0.0
        assert 0.0 <= point["qaoa_energy"] <= scale["n_edges"]
    assert json.loads(out.read_text())["meta"]["benchmark"] == "bench_mps"
    _publish_artifact(out)


@pytest.mark.bench_smoke
def test_committed_bench_mps_json_meets_targets():
    """The committed BENCH_mps.json must document the scale claim:

    a >= 15-qutrit circuit — beyond any dense backend here — evolved at
    bounded chi with the truncation error on record.
    """
    report = json.loads((REPO_ROOT / "BENCH_mps.json").read_text())
    assert report["correctness"]["noiseless_max_amplitude_error"] < 1e-10
    scale = report["scale"]
    assert scale["n_qutrits"] >= 15
    # Dense representation is genuinely out of reach (> 1 GiB of amplitudes).
    assert scale["dense_statevector_gib"] > 1.0
    for point in scale["chi_sweep"]:
        assert point["truncation_error"] >= 0.0
        assert point["peak_bond"] <= point["max_bond"]


@pytest.mark.bench_smoke
def test_lpdo_bench_smoke(tmp_path):
    from bench_lpdo import run_benchmarks

    out = tmp_path / "BENCH_lpdo.json"
    report = run_benchmarks(
        n_small=3,
        n_large=6,
        max_bond=8,
        max_kraus=4,
        n_trajectories=16,
        shots=10,
        sqed_sites=4,
        sqed_steps=1,
        out_path=out,
    )
    # Exact channels: the unbounded LPDO matches the dense density matrix.
    assert report["correctness"]["max_density_matrix_error"] < 1e-10
    assert report["correctness"]["observable_lpdo_abs_error"] < 1e-10
    scale = report["scale"]
    assert scale["n_qutrits"] == 6
    assert scale["evolve_s"] > 0
    assert scale["peak_bond"] <= 8
    assert scale["peak_kraus"] <= 4
    assert scale["truncation_error"] >= 0.0
    assert scale["purification_error"] >= 0.0
    assert abs(scale["trace"] - 1.0) < 1e-6
    sqed = report["sqed_noise_study"]
    assert sqed["damage"] > 0
    assert sqed["stochastic_unravelling"] is False
    assert json.loads(out.read_text())["meta"]["benchmark"] == "bench_lpdo"
    _publish_artifact(out)


@pytest.mark.bench_smoke
def test_committed_bench_lpdo_json_meets_targets():
    """The committed BENCH_lpdo.json must document the acceptance claims:

    unbounded-cap agreement with the dense density matrix at 1e-8, and a
    12+-qutrit noisy register — whose density matrix (3^24 entries) could
    never be allocated — evolved with exact channels, no stochastic
    unravelling, and both truncation accounts on record.
    """
    report = json.loads((REPO_ROOT / "BENCH_lpdo.json").read_text())
    assert report["correctness"]["max_density_matrix_error"] < 1e-8
    assert report["correctness"]["observable_lpdo_abs_error"] < 1e-8
    # The stochastic MPS score carries visible Monte-Carlo noise; the LPDO
    # score must beat it by orders of magnitude.
    assert (
        report["correctness"]["observable_lpdo_abs_error"]
        < report["correctness"]["observable_mps_mc_abs_error"] * 1e-3
    )
    scale = report["scale"]
    assert scale["n_qutrits"] >= 12
    assert scale["dense_rho_tib"] > 1.0  # genuinely beyond dense reach
    assert scale["truncation_error"] >= 0.0
    assert scale["purification_error"] >= 0.0
    assert abs(scale["trace"] - 1.0) < 1e-6
    sqed = report["sqed_noise_study"]
    assert sqed["n_sites"] >= 12
    assert sqed["damage"] > 0
    assert sqed["stochastic_unravelling"] is False


@pytest.mark.bench_smoke
def test_exec_bench_smoke(tmp_path):
    from bench_exec import run_benchmarks

    out = tmp_path / "BENCH_exec.json"
    report = run_benchmarks(
        sqed_points=8,
        sqed_sites=2,
        # 32 steps keep a warm point's compute near what one step cost
        # while every epsilon rebuilt its noisy step, so the replay bound
        # below keeps its margin; the autopilot section stays at 1 step.
        sqed_steps=32,
        autopilot_steps=1,
        latency_points=16,
        latency_delay_ms=25.0,
        battery_campaigns=8,
        battery_points=4,
        battery_delay_ms=1.0,
        battery_workers=4,
        streaming_points=24,
        streaming_delay_ms=25.0,
        overhead_points=16,
        overhead_delay_ms=25.0,
        obs_qudits=5,
        # A few ms per repeat (20 statevector runs), so the disabled-ratio
        # guard below compares times far above the timer's resolution.
        obs_gate_loops=20,
        obs_repeats=3,
        autopilot_points=6,
        autopilot_target=1e-6,
        workers=8,
        calibration_scale=1,
        cache_dir=tmp_path / "cache",
        out_path=out,
    )
    # Scheduler concurrency: latency-bound points overlap under the worker
    # pool on any host, single-core included.
    assert report["latency_campaign"]["speedup"] >= 2.0
    # Pool reuse: a battery of short campaigns on one warm executor pool
    # beats forking a fresh pool per campaign (fork cost dominates here).
    assert report["pool_reuse"]["speedup"] >= 1.5
    # Streaming: the first value lands well before the campaign barrier.
    streaming = report["streaming"]
    assert streaming["time_to_first_s"] < streaming["barrier_total_s"]
    assert streaming["first_vs_barrier_ratio"] <= 0.6
    # Supervised dispatch (liveness monitoring, respawn, deadlines) must
    # not meaningfully tax a latency-bound battery.  The committed-record
    # bound is 1.10x; the tiny smoke sizes are noisier, so allow slack
    # while still catching a pathological regression.
    overhead = report["supervised_overhead"]
    assert overhead["raw_pool_s"] > 0 and overhead["supervised_s"] > 0
    assert overhead["overhead_ratio"] <= 1.5
    # Observability must be near-free when disabled.  The committed-record
    # bound is 1.05x; the smoke workload is tiny and timing-noisy, so
    # allow slack while still catching an always-on instrumentation bug.
    obs_overhead = report["obs_overhead"]
    assert obs_overhead["gate_applies_observed"] > 0
    assert obs_overhead["spans_recorded"] > 0
    assert obs_overhead["disabled_ratio"] <= 1.5
    # The live /metrics endpoint answered while the registry was hot.
    serve_scrape = obs_overhead["serve_scrape"]
    assert serve_scrape["status"] == 200
    assert serve_scrape["families"] > 0
    assert serve_scrape["min_scrape_s"] > 0
    # Cached replay serves (almost) everything without recomputation.
    sqed = report["sqed_campaign"]
    assert sqed["replay_hit_fraction"] >= 0.95
    assert sqed["replay_speedup"] >= 10.0
    assert sqed["monotone_damage"]
    # The autopilot contract delivers within budget with zero hand-set
    # caps.  The committed-record wall-time bound is 1.2x the best
    # hand-tuned config; the smoke campaigns finish in milliseconds, so
    # only the accuracy contract is guarded here.
    autopilot = report["autopilot"]
    assert autopilot["meets_target"]
    assert autopilot["autopilot_max_abs_error"] <= autopilot["target_error"]
    assert autopilot["vs_best_hand_ratio"] > 0
    assert len(autopilot["hand_tuned"]) >= 3
    # The cost model lands on the anchor decisions with freshly measured
    # constants, not just the committed ones.
    selection = report["auto_selection"]
    assert selection["4_qutrit_noiseless"]["backend"] == "statevector"
    assert selection["12_qutrit_noisy"]["backend"] in ("mps", "lpdo")
    for value in report["calibration"].values():
        assert value > 0
    assert json.loads(out.read_text())["meta"]["benchmark"] == "bench_exec"
    _publish_artifact(out)


@pytest.mark.bench_smoke
def test_obs_demo_campaign_trace_artifact(tmp_path):
    """A demo campaign traced end to end, published next to BENCH_*.json.

    Runs a small pooled campaign with observability on, checks the
    telemetry is genuinely multi-process and perturbation-free, and
    publishes the JSON-lines span log (plus its Chrome-trace rendering)
    as CI artifacts so a run's per-point timeline can be inspected in
    Perfetto without rerunning anything.
    """
    from bench_exec import _latency_campaign

    from repro import obs
    from repro.exec import CampaignExecutor, run_campaign
    from repro.obs import tracing

    obs.disable()
    obs.reset()
    try:
        baseline = run_campaign(_latency_campaign(16, 5.0), workers=1).values
        obs.enable()
        with CampaignExecutor(workers=2) as executor:
            result = executor.submit(_latency_campaign(16, 5.0)).result()
        assert result.values == baseline  # telemetry never perturbs values

        spans = [ev for ev in tracing.events() if ev["name"] == "point"]
        assert len(spans) == 16
        assert len({ev["pid"] for ev in spans}) >= 2  # true multi-process

        trace_jsonl = tmp_path / "TRACE_exec_demo.jsonl"
        trace_chrome = tmp_path / "TRACE_exec_demo.chrome.json"
        assert tracing.write_jsonl(trace_jsonl) >= 16
        tracing.write_chrome(trace_chrome)
        assert tracing.read_jsonl(trace_jsonl) == tracing.events()
        doc = json.loads(trace_chrome.read_text())
        assert any(ev["ph"] == "X" for ev in doc["traceEvents"])
        _publish_artifact(trace_jsonl)
        _publish_artifact(trace_chrome)
    finally:
        obs.disable()
        obs.reset()


@pytest.mark.bench_smoke
def test_obs_flight_report_artifact(tmp_path, monkeypatch):
    """A campaign scraped live over HTTP, then rendered as a flight report.

    Opts into the telemetry endpoint via ``REPRO_OBS_HTTP`` (the same
    knob CI would use), curls ``/metrics`` mid-run asserting a valid
    exposition body, and publishes the markdown + HTML flight reports
    rendered from the run's ledger record as CI artifacts.
    """
    import urllib.request

    from bench_exec import _latency_campaign

    from repro import obs
    from repro.exec import CampaignExecutor, ResultCache
    from repro.obs import report

    obs.disable()
    obs.reset()
    monkeypatch.setenv("REPRO_OBS_HTTP", "0")  # ephemeral port
    try:
        cache = ResultCache(tmp_path / "cache")
        with CampaignExecutor(workers=2, cache=cache) as executor:
            handle = executor.submit(_latency_campaign(8, 5.0))
            scrapes = []
            for _ in handle.as_completed():
                with urllib.request.urlopen(
                    executor.http_url + "/metrics", timeout=10
                ) as response:
                    assert response.status == 200
                    scrapes.append(response.read().decode("utf-8"))
        # the mid-run scrapes saw live, typed exposition text
        assert any("# TYPE exec_point_s histogram" in body for body in scrapes)

        ledger = cache.ledger()
        assert len(ledger) == 1
        report_md = tmp_path / "FLIGHT_exec_demo.md"
        report_html = tmp_path / "FLIGHT_exec_demo.html"
        assert report.main([str(ledger.path), "--out", str(report_md)]) == 0
        assert (
            report.main(
                [str(ledger.path), "--format", "html", "--out", str(report_html)]
            )
            == 0
        )
        assert report_md.read_text().startswith("# Flight report")
        assert report_html.read_text().startswith("<!DOCTYPE html>")
        _publish_artifact(report_md)
        _publish_artifact(report_html)
    finally:
        obs.disable()
        obs.reset()


@pytest.mark.bench_smoke
def test_committed_bench_exec_json_meets_targets():
    """The committed BENCH_exec.json must document the campaign claims:

    >= 2x scheduler concurrency at 8 workers on the latency-bound smoke
    campaign, >= 2x from pool reuse on the short-campaign battery, a
    streamed time-to-first-result <= 0.5x the barrier runner's total
    wall time, supervised (fault-tolerant) dispatch within 10% of a raw
    unsupervised pool on the latency-bound battery, a >= 10x cached
    replay serving >= 95% of the 64-point
    sQED campaign, the error-budget autopilot meeting its
    ``target_error`` contract within 1.2x the wall time of the best
    hand-tuned cap configuration, and the auto-selector's anchor
    decisions (statevector for a small noiseless register, a tensor
    network for 12 noisy qutrits).  The CPU-bound parallel speedup is recorded together with
    the host's core count; the >= 2x guard applies where cores exist to
    use.  Observability instrumentation must be near-free when disabled
    (disabled ratio <= 1.05), with a successful live ``/metrics`` scrape
    of the hot registry on record (``serve_scrape``).
    """
    report = json.loads((REPO_ROOT / "BENCH_exec.json").read_text())
    latency = report["latency_campaign"]
    assert latency["workers"] >= 8
    assert latency["speedup"] >= 2.0
    pool_reuse = report["pool_reuse"]
    assert pool_reuse["n_campaigns"] >= 8
    assert pool_reuse["speedup"] >= 2.0
    streaming = report["streaming"]
    assert streaming["n_points"] >= 16
    assert streaming["first_vs_barrier_ratio"] <= 0.5
    assert streaming["time_to_first_s"] <= 0.5 * streaming["barrier_total_s"]
    overhead = report["supervised_overhead"]
    assert overhead["n_points"] >= 16
    assert overhead["workers"] >= 8
    assert overhead["overhead_ratio"] <= 1.10
    obs_overhead = report["obs_overhead"]
    assert obs_overhead["gate_applies_observed"] > 0
    assert obs_overhead["spans_recorded"] > 0
    assert obs_overhead["disabled_ratio"] <= 1.05
    serve_scrape = obs_overhead["serve_scrape"]
    assert serve_scrape["status"] == 200
    assert serve_scrape["families"] > 0
    assert serve_scrape["min_scrape_s"] > 0
    sqed = report["sqed_campaign"]
    assert sqed["n_points"] >= 64
    assert sqed["workers"] >= 8
    assert sqed["replay_hit_fraction"] >= 0.95
    assert sqed["replay_speedup"] >= 10.0
    if report["meta"]["cpu_count"] >= 8:
        assert sqed["parallel_speedup"] >= 2.0
    autopilot = report["autopilot"]
    assert autopilot["meets_target"]
    assert autopilot["autopilot_max_abs_error"] <= autopilot["target_error"]
    assert autopilot["vs_best_hand_ratio"] <= 1.2
    selection = report["auto_selection"]
    assert selection["4_qutrit_noiseless"]["backend"] == "statevector"
    assert selection["12_qutrit_noisy"]["backend"] in ("mps", "lpdo")
    for value in report["calibration"].values():
        assert value > 0


@pytest.mark.bench_smoke
def test_committed_bench_core_json_meets_targets():
    """The committed BENCH_core.json must document the required speedups."""
    report = json.loads((REPO_ROOT / "BENCH_core.json").read_text())
    gate = report["gate_apply"]
    assert gate["diagonal_geomean_speedup"] >= 3.0
    assert gate["permutation_geomean_speedup"] >= 3.0
    assert report["trajectories"]["ndar_style"]["speedup"] >= 5.0
    ndar = report["trajectories"]["table1_ndar"]
    assert ndar["counts"] == ndar["parent_counts"]
    assert ndar["change_ms"]["total"] <= 0.6 * ndar["parent_ms"]["total"]
    assert report["correctness"]["max_fastpath_vs_dense_error"] < 1e-12
    step = report["ec1_density"]["noisy_qubit_step"]
    assert step["max_error_vs_apply_kraus"] < 1e-12
    assert step["compiled_ops"] <= 0.55 * step["plan_steps"]
    # A new epsilon binds the step's noise template instead of rebuilding,
    # re-planning and recompiling the noisy step.
    assert step["change_bind_evolve_ms"] <= 0.5 * step["parent_bind_evolve_ms"]
    ec1 = report["ec1_density"]["ec1_bench_size"]
    assert ec1["thresholds"] == ec1["parent_thresholds"]
    assert ec1["change_s"] <= 0.9 * ec1["parent_s"]
    _check_reservoir_record(
        report["reservoir"], timed=("levels_4", "levels_9")
    )
