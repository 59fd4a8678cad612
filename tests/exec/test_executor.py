"""Tests for the persistent executor: pool reuse, streaming, early stop.

The load-bearing properties:

* **bit-equality** — barrier, streamed, and as-completed consumption of
  the same campaign observe identical values at any worker count;
* **pool reuse** — one executor serves many campaigns (with different
  task functions) on a single pool, and survives a failing task;
* **deterministic early stop** — decisions made while streaming depend
  on point order, never on scheduling.
"""

import os
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.exceptions import SimulationError
from repro.exec import (
    Campaign,
    CampaignExecutor,
    ResultCache,
    run_campaign,
    zip_sweep,
)


def stochastic_task(x, scale=1.0, seed=0):
    """A deliberately seed-sensitive task (module-level: pool-importable)."""
    rng = np.random.default_rng(seed)
    return float(x * scale + rng.normal())


def record_task(x, seed=0):
    return {"x": x, "draw": float(np.random.default_rng(seed).random())}


def failing_task(x, seed=0):
    if x == 2:
        raise ValueError("boom")
    return x


def slow_task(x, delay_ms=10.0, seed=0):
    time.sleep(delay_ms / 1000.0)
    return int(x)


def cpu_task(x, n_terms=300_000, seed=0):
    """A purely CPU-bound task for the multicore speedup guard."""
    total = 0.0
    for i in range(int(n_terms)):
        total += (i % 7) * 0.25
    return float(total + x)


def _campaign(n=8, task=stochastic_task, **kwargs):
    defaults = dict(
        task=task,
        sweep=zip_sweep(x=list(range(n))),
        base_params={"scale": 2.0} if task is stochastic_task else {},
        seed=42,
    )
    defaults.update(kwargs)
    return Campaign(**defaults)


class TestStreamedBitEquality:
    @settings(max_examples=8, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=7),
        workers=st.integers(min_value=1, max_value=3),
    )
    def test_stream_and_barrier_agree(self, n, workers):
        """Streamed == as-completed == barrier, over shapes and pools."""
        barrier = run_campaign(_campaign(n=n), workers=workers)
        with CampaignExecutor(workers) as executor:
            streamed = list(executor.submit(_campaign(n=n)).stream_results())
            events = list(executor.submit(_campaign(n=n)).as_completed())
        assert streamed == barrier.values
        reassembled = {e.point.index: e.value for e in events}
        assert [reassembled[i] for i in range(n)] == barrier.values

    def test_stream_yields_in_point_order(self):
        with CampaignExecutor(3) as executor:
            handle = executor.submit(_campaign(n=9))
            for point, value in zip(handle.points, handle.stream_results()):
                assert value == handle._values[point.index]

    def test_result_after_partial_stream_consumption(self):
        """Mixing consumption styles drains the one shared event stream."""
        with CampaignExecutor(2) as executor:
            handle = executor.submit(_campaign(n=6))
            stream = handle.stream_results()
            first = next(stream)
            result = handle.result()
        assert result.values[0] == first
        assert result.values == run_campaign(_campaign(n=6)).values


class TestExecutorReuse:
    def test_many_campaigns_one_pool(self):
        with CampaignExecutor(3) as executor:
            for n in (4, 5, 6):
                result = executor.run(_campaign(n=n))
                assert result.values == run_campaign(_campaign(n=n)).values
            stats = executor.stats
        assert stats["pools_created"] == 1
        assert stats["campaigns"] == 3
        assert stats["points_computed"] == 15

    def test_reuse_across_different_task_functions(self):
        with CampaignExecutor(2) as executor:
            a = executor.run(_campaign(n=4, task=stochastic_task))
            b = executor.run(_campaign(n=4, task=record_task))
            c = executor.run(_campaign(n=4, task=slow_task))
            assert executor.stats["pools_created"] == 1
        assert a.values == run_campaign(_campaign(n=4, task=stochastic_task)).values
        assert b.values == run_campaign(_campaign(n=4, task=record_task)).values
        assert c.values == [0, 1, 2, 3]

    def test_executor_survives_failing_task(self):
        with CampaignExecutor(2) as executor:
            with pytest.raises(ValueError, match="boom"):
                executor.run(_campaign(n=4, task=failing_task))
            # The pool is still healthy for the next campaign.
            result = executor.run(_campaign(n=4))
            assert result.values == run_campaign(_campaign(n=4)).values

    def test_serial_executor_never_creates_pool(self):
        with CampaignExecutor() as executor:
            executor.run(_campaign(n=3))
            executor.warm()
            assert executor.stats["pools_created"] == 0
            assert executor.stats["pool_alive"] is False

    def test_warm_creates_pool_eagerly(self):
        with CampaignExecutor(2) as executor:
            executor.warm()
            assert executor.stats["pool_alive"] is True
            assert executor.stats["pools_created"] == 1
            executor.run(_campaign(n=4))
            assert executor.stats["pools_created"] == 1

    def test_closed_executor_rejects_submissions(self):
        executor = CampaignExecutor(2)
        executor.close()
        with pytest.raises(SimulationError, match="closed"):
            executor.submit(_campaign(n=2))
        executor.close()  # idempotent

    def test_invalid_workers(self):
        with pytest.raises(SimulationError):
            CampaignExecutor(-2)


class TestCacheShortCircuit:
    def test_hits_resolve_before_dispatch(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_campaign(_campaign(), cache=cache)
        with CampaignExecutor(4, cache=cache) as executor:
            handle = executor.submit(_campaign())
            events = list(handle.as_completed())
            # Fully cached: nothing was dispatched, no pool was created.
            assert executor.stats["pool_alive"] is False
        assert all(event.source == "cache" for event in events)
        assert handle.cache_hits == len(events)
        assert handle.computed == 0

    def test_per_submit_cache_override(self, tmp_path):
        with CampaignExecutor(cache=ResultCache(tmp_path)) as executor:
            executor.run(_campaign(n=3))
            # cache=None disables the executor default for this call.
            handle = executor.submit(_campaign(n=3), cache=None)
            assert handle.cache_hits == 0
            # The default cache is still in place afterwards.
            assert executor.submit(_campaign(n=3)).result().cache_hits == 3

    def test_checkpoint_written_incrementally(self, tmp_path):
        checkpoint = tmp_path / "progress.jsonl"
        with CampaignExecutor() as executor:
            handle = executor.submit(_campaign(n=5), checkpoint=checkpoint)
            stream = handle.stream_results()
            next(stream)
            # Serial streaming computes lazily: after one consumed point,
            # exactly one record is durable.
            assert len(checkpoint.read_text().splitlines()) == 1
            list(stream)
        assert len(checkpoint.read_text().splitlines()) == 5


class TestPartialResult:
    def test_partial_result_never_blocks(self):
        with CampaignExecutor() as executor:
            handle = executor.submit(_campaign(n=6))
            stream = handle.stream_results()
            next(stream)
            partial = handle.partial_result()
        assert len(partial) == 1
        assert partial.points[0].index == 0

    def test_partial_equals_full_when_drained(self):
        with CampaignExecutor(2) as executor:
            handle = executor.submit(_campaign(n=6))
            full = handle.result()
            assert handle.partial_result().values == full.values


class TestNdarEarlyStopDeterminism:
    def _battery(self, workers, target_cost):
        from repro.qaoa import ndar_restart_battery

        return ndar_restart_battery(
            n_restarts=6,
            n_nodes=4,
            degree=2,
            n_rounds=2,
            shots=10,
            seed=5,
            workers=workers,
            target_cost=target_cost,
        )

    def test_early_stop_independent_of_worker_count(self):
        full = self._battery(workers=None, target_cost=None)
        assert full["stopped_early"] is False
        assert full["n_evaluated"] == 6
        # Pick a target the battery reaches mid-way, then require the
        # stop decision (made on the deterministic point-order stream)
        # to be identical serially and under a pool.
        target = full["best_cost"]
        stopped = [self._battery(w, target) for w in (None, 3)]
        assert stopped[0]["stopped_early"] and stopped[1]["stopped_early"]
        for key in ("best_cost", "best_restart", "n_evaluated", "mean_best_cost"):
            assert stopped[0][key] == stopped[1][key], key
        assert stopped[0]["n_evaluated"] <= 6


class TestThresholdStreamedBisection:
    def test_executor_reuse_matches_one_shot(self, tmp_path):
        from repro.sqed.noise_study import noise_threshold_campaign

        kwargs = dict(
            damage_tol=0.1,
            bisection_steps=3,
            n_sites=2,
            spin=1,
            t_total=1.0,
            n_steps=2,
            method="auto",
        )
        one_shot = noise_threshold_campaign(cache=tmp_path / "a", **kwargs)
        with CampaignExecutor(2, cache=tmp_path / "b") as executor:
            threshold = noise_threshold_campaign(executor=executor, **kwargs)
        assert threshold == pytest.approx(one_shot, rel=1e-12)


class TestReservoirStreaming:
    def test_on_result_callback_sees_every_point(self, tmp_path):
        from repro.reservoir import reservoir_grid_campaign

        seen = []
        out = reservoir_grid_campaign(
            input_gains=[0.8, 1.2],
            drive_biases=[1.0],
            alphas=[1e-4],
            shot_budgets=[0],
            length=30,
            levels=3,
            washout=5,
            cache=tmp_path,
            on_result=lambda point, value: seen.append(point.index),
        )
        assert sorted(seen) == [0, 1]
        assert out["best"]["nmse"] >= 0.0


@pytest.mark.skipif(
    os.environ.get("REPRO_EXEC_MULTICORE") != "1",
    reason="CPU-bound speedup guard: set REPRO_EXEC_MULTICORE=1 on a "
    "multi-core host (the exec-multicore CI job does)",
)
class TestMulticoreSpeedupGuard:
    def test_cpu_bound_parallel_speedup(self):
        """Real cores must buy real wall-clock on a CPU-bound campaign.

        The committed BENCH_exec.json was recorded on a 1-core host where
        this is honestly ~1x; this guard runs where cpu_count > 1.
        """
        assert (os.cpu_count() or 1) > 1, "guard requires a multi-core host"
        campaign = _campaign(n=24, task=cpu_task)
        serial = run_campaign(campaign)
        parallel = run_campaign(campaign, workers=4)
        assert parallel.values == serial.values
        speedup = serial.duration_s / parallel.duration_s
        assert speedup >= 1.5, f"parallel speedup {speedup:.2f}x < 1.5x"


class TestHandleLifetimeErrors:
    def test_consuming_after_close_raises_instead_of_hanging(self):
        with CampaignExecutor(2) as executor:
            handle = executor.submit(_campaign(n=8, task=slow_task))
            next(handle.stream_results())
        # The pool is gone with points still undelivered: next() on its
        # iterator would block forever — the handle must fail fast.
        with pytest.raises(SimulationError, match="closed"):
            handle.result()

    def test_fully_drained_handle_survives_close(self):
        with CampaignExecutor(2) as executor:
            handle = executor.submit(_campaign(n=4))
            values = handle.result().values
        assert handle.result().values == values  # replays, no pool needed

    def test_failed_handle_reraises_not_keyerror(self):
        with CampaignExecutor() as executor:
            handle = executor.submit(_campaign(n=4, task=failing_task))
            with pytest.raises(ValueError, match="boom"):
                handle.result()
            with pytest.raises(SimulationError, match="failed"):
                handle.result()
            # as_completed replays the pre-failure prefix, then re-raises
            # (never silently ends as if the campaign had finished).
            events = []
            with pytest.raises(SimulationError, match="failed"):
                for event in handle.as_completed():
                    events.append(event.point.params["x"])
            assert events == [0, 1]


class TestGracefulClose:
    """close() drains workers when nothing is in flight (satellite:
    no more unconditional pool.terminate())."""

    def test_drained_executor_closes_gracefully(self):
        executor = CampaignExecutor(2)
        executor.run(_campaign(n=4))
        pool = executor._pool
        assert pool is not None
        processes = pool.worker_processes()
        assert all(p.is_alive() for p in processes)
        assert executor.close() is True  # graceful drain, not terminate
        assert all(not p.is_alive() for p in processes)
        # Stop-sentinel exits are clean (exit code 0), never signalled.
        assert all(p.exitcode == 0 for p in processes)

    def test_abandoned_stream_falls_back_to_terminate(self):
        executor = CampaignExecutor(2)
        handle = executor.submit(_campaign(n=8, task=slow_task))
        next(handle.stream_results())  # abandon with points in flight
        pool = executor._pool
        processes = pool.worker_processes()
        assert executor.close() is False  # undelivered work: hard stop
        assert all(not p.is_alive() for p in processes)

    def test_close_twice_is_safe(self):
        executor = CampaignExecutor(2)
        executor.run(_campaign(n=4))
        assert executor.close() is True
        assert executor.close() is True  # no pool left: trivially graceful

    def test_serial_close_is_trivially_graceful(self):
        executor = CampaignExecutor(1)
        executor.run(_campaign(n=3))
        assert executor.close() is True


class TestInterruptSafety:
    """KeyboardInterrupt leaves the checkpoint consistent and the pool
    torn down (satellite: no torn final record)."""

    def test_sigint_mid_write_never_tears_the_record(self, tmp_path):
        """A SIGINT landing *during* a checkpoint append is deferred
        until the record is fully written and flushed."""
        import json
        import signal as _signal

        from repro.exec.executor import _append_checkpoint

        path = tmp_path / "ckpt.jsonl"
        point = _campaign(n=1).points()[0]

        class InterruptMidWrite:
            def __init__(self, handle):
                self.handle = handle

            def write(self, line):
                self.handle.write(line[: len(line) // 2])
                # Mid-record interrupt: without the shield this raises
                # here and leaves a torn line behind.
                os.kill(os.getpid(), _signal.SIGINT)
                self.handle.write(line[len(line) // 2 :])

            def flush(self):
                self.handle.flush()

        with path.open("a") as raw:
            with pytest.raises(KeyboardInterrupt):
                _append_checkpoint(InterruptMidWrite(raw), point, {"v": 1})
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])  # parses: not torn
        assert record == {
            "key": point.key,
            "index": 0,
            "status": "ok",
            "value": {"v": 1},
        }

    def test_interrupted_stream_leaves_consistent_checkpoint(self, tmp_path):
        """Abort a pool-backed stream mid-campaign: every checkpoint
        line parses, the pool tears down, and a resume replays cleanly."""
        import json

        checkpoint = tmp_path / "interrupted.jsonl"
        executor = CampaignExecutor(2)
        try:
            handle = executor.submit(
                _campaign(n=8, task=slow_task), checkpoint=checkpoint
            )
            with pytest.raises(KeyboardInterrupt):
                for i, _ in enumerate(handle.as_completed()):
                    if i >= 2:  # the user hits Ctrl-C mid-consumption
                        raise KeyboardInterrupt
        finally:
            pool = executor._pool
            processes = pool.worker_processes() if pool is not None else []
            executor.close()
        assert all(not p.is_alive() for p in processes)
        lines = checkpoint.read_text().splitlines()
        assert len(lines) >= 3
        for line in lines:
            record = json.loads(line)  # every line is complete JSON
            assert record["status"] == "ok"
        resumed = run_campaign(_campaign(n=8, task=slow_task), checkpoint=checkpoint)
        clean = run_campaign(_campaign(n=8, task=slow_task))
        assert resumed.values == clean.values
        assert resumed.checkpoint_hits >= 3

    def test_interrupt_in_serial_task_propagates(self, tmp_path):
        """KeyboardInterrupt raised by the task itself is never swallowed
        by retry machinery."""
        from repro.exec import FailurePolicy

        checkpoint = tmp_path / "serial.jsonl"
        policy = FailurePolicy(mode="retry", max_attempts=5, backoff_base=0.0)
        with CampaignExecutor(1) as executor:
            handle = executor.submit(
                _campaign(n=4, task=interrupting_task),
                checkpoint=checkpoint,
                policy=policy,
            )
            with pytest.raises(KeyboardInterrupt):
                handle.result()
        import json

        for line in checkpoint.read_text().splitlines():
            json.loads(line)  # whatever was written is whole


def interrupting_task(x, seed=0):
    if x == 2:
        raise KeyboardInterrupt
    return int(x)


class TestResilienceCounters:
    def test_counters_present_and_zero_on_clean_runs(self):
        with CampaignExecutor(2) as executor:
            executor.run(_campaign(n=4))
            stats = executor.stats
        assert stats["respawns"] == 0
        assert stats["retries"] == 0
        assert stats["timeouts"] == 0
