"""Tests for the campaign runner: pools, checkpoints, determinism.

The load-bearing property: a campaign's values are **bit-identical**
however its points are scheduled — serial, parallel, resumed, or served
from cache — because every point's randomness comes from its own
content-spawned seed, never from a shared stream.
"""

import json

import numpy as np
import pytest

from repro.core.exceptions import SimulationError
from repro.core.rng import spawn_seeds
from repro.exec import (
    Campaign,
    ResultCache,
    run_campaign,
    zip_sweep,
)
from repro.exec.executor import to_jsonable


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


def _campaign(n=8, **kwargs):
    defaults = dict(
        task=stochastic_task,
        sweep=zip_sweep(x=list(range(n))),
        base_params={"scale": 2.0},
        seed=42,
    )
    defaults.update(kwargs)
    return Campaign(**defaults)


class TestSpawnSeeds:
    def test_deterministic_and_distinct(self):
        a = spawn_seeds(7, 10)
        assert a == spawn_seeds(7, 10)
        assert len(set(a)) == 10
        assert a != spawn_seeds(8, 10)

    def test_prefix_stability(self):
        """Child i depends only on (root, i), not on how many are spawned."""
        assert spawn_seeds(3, 4) == spawn_seeds(3, 9)[:4]

    def test_validation(self):
        assert spawn_seeds(0, 0) == []
        with pytest.raises(SimulationError):
            spawn_seeds(0, -1)


class TestSerialExecution:
    def test_values_in_point_order(self):
        result = run_campaign(_campaign())
        assert len(result) == 8
        assert result.computed == 8 and result.cache_hits == 0
        expected = [
            stochastic_task(p.params["x"], p.params["scale"], p.seed)
            for p in result.points
        ]
        assert result.values == expected

    def test_repeat_run_is_bit_identical(self):
        assert run_campaign(_campaign()).values == run_campaign(_campaign()).values

    def test_as_table(self):
        table = run_campaign(_campaign(n=2)).as_table()
        assert table[0]["x"] == 0 and "value" in table[0] and "seed" in table[0]

    def test_task_error_propagates(self):
        campaign = Campaign(task=failing_task, sweep=zip_sweep(x=[1, 2, 3]))
        with pytest.raises(ValueError, match="boom"):
            run_campaign(campaign)


class TestParallelExecution:
    def test_parallel_bit_identical_to_serial(self):
        serial = run_campaign(_campaign(n=12))
        parallel = run_campaign(_campaign(n=12), workers=4)
        assert parallel.values == serial.values
        assert parallel.workers == 4

    def test_parallel_with_dict_values(self):
        campaign = Campaign(task=record_task, sweep=zip_sweep(x=list(range(6))))
        serial = run_campaign(campaign)
        parallel = run_campaign(campaign, workers=3)
        assert parallel.values == serial.values

    def test_invalid_workers(self):
        with pytest.raises(SimulationError):
            run_campaign(_campaign(), workers=-2)


class TestCacheIntegration:
    def test_second_run_served_from_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        first = run_campaign(_campaign(), cache=cache)
        second = run_campaign(_campaign(), cache=cache)
        assert second.values == first.values
        assert second.cache_hits == len(second) and second.computed == 0
        assert second.hit_fraction == 1.0

    def test_cache_accepts_path(self, tmp_path):
        run_campaign(_campaign(n=3), cache=tmp_path / "c")
        result = run_campaign(_campaign(n=3), cache=tmp_path / "c")
        assert result.cache_hits == 3

    def test_overlapping_campaigns_share_points(self, tmp_path):
        """A differently-shaped campaign reuses shared (params, seed) points."""
        cache = ResultCache(tmp_path)
        run_campaign(_campaign(n=8), cache=cache)
        subset = _campaign(n=3)  # x in {0, 1, 2}: a strict subset
        result = run_campaign(subset, cache=cache)
        assert result.cache_hits == 3 and result.computed == 0

    def test_changed_seed_or_params_misses(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_campaign(_campaign(), cache=cache)
        assert run_campaign(_campaign(seed=43), cache=cache).cache_hits == 0
        other = _campaign(base_params={"scale": 3.0})
        assert run_campaign(other, cache=cache).cache_hits == 0
        bumped = _campaign(version="2")
        assert run_campaign(bumped, cache=cache).cache_hits == 0


class TestCheckpointRecovery:
    def test_resume_skips_completed_points(self, tmp_path):
        checkpoint = tmp_path / "progress.jsonl"
        full = run_campaign(_campaign(), checkpoint=checkpoint)
        lines = checkpoint.read_text().splitlines()
        assert len(lines) == 8
        # Simulate a crash after 5 points: truncate the log.
        checkpoint.write_text("\n".join(lines[:5]) + "\n")
        resumed = run_campaign(_campaign(), checkpoint=checkpoint)
        assert resumed.checkpoint_hits == 5 and resumed.computed == 3
        assert resumed.values == full.values

    def test_corrupted_and_partial_lines_recovered(self, tmp_path):
        checkpoint = tmp_path / "progress.jsonl"
        full = run_campaign(_campaign(), checkpoint=checkpoint)
        lines = checkpoint.read_text().splitlines()
        # A crash mid-append leaves a truncated trailing record; sprinkle
        # in garbage and a wrong-shape record for good measure.
        damaged = lines[:4] + [
            "not json at all",
            '{"missing": "key-field"}',
            lines[4][: len(lines[4]) // 2],
        ]
        checkpoint.write_text("\n".join(damaged) + "\n")
        resumed = run_campaign(_campaign(), checkpoint=checkpoint)
        assert resumed.checkpoint_hits == 4 and resumed.computed == 4
        assert resumed.values == full.values

    def test_checkpoint_feeds_cache(self, tmp_path):
        checkpoint = tmp_path / "progress.jsonl"
        run_campaign(_campaign(), checkpoint=checkpoint)
        cache = ResultCache(tmp_path / "cache")
        resumed = run_campaign(_campaign(), checkpoint=checkpoint, cache=cache)
        assert resumed.checkpoint_hits == len(resumed)
        # The replayed values were promoted into the durable cache.
        assert run_campaign(_campaign(), cache=cache).cache_hits == 8

    def test_parallel_resume(self, tmp_path):
        checkpoint = tmp_path / "progress.jsonl"
        full = run_campaign(_campaign(n=10), workers=3, checkpoint=checkpoint)
        lines = checkpoint.read_text().splitlines()
        checkpoint.write_text("\n".join(lines[:4]) + "\n")
        resumed = run_campaign(_campaign(n=10), workers=3, checkpoint=checkpoint)
        assert resumed.checkpoint_hits == 4 and resumed.computed == 6
        assert resumed.values == full.values


class TestJsonNormalisation:
    def test_numpy_types_normalised(self):
        value = to_jsonable(
            {
                "a": np.float64(0.5),
                "b": np.int32(3),
                "c": np.array([[1, 2], [3, 4]]),
                "d": (np.bool_(True), None),
                5: "int-key",
            }
        )
        assert value == {
            "a": 0.5,
            "b": 3,
            "c": [[1, 2], [3, 4]],
            "d": [True, None],
            "5": "int-key",
        }
        json.dumps(value)  # round-trips through JSON

    def test_unserialisable_rejected(self):
        with pytest.raises(SimulationError):
            to_jsonable(object())


class TestWorkloadCampaigns:
    """The wired-up workload layers behave as campaigns end to end."""

    def test_ndar_battery_deterministic_and_cached(self, tmp_path):
        from repro.qaoa import ndar_restart_battery

        kwargs = dict(n_nodes=4, degree=2, n_rounds=2, shots=10, seed=5)
        first = ndar_restart_battery(n_restarts=3, cache=tmp_path, **kwargs)
        again = ndar_restart_battery(n_restarts=3, cache=tmp_path, workers=2, **kwargs)
        assert again["campaign"].cache_hits == 3
        assert again["best_cost"] == first["best_cost"]
        assert again["mean_best_cost"] == first["mean_best_cost"]

    def test_drivers_share_the_on_result_hook(self, tmp_path):
        """Every campaign driver exposes the same progress callback."""
        from repro.qaoa import ndar_restart_battery
        from repro.sqed.noise_study import damage_campaign

        seen = []

        def hook(point, value):
            seen.append(point.index)

        out = ndar_restart_battery(
            n_restarts=3,
            n_nodes=4,
            degree=2,
            n_rounds=2,
            shots=10,
            seed=5,
            cache=tmp_path,
            on_result=hook,
        )
        assert sorted(seen) == [0, 1, 2]
        assert out["n_evaluated"] == 3

        seen.clear()
        result = damage_campaign(
            epsilons=[0.01, 0.1],
            n_sites=2,
            spin=1,
            t_total=1.0,
            n_steps=2,
            method="auto",
            cache=tmp_path,
            on_result=hook,
        )
        assert sorted(seen) == [0, 1]
        assert len(result.values) == 2

    def test_sqed_threshold_campaign_matches_serial(self, tmp_path):
        from repro.sqed.encodings import QuditEncoding
        from repro.sqed.noise_study import (
            noise_threshold,
            noise_threshold_campaign,
        )
        from repro.sqed.rotor import RotorChain

        kwargs = dict(n_sites=2, spin=1, t_total=1.0, n_steps=2, method="auto")
        campaign_threshold = noise_threshold_campaign(
            damage_tol=0.1, bisection_steps=3, cache=tmp_path, **kwargs
        )
        serial_threshold = noise_threshold(
            QuditEncoding(RotorChain(2, 1)),
            damage_tol=0.1,
            t_total=1.0,
            n_steps=2,
            bisection_steps=3,
            method="auto",
        )
        assert campaign_threshold == pytest.approx(serial_threshold, rel=1e-12)

    def test_reservoir_grid_campaign(self, tmp_path):
        from repro.reservoir import reservoir_grid_campaign

        out = reservoir_grid_campaign(
            input_gains=[0.8, 1.2],
            drive_biases=[1.0],
            alphas=[1e-4],
            shot_budgets=[0],
            length=30,
            levels=3,
            washout=5,
            cache=tmp_path,
        )
        assert out["best"]["nmse"] >= 0.0
        assert len(out["campaign"]) == 2
        again = reservoir_grid_campaign(
            input_gains=[0.8, 1.2],
            drive_biases=[1.0],
            alphas=[1e-4],
            shot_budgets=[0],
            length=30,
            levels=3,
            washout=5,
            cache=tmp_path,
        )
        assert again["campaign"].cache_hits == 2
        assert again["best"] == out["best"]
