"""The run ledger: append-only, restart-proof, and queryable.

Two contracts under test.  The store itself: JSON-lines records that
survive process boundaries (fresh ``RunLedger`` objects see everything
earlier ones wrote), tolerate torn tails, and answer filtered queries
and per-point ``exec_s`` aggregations.  The executor integration: every
*completed* run appends exactly one record — co-located with the result
cache by default, invisible to the cache's own scans — while abandoned
streams leave no record and ledger writes never change computed values.
"""

import json

import numpy as np
import pytest

from repro import obs
from repro.core import blas
from repro.exec import Campaign, CampaignExecutor, ResultCache, zip_sweep
from repro.obs.ledger import LEDGER_FILENAME, RunLedger


def seeded_task(x, seed=0):
    return float(x + np.random.default_rng(seed).random())


def failing_task(x, seed=0):
    if x == 1:
        raise ValueError("point 1 always fails")
    return float(x)


def _campaign(n=4, task=seeded_task, **kwargs):
    defaults = dict(task=task, sweep=zip_sweep(x=list(range(n))), seed=11)
    defaults.update(kwargs)
    return Campaign(**defaults)


class TestStore:
    def test_append_stamps_recorded_at_and_survives_reopen(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        written = RunLedger(path).append({"fingerprint": "aa", "name": "one"})
        assert written["recorded_at"] > 0
        # a *fresh* object (new process, conceptually) sees the record
        records = list(RunLedger(path).records())
        assert len(records) == 1
        assert records[0]["fingerprint"] == "aa"

    def test_records_skip_torn_and_blank_lines(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        ledger = RunLedger(path)
        ledger.append({"fingerprint": "aa"})
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("\n{\"torn\": tru")  # crashed writer's partial line
        ledger.append({"fingerprint": "bb"})
        assert [r["fingerprint"] for r in ledger.records()] == ["aa", "bb"]
        assert len(ledger) == 2

    def test_query_filters(self, tmp_path):
        ledger = RunLedger(tmp_path / "l.jsonl")
        ledger.append({"fingerprint": "aa", "task": "m:f", "name": "x", "recorded_at": 100.0})
        ledger.append({"fingerprint": "bb", "task": "m:g", "name": "y", "recorded_at": 200.0})
        ledger.append({"fingerprint": "aa", "task": "m:f", "name": "x", "recorded_at": 300.0})
        assert len(ledger.query(fingerprint="aa")) == 2
        assert len(ledger.query(task="m:g")) == 1
        assert len(ledger.query(name="x", since=150.0)) == 1
        assert len(ledger.query(until=250.0)) == 2
        assert len(ledger.query(predicate=lambda r: r["name"] == "y")) == 1
        assert [r["recorded_at"] for r in ledger.query(fingerprint="aa", limit=1)] == [300.0]
        assert ledger.latest()["recorded_at"] == 300.0
        assert ledger.latest(fingerprint="zz") is None

    def test_exec_s_aggregation(self, tmp_path):
        ledger = RunLedger(tmp_path / "l.jsonl")
        ledger.append(
            {"fingerprint": "aa", "timeline": [{"exec_s": 1.0}, {"exec_s": 3.0}]}
        )
        ledger.append({"fingerprint": "aa", "timeline": [{"exec_s": 2.0}]})
        ledger.append({"fingerprint": "bb", "timeline": [{"exec_s": 99.0}]})
        assert ledger.exec_s_samples(fingerprint="aa") == [1.0, 3.0, 2.0]
        dist = ledger.exec_s_distribution(fingerprint="aa")
        assert dist["count"] == 3.0
        assert dist["min"] == 1.0 and dist["max"] == 3.0
        assert dist["mean"] == pytest.approx(2.0)
        assert ledger.exec_s_distribution(fingerprint="zz") is None

    def test_append_counts_metrics_when_enabled(self, tmp_path):
        obs.enable()
        ledger = RunLedger(tmp_path / "l.jsonl")
        ledger.append({"fingerprint": "aa"})
        snap = obs.snapshot()
        assert snap["ledger_records"]["values"][""] == 1.0
        assert snap["ledger_write_s"]["values"][""]["count"] == 1


class TestExecutorIntegration:
    def test_run_appends_record_colocated_with_cache(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        with CampaignExecutor(1, cache=cache) as executor:
            result = executor.run(_campaign(n=3))
        assert cache.ledger_path == tmp_path / "cache" / LEDGER_FILENAME
        records = list(cache.ledger().records())
        assert len(records) == 1
        record = records[0]
        assert record["points"] == 3
        assert record["computed"] == 3
        assert record["cache_hits"] == 0
        assert record["params_shape"] == ["x"]
        assert record["policy"]["mode"] == "fail_fast"
        assert record["env"]["cpu_count"] >= 1
        assert record["fingerprint"]
        assert len(record["timeline"]) == 3
        assert result.values  # results delivered regardless of ledger
        # the ledger file never counts as a cache entry
        assert len(cache) == 3

    def test_pool_run_records_the_per_worker_blas_count(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        with CampaignExecutor(2, cache=cache) as executor:
            executor.run(_campaign(n=4))
        recorded = cache.ledger().latest()["env"]["blas"]
        if blas.threads() == blas.UNCONTROLLED:
            assert recorded == blas.UNCONTROLLED
        else:
            assert recorded == {"parent": blas.threads(), "per_worker": 1}

    def test_serial_run_records_the_parent_blas_count(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        with CampaignExecutor(1, cache=cache) as executor:
            executor.run(_campaign(n=2))
        recorded = cache.ledger().latest()["env"]["blas"]
        if blas.threads() == blas.UNCONTROLLED:
            assert recorded == blas.UNCONTROLLED
        else:
            assert recorded == {"parent": blas.threads(), "per_worker": None}

    def test_record_is_json_parseable_line(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        with CampaignExecutor(1, cache=cache) as executor:
            executor.run(_campaign(n=2))
        lines = cache.ledger_path.read_text().strip().split("\n")
        assert len(lines) == 1
        assert json.loads(lines[0])["points"] == 2

    def test_second_run_appends_second_record_with_cache_hits(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        with CampaignExecutor(1, cache=cache) as executor:
            executor.run(_campaign(n=3))
        with CampaignExecutor(1, cache=cache) as executor:
            executor.run(_campaign(n=3))
        records = list(cache.ledger().records())
        assert len(records) == 2
        assert records[0]["fingerprint"] == records[1]["fingerprint"]
        assert records[1]["cache_hits"] == 3
        assert records[1]["computed"] == 0

    def test_no_cache_means_no_ledger(self, tmp_path):
        with CampaignExecutor(1) as executor:
            handle = executor.submit(_campaign(n=2))
            handle.result()
        assert not list(tmp_path.iterdir())

    def test_ledger_false_disables(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        with CampaignExecutor(1, cache=cache, ledger=False) as executor:
            executor.run(_campaign(n=2))
        assert not cache.ledger_path.exists()

    def test_explicit_ledger_path_wins_over_colocation(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        elsewhere = tmp_path / "elsewhere.jsonl"
        with CampaignExecutor(1, cache=cache, ledger=elsewhere) as executor:
            executor.run(_campaign(n=2))
        assert not cache.ledger_path.exists()
        assert len(RunLedger(elsewhere)) == 1

    def test_per_submission_override(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        with CampaignExecutor(1, cache=cache) as executor:
            executor.run(_campaign(n=2), ledger=False)
            executor.run(_campaign(n=3))
        records = list(cache.ledger().records())
        assert [r["points"] for r in records] == [3]

    def test_abandoned_stream_writes_no_record(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        with CampaignExecutor(1, cache=cache) as executor:
            handle = executor.submit(_campaign(n=5))
            for _ in handle.as_completed():
                break  # abandon after one point
        assert not cache.ledger_path.exists()

    def test_failed_points_recorded_under_continue_policy(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        with CampaignExecutor(1, cache=cache, policy="continue") as executor:
            executor.run(_campaign(n=3, task=failing_task))
        record = cache.ledger().latest()
        assert len(record["errors"]) == 1
        assert record["errors"][0]["error_type"] == "ValueError"

    def test_values_bit_identical_with_and_without_ledger(self, tmp_path):
        with CampaignExecutor(1, ledger=False) as executor:
            baseline = executor.run(_campaign(n=4)).values
        cache = ResultCache(tmp_path / "cache")
        with CampaignExecutor(1, cache=cache) as executor:
            observed = executor.run(_campaign(n=4)).values
        assert observed == baseline
        assert len(cache.ledger()) == 1

    def test_fingerprint_tracks_campaign_content(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        with CampaignExecutor(1, cache=cache) as executor:
            a = executor.submit(_campaign(n=2))
            a.result()
            b = executor.submit(_campaign(n=3))
            b.result()
            again = executor.submit(_campaign(n=2))
            again.result()
        assert a.fingerprint != b.fingerprint
        assert a.fingerprint == again.fingerprint
        by_fp = cache.ledger().query(fingerprint=a.fingerprint)
        assert len(by_fp) == 2
