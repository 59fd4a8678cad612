"""Flight reports: faithful renderings of ledger records, CLI included.

The renderer is pure (record in, text out), so most tests drive it with
hand-built records; the CLI tests run ``main()`` against a real ledger
on disk, including the end-to-end path from an actual executor run.
"""

import json

import numpy as np
import pytest

from repro.exec import Campaign, CampaignExecutor, ResultCache, zip_sweep
from repro.obs import profiling
from repro.obs.ledger import RunLedger
from repro.obs.report import (
    main,
    render_aggregate,
    render_html,
    render_markdown,
)


def seeded_task(x, seed=0):
    return float(x + np.random.default_rng(seed).random())


def _record(**overrides):
    record = {
        "fingerprint": "fp01",
        "name": "demo",
        "task": "pkg.mod:task",
        "version": "1",
        "points": 3,
        "workers": 2,
        "policy": {"mode": "retry", "max_attempts": 3},
        "env": {"cpu_count": 8, "platform": "linux", "python": "3.12.0"},
        "recorded_at": 1700000000.0,
        "duration_s": 1.25,
        "cache_hits": 1,
        "checkpoint_hits": 0,
        "computed": 2,
        "errors": [],
        "timeline": [
            {"index": 0, "source": "cache"},
            {
                "index": 1,
                "source": "computed",
                "ok": True,
                "exec_s": 0.5,
                "queue_wait_s": 0.1,
            },
            {
                "index": 2,
                "source": "computed",
                "ok": False,
                "exec_s": 1.0,
                "queue_wait_s": 0.0,
            },
        ],
        "metrics": None,
        "exec_point_quantiles": {"p50": 0.5, "p95": 1.0, "p99": 1.0},
        "profile": None,
    }
    record.update(overrides)
    return record


class TestMarkdown:
    def test_header_and_summary(self):
        text = render_markdown(_record())
        assert "# Flight report · demo" in text
        assert "fingerprint: fp01" in text
        assert "| cache hits | 1 |" in text
        assert "2023" in text or "recorded:" in text

    def test_host_line_names_blas_threads(self):
        pool = {"parent": {"libopenblas": 8}, "per_worker": 1}
        text = render_markdown(_record(env={"cpu_count": 8, "blas": pool}))
        assert "blas=libopenblas:8 per-worker=1" in text
        serial = {"parent": {"libopenblas": 8}, "per_worker": None}
        text = render_markdown(_record(env={"blas": serial}))
        assert "blas=libopenblas:8\n" in text
        text = render_markdown(_record(env={"blas": "uncontrolled"}))
        assert "blas=uncontrolled" in text
        assert "blas=?" in render_markdown(_record())

    def test_quantiles_surface(self):
        text = render_markdown(_record())
        assert "| p50 | 0.5000s |" in text
        assert "| p95 | 1.0000s |" in text

    def test_gantt_marks_hits_and_bars(self):
        text = render_markdown(_record())
        assert "(cache hit)" in text
        assert "█" in text
        assert "░" in text  # point 1 waited in queue
        assert "ERROR" in text  # point 2 failed

    def test_errors_table(self):
        text = render_markdown(
            _record(
                errors=[
                    {
                        "index": 2,
                        "kind": "exception",
                        "error_type": "ValueError",
                        "message": "boom " * 40,
                    }
                ]
            )
        )
        assert "## Errors" in text
        assert "ValueError" in text
        assert "..." in text  # long message truncated

    def test_hot_path_table_from_profile(self):
        profiling.enable()
        with profiling.profiled():
            sorted(range(1000))
        rows = profiling.hot_table(5)
        profiling.disable()
        profiling.reset()
        text = render_markdown(_record(profile=rows))
        assert "## Hot path (merged worker profiles)" in text
        assert "cumtime" in text

    def test_quantiles_fall_back_to_metrics_snapshot(self):
        snapshot = {
            "exec_point_s": {
                "type": "histogram",
                "help": "t",
                "buckets": [0.1, 1.0],
                "values": {
                    "outcome=ok": {"buckets": [2, 1, 0], "sum": 0.7, "count": 3}
                },
            }
        }
        text = render_markdown(
            _record(exec_point_quantiles=None, metrics=snapshot, timeline=[])
        )
        assert "## Per-point execution time" in text

    def test_counter_summary_rows_from_snapshot(self):
        snapshot = {
            "exec_retries": {
                "type": "counter",
                "help": "r",
                "values": {"": 4.0},
            }
        }
        text = render_markdown(_record(metrics=snapshot))
        assert "| retries | 4 |" in text


class TestHtml:
    def test_self_contained_document(self):
        text = render_html(_record())
        assert text.startswith("<!DOCTYPE html>")
        assert "<style>" in text and "</html>" in text
        assert "Flight report · demo" in text

    def test_escapes_untrusted_strings(self):
        text = render_html(_record(name="<script>alert(1)</script>"))
        assert "<script>alert" not in text
        assert "&lt;script&gt;" in text


class TestAggregate:
    def test_multi_run_summary(self, tmp_path):
        ledger = RunLedger(tmp_path / "l.jsonl")
        ledger.append(_record())
        ledger.append(_record(recorded_at=1700000100.0))
        text = render_aggregate(ledger, ledger.query())
        assert "runs: 2" in text
        assert "## Per-point exec_s across runs" in text
        assert "| samples | 4 |" in text  # two computed points per record


class TestCli:
    def test_renders_newest_matching_record(self, tmp_path, capsys):
        ledger = RunLedger(tmp_path / "l.jsonl")
        ledger.append(_record(name="first"))
        ledger.append(_record(name="second"))
        assert main([str(ledger.path)]) == 0
        out = capsys.readouterr().out
        assert "# Flight report · second" in out

    def test_filters_and_out_file(self, tmp_path):
        ledger = RunLedger(tmp_path / "l.jsonl")
        ledger.append(_record(name="keep"))
        ledger.append(_record(name="skip"))
        out = tmp_path / "r" / "report.html"
        code = main(
            [str(ledger.path), "--name", "keep", "--format", "html", "--out", str(out)]
        )
        assert code == 0
        assert out.read_text().startswith("<!DOCTYPE html>")

    def test_aggregate_flag(self, tmp_path, capsys):
        ledger = RunLedger(tmp_path / "l.jsonl")
        ledger.append(_record())
        assert main([str(ledger.path), "--aggregate"]) == 0
        assert "runs: 1" in capsys.readouterr().out

    def test_missing_ledger_errors(self, tmp_path, capsys):
        assert main([str(tmp_path / "none.jsonl")]) == 2
        assert "no ledger" in capsys.readouterr().err

    def test_no_matching_records_errors(self, tmp_path, capsys):
        ledger = RunLedger(tmp_path / "l.jsonl")
        ledger.append(_record())
        assert main([str(ledger.path), "--fingerprint", "zzz"]) == 2
        assert "no run records" in capsys.readouterr().err

    def test_index_out_of_range_errors(self, tmp_path, capsys):
        ledger = RunLedger(tmp_path / "l.jsonl")
        ledger.append(_record())
        assert main([str(ledger.path), "--index", "5"]) == 2
        assert "out of range" in capsys.readouterr().err

    def test_end_to_end_from_executor_run(self, tmp_path, capsys):
        cache = ResultCache(tmp_path / "cache")
        campaign = Campaign(
            task=seeded_task, sweep=zip_sweep(x=[0, 1, 2]), seed=5, name="e2e"
        )
        with CampaignExecutor(1, cache=cache) as executor:
            executor.run(campaign)
        assert main([str(cache.ledger_path)]) == 0
        out = capsys.readouterr().out
        assert "# Flight report · e2e" in out
        assert "| points | 3 |" in out
