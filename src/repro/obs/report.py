"""Campaign flight reports: one run (or a ledger query) rendered to text.

``python -m repro.obs.report <ledger.jsonl>`` picks a run record from
the persistent ledger (newest by default; filter with
``--fingerprint/--task/--name``) and renders a self-contained flight
report — campaign header, cache/retry/crash summary, `exec_point_s`
quantiles, a per-point timeline Gantt built from the recorded
spans/timeline, terminal error records, and (when profiling was on) the
merged hot-path table.  ``--format html`` emits a standalone HTML file
with inline styling; the default is markdown.  ``--aggregate`` renders
a multi-run summary over every matching record instead — the
ledger-query view of per-point wall-time distributions.

Rendering is pure: the module reads a ledger, never the live registry,
so a report can be generated long after (and far away from) the run.
"""

from __future__ import annotations

import argparse
import html
import sys
import time
from pathlib import Path
from typing import Any, Sequence

from .ledger import RunLedger, RunRecord
from .metrics import DEFAULT_BUCKETS, quantile_from_sample

__all__ = ["main", "render_html", "render_markdown", "render_aggregate"]

_BAR_WIDTH = 40

# One report section: a title plus either free lines or a header+rows table.
_Section = tuple[str, list[str], list[list[str]] | None]


def _iso(stamp: Any) -> str:
    if isinstance(stamp, (int, float)):
        return time.strftime("%Y-%m-%d %H:%M:%S UTC", time.gmtime(stamp))
    return str(stamp)


def _fmt_s(value: Any) -> str:
    if isinstance(value, (int, float)):
        return f"{value:.4f}s" if value < 10 else f"{value:.1f}s"
    return "-"


def _counter_total(record: RunRecord, family: str) -> int | None:
    """Sum a counter family across label sets in the record's snapshot."""
    snapshot = record.get("metrics")
    if not isinstance(snapshot, dict):
        return None
    entry = snapshot.get(family)
    if not isinstance(entry, dict):
        return None
    samples = entry.get("values")
    if not isinstance(samples, dict):
        return None
    total = 0.0
    for value in samples.values():
        if isinstance(value, (int, float)):
            total += value
    return int(total)


def _exec_quantiles(record: RunRecord) -> dict[str, float] | None:
    """p50/p95/p99 of per-point execution time, preferring the recorded set.

    Falls back to recomputing from the record's histogram snapshot (the
    fixed-bucket estimate), then to the raw timeline samples.
    """
    recorded = record.get("exec_point_quantiles")
    if isinstance(recorded, dict) and recorded:
        return {k: float(v) for k, v in recorded.items() if isinstance(v, (int, float))}
    snapshot = record.get("metrics")
    if isinstance(snapshot, dict):
        entry = snapshot.get("exec_point_s")
        if isinstance(entry, dict) and isinstance(entry.get("values"), dict):
            merged: dict[str, Any] | None = None
            for sample in entry["values"].values():
                if not isinstance(sample, dict):
                    continue
                if merged is None:
                    merged = {
                        "buckets": list(sample["buckets"]),
                        "sum": sample["sum"],
                        "count": sample["count"],
                    }
                else:
                    merged["buckets"] = [
                        a + b
                        for a, b in zip(merged["buckets"], sample["buckets"])
                    ]
                    merged["sum"] += sample["sum"]
                    merged["count"] += sample["count"]
            if merged is not None and merged["count"] > 0:
                buckets = tuple(entry.get("buckets") or DEFAULT_BUCKETS)
                out = {}
                for name, q in (("p50", 0.50), ("p95", 0.95), ("p99", 0.99)):
                    est = quantile_from_sample(merged, buckets, q)
                    if est is not None:
                        out[name] = est
                return out or None
    samples = sorted(
        float(entry["exec_s"])
        for entry in record.get("timeline") or []
        if isinstance(entry, dict) and isinstance(entry.get("exec_s"), (int, float))
    )
    if not samples:
        return None

    def pick(q: float) -> float:
        return samples[min(len(samples) - 1, max(0, round(q * (len(samples) - 1))))]

    return {"p50": pick(0.50), "p95": pick(0.95), "p99": pick(0.99)}


def _gantt_rows(record: RunRecord) -> list[list[str]]:
    """Per-point bars: queue wait (light) then execution (solid).

    Bars are scaled to the slowest point's wait+exec total.  Cache and
    checkpoint hits resolved at submit time and show as instant.
    """
    rows = []
    entries = [e for e in record.get("timeline") or [] if isinstance(e, dict)]
    scale = max(
        (
            float(e.get("queue_wait_s") or 0.0) + float(e.get("exec_s") or 0.0)
            for e in entries
        ),
        default=0.0,
    )
    for entry in sorted(entries, key=lambda e: e.get("index", 0)):
        source = str(entry.get("source", "?"))
        if source != "computed":
            rows.append([str(entry.get("index", "?")), source, "-", f"({source} hit)"])
            continue
        wait = float(entry.get("queue_wait_s") or 0.0)
        exec_s = float(entry.get("exec_s") or 0.0)
        if scale > 0:
            wait_cells = round(_BAR_WIDTH * wait / scale)
            exec_cells = max(1, round(_BAR_WIDTH * exec_s / scale))
        else:
            wait_cells, exec_cells = 0, 1
        bar = "░" * wait_cells + "█" * exec_cells
        status = "ok" if entry.get("ok", True) else "ERROR"
        rows.append([str(entry.get("index", "?")), status, _fmt_s(exec_s), bar])
    return rows


def _fmt_blas(blas: Any) -> str:
    """``lib:threads,...`` in the parent, then the pool's per-worker count."""
    if not isinstance(blas, dict):
        return str(blas or "?")
    parent = ",".join(f"{name}:{n}" for name, n in blas["parent"].items())
    if blas.get("per_worker") is None:
        return parent
    return f"{parent} per-worker={blas['per_worker']}"


def _sections(record: RunRecord) -> list[_Section]:
    """The report's content, renderer-agnostic."""
    env = record.get("env") or {}
    header = [
        f"campaign: {record.get('name', '?')}",
        f"task: {record.get('task', '?')}",
        f"fingerprint: {record.get('fingerprint', '?')}",
        f"recorded: {_iso(record.get('recorded_at'))}",
        f"workers: {record.get('workers', '?')}  "
        f"policy: {record.get('policy', '?')}  "
        f"duration: {_fmt_s(record.get('duration_s'))}",
        f"host: cpu_count={env.get('cpu_count', '?')} "
        f"platform={env.get('platform', '?')} python={env.get('python', '?')} "
        f"blas={_fmt_blas(env.get('blas'))}",
    ]
    sections: list[_Section] = [("Run", header, None)]

    summary_rows = [
        ["points", str(record.get("points", "?"))],
        ["cache hits", str(record.get("cache_hits", 0))],
        ["checkpoint hits", str(record.get("checkpoint_hits", 0))],
        ["computed", str(record.get("computed", 0))],
        ["errors", str(len(record.get("errors") or []))],
    ]
    for label, family in (
        ("retries", "exec_retries"),
        ("crashes", "exec_crashes"),
        ("timeouts", "exec_timeouts"),
        ("respawns", "exec_respawns"),
    ):
        total = _counter_total(record, family)
        if total is not None:
            summary_rows.append([label, str(total)])
    sections.append(("Summary", [], [["what", "count"], *summary_rows]))

    quantiles = _exec_quantiles(record)
    if quantiles:
        sections.append(
            (
                "Per-point execution time",
                [],
                [
                    ["quantile", "exec_point_s"],
                    *[[name, _fmt_s(quantiles[name])] for name in sorted(quantiles)],
                ],
            )
        )

    gantt = _gantt_rows(record)
    if gantt:
        sections.append(
            ("Timeline", [], [["point", "status", "exec", "wait░ / exec█"], *gantt])
        )

    errors = record.get("errors") or []
    if errors:
        rows = [["point", "kind", "type", "message"]]
        for err in errors:
            if not isinstance(err, dict):
                continue
            message = str(err.get("message", ""))
            rows.append(
                [
                    str(err.get("index", "?")),
                    str(err.get("kind", "?")),
                    str(err.get("error_type", "?")),
                    message if len(message) <= 80 else message[:77] + "...",
                ]
            )
        sections.append(("Errors", [], rows))

    profile = record.get("profile") or []
    if profile:
        rows = [["cumtime", "tottime", "ncalls", "function"]]
        for row in profile:
            if not isinstance(row, dict):
                continue
            location = f"{row.get('func', '?')} ({row.get('file', '?')}:{row.get('line', '?')})"
            rows.append(
                [
                    _fmt_s(row.get("cumtime_s")),
                    _fmt_s(row.get("tottime_s")),
                    str(row.get("ncalls", "?")),
                    location,
                ]
            )
        sections.append(("Hot path (merged worker profiles)", [], rows))
    return sections


# -- renderers ---------------------------------------------------------


def _markdown_table(rows: list[list[str]]) -> list[str]:
    header, *body = rows
    out = [
        "| " + " | ".join(header) + " |",
        "| " + " | ".join("---" for _ in header) + " |",
    ]
    out.extend("| " + " | ".join(row) + " |" for row in body)
    return out


def render_markdown(record: RunRecord) -> str:
    """The flight report for one run record, as markdown."""
    lines = [f"# Flight report · {record.get('name', '?')}", ""]
    for title, text, table in _sections(record):
        lines.append(f"## {title}")
        lines.append("")
        if text:
            lines.extend(f"- {line}" for line in text)
            lines.append("")
        if table:
            lines.extend(_markdown_table(table))
            lines.append("")
    return "\n".join(lines).rstrip() + "\n"


_HTML_STYLE = (
    "body{font-family:monospace;margin:2em;max-width:72em}"
    "table{border-collapse:collapse;margin:0.5em 0}"
    "td,th{border:1px solid #999;padding:0.2em 0.6em;text-align:left;"
    "white-space:pre}"
    "h1{border-bottom:2px solid #333}h2{margin-top:1.5em}"
)


def render_html(record: RunRecord) -> str:
    """The same report as one self-contained HTML page (inline CSS only)."""
    parts = [
        "<!DOCTYPE html>",
        "<html><head><meta charset='utf-8'>",
        f"<title>Flight report · {html.escape(str(record.get('name', '?')))}</title>",
        f"<style>{_HTML_STYLE}</style></head><body>",
        f"<h1>Flight report · {html.escape(str(record.get('name', '?')))}</h1>",
    ]
    for title, text, table in _sections(record):
        parts.append(f"<h2>{html.escape(title)}</h2>")
        if text:
            parts.append("<ul>")
            parts.extend(f"<li>{html.escape(line)}</li>" for line in text)
            parts.append("</ul>")
        if table:
            header, *body = table
            parts.append("<table><tr>")
            parts.extend(f"<th>{html.escape(cell)}</th>" for cell in header)
            parts.append("</tr>")
            for row in body:
                parts.append(
                    "<tr>"
                    + "".join(f"<td>{html.escape(cell)}</td>" for cell in row)
                    + "</tr>"
                )
            parts.append("</table>")
    parts.append("</body></html>")
    return "\n".join(parts) + "\n"


def render_aggregate(ledger: RunLedger, records: list[RunRecord]) -> str:
    """A markdown summary over a ledger query (the multi-run view)."""
    lines = [f"# Ledger summary · {ledger.path}", "", f"- runs: {len(records)}"]
    if records:
        lines.append(f"- first: {_iso(records[0].get('recorded_at'))}")
        lines.append(f"- last: {_iso(records[-1].get('recorded_at'))}")
        names = sorted({str(r.get("name", "?")) for r in records})
        lines.append(f"- campaigns: {', '.join(names)}")
        samples: list[float] = []
        for record in records:
            for entry in record.get("timeline") or []:
                if isinstance(entry, dict) and isinstance(
                    entry.get("exec_s"), (int, float)
                ):
                    samples.append(float(entry["exec_s"]))
        if samples:
            samples.sort()

            def pick(q: float) -> float:
                index = min(len(samples) - 1, max(0, round(q * (len(samples) - 1))))
                return samples[index]

            lines.extend(
                [
                    "",
                    "## Per-point exec_s across runs",
                    "",
                    *_markdown_table(
                        [
                            ["stat", "value"],
                            ["samples", str(len(samples))],
                            ["min", _fmt_s(samples[0])],
                            ["p50", _fmt_s(pick(0.50))],
                            ["p95", _fmt_s(pick(0.95))],
                            ["p99", _fmt_s(pick(0.99))],
                            ["max", _fmt_s(samples[-1])],
                            ["mean", _fmt_s(sum(samples) / len(samples))],
                        ]
                    ),
                ]
            )
    return "\n".join(lines).rstrip() + "\n"


# -- CLI ---------------------------------------------------------------


def main(argv: Sequence[str] | None = None) -> int:
    """``python -m repro.obs.report``: render a ledger run to a report."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.report",
        description="Render a campaign flight report from a run ledger.",
    )
    parser.add_argument("ledger", help="path to a ledger.jsonl file")
    parser.add_argument("--fingerprint", help="select runs by campaign fingerprint")
    parser.add_argument("--task", help="select runs by task reference")
    parser.add_argument("--name", help="select runs by campaign name")
    parser.add_argument(
        "--index",
        type=int,
        default=-1,
        help="which matching run to render (default -1, the newest)",
    )
    parser.add_argument(
        "--format", choices=("md", "html"), default="md", help="output format"
    )
    parser.add_argument(
        "--aggregate",
        action="store_true",
        help="summarise every matching run instead of rendering one",
    )
    parser.add_argument("--out", help="write here instead of stdout")
    options = parser.parse_args(argv)

    ledger = RunLedger(options.ledger)
    if not ledger.path.exists():
        print(f"error: no ledger at {ledger.path}", file=sys.stderr)
        return 2
    records = ledger.query(
        fingerprint=options.fingerprint, task=options.task, name=options.name
    )
    if not records:
        print("error: no run records match the filters", file=sys.stderr)
        return 2

    if options.aggregate:
        text = render_aggregate(ledger, records)
    else:
        try:
            record = records[options.index]
        except IndexError:
            print(
                f"error: --index {options.index} out of range "
                f"({len(records)} matching runs)",
                file=sys.stderr,
            )
            return 2
        text = render_html(record) if options.format == "html" else render_markdown(record)

    if options.out:
        Path(options.out).parent.mkdir(parents=True, exist_ok=True)
        Path(options.out).write_text(text, encoding="utf-8")
    else:
        print(text, end="")
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    sys.exit(main())
