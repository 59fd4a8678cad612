"""Observability for campaign runs: metrics, spans, endpoints, history.

Stdlib-only modules, deliberately import-light so every layer of the
codebase (executor, cache, all five backends) can instrument itself
without circular imports:

- :mod:`repro.obs.metrics` — labelled counters/gauges/histograms with
  plain-dict snapshots, cross-process merge, quantile estimation, and
  Prometheus text exposition.
- :mod:`repro.obs.tracing` — ``span()`` context manager producing
  JSON-lines trace events with monotonic timestamps and parent ids,
  exportable to Chrome ``trace_event`` format for Perfetto.
- :mod:`repro.obs.profiling` — opt-in per-point :mod:`cProfile` capture
  merged across worker processes via :mod:`pstats`.
- :mod:`repro.obs.serve` — a read-only HTTP thread exposing
  ``/metrics``, ``/status``, and ``/spans`` for a live campaign.  It
  loads :mod:`http.server` (and with it ``ssl`` and ``email``), so
  ``serve`` and ``ObsServer`` are imported on first attribute access.
- :mod:`repro.obs.ledger` — the persistent JSON-lines run ledger that
  survives the process (one record per executor run, co-located with
  the result cache).
- :mod:`repro.obs.report` — ``python -m repro.obs.report`` flight
  reports rendered from ledger records.

Collection is off by default and near-free when off (one
module-attribute check per instrumented call).  ``obs.enable()`` flips
metrics and tracing on; ``REPRO_OBS=1`` in the environment enables them
at import time so scripts can be traced without code changes.
Profiling is heavier and stays separate: ``obs.profiling.enable()`` or
``REPRO_OBS_PROFILE=1``.  Telemetry never perturbs simulation results —
enabling observability changes no random stream and no numerical path,
only what gets recorded about them.
"""

from __future__ import annotations

import importlib
import os
from typing import Any

from . import ledger, metrics, profiling, tracing
from .ledger import RunLedger
from .metrics import (
    DEFAULT_BUCKETS,
    REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    exposition,
    inc,
    observe,
    quantile_from_sample,
    set_gauge,
    snapshot,
)
from .tracing import (
    read_jsonl,
    span,
    to_chrome,
    write_chrome,
    write_jsonl,
)

__all__ = [
    "metrics",
    "tracing",
    "profiling",
    "serve",
    "ledger",
    "enable",
    "disable",
    "is_enabled",
    "reset",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "DEFAULT_BUCKETS",
    "inc",
    "set_gauge",
    "observe",
    "snapshot",
    "exposition",
    "quantile_from_sample",
    "span",
    "write_jsonl",
    "read_jsonl",
    "to_chrome",
    "write_chrome",
    "ObsServer",
    "RunLedger",
]


def __getattr__(name: str) -> Any:
    """Import :mod:`repro.obs.serve` when ``serve`` or ``ObsServer`` is first used."""
    if name in ("serve", "ObsServer"):
        module = importlib.import_module(".serve", __name__)
        return module if name == "serve" else module.ObsServer
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def enable() -> None:
    """Enable metrics and tracing together (idempotent).

    Profiling is *not* implied — it has real overhead; opt in with
    :func:`repro.obs.profiling.enable`.
    """
    metrics.enable()
    tracing.enable()


def disable() -> None:
    """Disable metrics, tracing, and profiling; collected data is kept."""
    metrics.disable()
    tracing.disable()
    profiling.disable()


def is_enabled() -> bool:
    """True if any collection (metrics, tracing, profiling) is on."""
    return metrics.enabled or tracing.enabled or profiling.enabled


def reset() -> None:
    """Drop all collected metrics, spans, and profiles (keeps enablement)."""
    REGISTRY.reset()
    tracing.reset()
    profiling.reset()


if os.environ.get("REPRO_OBS", "").strip() not in ("", "0"):
    enable()
if os.environ.get("REPRO_OBS_PROFILE", "").strip() not in ("", "0"):
    profiling.enable()
