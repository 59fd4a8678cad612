"""Campaign orchestration: declarative sweeps, parallel execution, caching.

The workload packages turn one circuit into one number; paper-scale
studies need *thousands* of parameterised runs — noise-threshold
bisections, restart batteries, training grids.  This subpackage is the
layer between the two:

* :mod:`repro.exec.sweep` — declarative parameter sweeps (``grid_sweep``,
  ``zip_sweep``, ``random_sweep``) and the :class:`Campaign` spec, with
  per-point seeds derived by ``SeedSequence`` spawning so every point is
  reproducible independent of execution order;
* :mod:`repro.exec.executor` — :class:`CampaignExecutor`: a persistent
  worker-pool service; one warm pool of *supervised* worker processes
  amortised across many submissions, with streaming consumption
  (:meth:`~CampaignHandle.as_completed` / ``stream_results``) so callers
  act on points as they finish; dead workers are respawned and their
  in-flight points re-dispatched, and :func:`run_campaign` is the
  one-shot barrier wrapper (resumable checkpoints, deterministic result
  ordering); one per-point attempt state machine decides retries,
  backoff, crash re-dispatch and error-budget escalation for the serial
  in-process loop and the pool alike, and its attempt numbers count
  executions;
* :mod:`repro.exec.policy` — :class:`FailurePolicy`: per-submission
  handling of task exceptions, worker crashes, and per-point timeouts
  (``fail_fast`` / ``continue`` / ``retry`` with deterministic backoff);
* :mod:`repro.exec.faults` — :class:`FaultPlan`: seeded, reproducible
  fault injection (exceptions, delays, worker kills, cache corruption)
  powering the chaos test suite;
* :mod:`repro.exec.cache` — a content-addressed on-disk result cache
  keyed by a stable hash of (task, parameters, seed), so reruns and
  overlapping campaigns skip completed points; LRU size caps
  (``max_bytes`` / ``max_entries``) keep long-lived caches bounded;
* :mod:`repro.exec.costmodel` — the cost model behind
  ``get_backend("auto")``: picks statevector / density / trajectories /
  MPS / LPDO from register dims, noise content, requested observables,
  and the memory budget, using calibration constants from the committed
  ``BENCH_exec.json``;
* :mod:`repro.exec.autopilot` — the error-budget autopilot behind
  ``select_backend(..., target_error=...)``: an accuracy model beside
  the cost model, so a single ``target_error`` contract picks the engine
  *and* its chi/kappa caps / trajectory count at minimum predicted cost
  (:class:`BackendPlan`), with ledger-driven recalibration
  (:func:`recalibrate`) and mid-run cap escalation in the executor.
"""

from ..obs.ledger import RunLedger
from .autopilot import BackendPlan, plan_backend, recalibrate
from .cache import ResultCache, point_key, stable_hash
from .costmodel import AutoBackend, BackendChoice, select_backend
from .executor import (
    CampaignExecutor,
    CampaignHandle,
    CampaignResult,
    PointResult,
    executor_scope,
    run_campaign,
)
from .faults import FaultPlan, InjectedFault, corrupt_cache, corrupt_cache_entry
from .policy import CONTINUE, FAIL_FAST, RETRY, FailurePolicy
from .sweep import (
    Campaign,
    CampaignPoint,
    Sweep,
    grid_sweep,
    random_sweep,
    retry_seed,
    zip_sweep,
)

__all__ = [
    "Campaign",
    "CampaignPoint",
    "Sweep",
    "grid_sweep",
    "zip_sweep",
    "random_sweep",
    "retry_seed",
    "run_campaign",
    "CampaignResult",
    "CampaignExecutor",
    "CampaignHandle",
    "PointResult",
    "executor_scope",
    "FailurePolicy",
    "FAIL_FAST",
    "CONTINUE",
    "RETRY",
    "FaultPlan",
    "InjectedFault",
    "corrupt_cache",
    "corrupt_cache_entry",
    "ResultCache",
    "point_key",
    "stable_hash",
    "AutoBackend",
    "BackendChoice",
    "BackendPlan",
    "RunLedger",
    "plan_backend",
    "recalibrate",
    "select_backend",
]
