"""Persistent campaign execution: supervised workers and streaming results.

:func:`run_campaign` answers "run this sweep"; :class:`CampaignExecutor`
answers "run *many* sweeps, fast, fault-tolerantly, and let me consume
points as they finish".  A :class:`CampaignExecutor` keeps one
warm pool of **supervised worker processes** alive across any number of
:meth:`~CampaignExecutor.submit` calls, so a battery of short campaigns
pays the fork + import cost once instead of per campaign.  Each
submission returns a :class:`CampaignHandle` exposing three consumption
styles:

* :meth:`~CampaignHandle.as_completed` — :class:`PointResult` events in
  completion order (cache and checkpoint hits first — they short-circuit
  before anything is dispatched to the pool);
* :meth:`~CampaignHandle.stream_results` — plain values in **point
  order**, each yielded as soon as it is available, so an adaptive
  caller (a bisection, an early-stopping battery) can act on point ``i``
  while points ``i+1..n`` are still running;
* :meth:`~CampaignHandle.result` — block until every point is done and
  return the familiar :class:`CampaignResult`.

All three observe the exact same values: per-point seeds are spawned
from campaign content (never a shared stream), so serial, parallel, and
streamed executions are bit-identical, and ``result()`` always reports
deterministic point order.

**Supervision.**  Unlike an opaque ``multiprocessing.Pool``, dispatch is
per point to workers the executor owns outright: each worker holds at
most one point, over its own duplex pipe, and the supervisor multiplexes
result pipes *and process sentinels* in one ``connection.wait`` call.  A
worker that dies mid-point (segfault, OOM kill, ``os._exit``) is
detected immediately, respawned, and its in-flight point re-dispatched —
because the point's seed is content-spawned, the recovered value is
bit-identical to an undisturbed run.  Per-point timeouts, retries with
deterministic backoff, and structured error records are governed by the
submission's :class:`~repro.exec.policy.FailurePolicy`; resilience
counters (``respawns`` / ``retries`` / ``timeouts``) surface in
:attr:`CampaignExecutor.stats`.  Deterministic fault injection for all
of this lives in :mod:`repro.exec.faults`.

One per-point attempt state machine (:class:`_Dispatch`) decides what
follows every execution — deliver, re-run, retry after backoff, record
an error, or raise — and both the in-process serial loop and the
supervised pool drive it, so serial and pooled campaigns take the same
decisions.  Attempt numbers count executions (escalated re-runs and
crash re-dispatches included).

A caller that stops reading early (an early-stopped stream, a decided
bisection bracket) calls :meth:`~CampaignHandle.cancel`: no further
point of the campaign is dispatched, the results of points already in
flight are discarded as they land (never cached or checkpointed), and
the pool forgets the campaign once none of it is in flight.  A handle
that is merely dropped keeps its remaining points queued and computing.
"""

from __future__ import annotations

import functools
import heapq
import inspect
import itertools
import json
import multiprocessing
import os
import platform
import signal
import sys
import threading
import time
import traceback
from collections import deque
from collections.abc import Callable, Generator, Iterable, Iterator
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from multiprocessing import connection
from pathlib import Path
from typing import IO, TYPE_CHECKING, Any, NamedTuple

import numpy as np

from ..core import blas as _blas
from ..core import budget as _budget
from ..core.exceptions import SimulationError
from ..obs import metrics as _metrics
from ..obs import profiling as _profiling
from ..obs import tracing as _tracing
from ..obs.ledger import RunLedger
from .cache import MISS, ResultCache, stable_hash
from .policy import FailurePolicy
from .sweep import Campaign, CampaignPoint, resolve_task

if TYPE_CHECKING:
    from ..obs.serve import ObsServer
    from .faults import FaultPlan

__all__ = [
    "CampaignExecutor",
    "CampaignHandle",
    "CampaignResult",
    "FailurePolicy",
    "PointResult",
    "executor_scope",
    "run_campaign",
    "to_jsonable",
]

#: Distinguishes "argument not given" from an explicit ``None``.
_UNSET: Any = object()

#: BLAS threads in each supervised pool worker, whatever the pool's
#: width or the host's core count.  Small density, ``expm`` and
#: reservoir kernels run several times faster at one thread even on an
#: idle core, and one count for every width keeps pools of different
#: widths bit-identical.
WORKER_BLAS_THREADS = 1

#: One completion event: the point, ("ok", value) or ("error", record),
#: and the point's timeline fields.
_Event = tuple[CampaignPoint, tuple[str, Any], dict[str, Any]]


def to_jsonable(value: Any) -> Any:
    """Normalise a task return value to plain JSON types.

    Numpy scalars become python numbers, numpy arrays and tuples become
    lists, dict keys are stringified where JSON requires it.  Raises for
    values JSON cannot represent (the task should return data, not
    objects).
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    if isinstance(value, np.ndarray):
        return [to_jsonable(item) for item in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [to_jsonable(item) for item in value]
    if isinstance(value, dict):
        out: dict[str, Any] = {}
        for key, item in value.items():
            if not isinstance(key, str):
                key = str(key)
            out[key] = to_jsonable(item)
        return out
    raise SimulationError(
        f"campaign task returned non-serialisable {type(value).__name__!r}; "
        f"return numbers, strings, lists, dicts, or numpy data"
    )


def _safe_jsonable(value: Any) -> Any:
    """Best-effort JSON view for error records (never raises)."""
    try:
        return to_jsonable(value)
    except SimulationError:
        if isinstance(value, dict):
            return {str(k): _safe_jsonable(v) for k, v in value.items()}
        return repr(value)


def _accepted_overrides(task: Any, overrides: dict[str, Any]) -> dict[str, Any]:
    """The subset of escalation overrides the task can actually accept.

    Escalated caps (``max_bond``/``max_kraus``) are merged into the call
    only when the task's signature takes them (directly or via
    ``**kwargs``) — a task exposing no caps cannot be escalated, and
    forcing unknown keywords on it would turn escalation into a crash.
    """
    try:
        parameters = inspect.signature(task).parameters
    except (TypeError, ValueError):  # pragma: no cover - builtins/C tasks
        return dict(overrides)
    if any(p.kind is inspect.Parameter.VAR_KEYWORD for p in parameters.values()):
        return dict(overrides)
    return {k: v for k, v in overrides.items() if k in parameters}


def _call_task(
    task_ref: str, point: CampaignPoint, overrides: dict[str, Any] | None = None
) -> Any:
    """Execute one point's task with its seed injected.

    ``overrides`` are escalated-cap keyword overrides from the error
    budget supervisor.  They are merged over ``point.params`` at call
    time only — the point itself (params, seed, cache key) is never
    mutated, so escalation cannot perturb content-addressed identity.
    """
    task = resolve_task(task_ref)
    params = dict(point.params)
    if point.seed is not None and "seed" not in params:
        params["seed"] = point.seed
    if overrides:
        params.update(_accepted_overrides(task, overrides))
    return to_jsonable(task(**params))


def _attempt(
    task_ref: str,
    point: CampaignPoint,
    attempt: int,
    faults: FaultPlan | None,
    overrides: dict[str, Any] | None,
    *,
    in_worker: bool,
) -> tuple[str, Any, BaseException | None, float, dict[str, Any] | None]:
    """One execution of one point, in a worker or in-process alike.

    Injects the scheduled fault, then calls the task under a fresh
    :class:`~repro.core.budget.ErrorAccount` and a ``point`` span (the
    raw profile, when profiling is on, lands in the process-local buffer
    exactly like metric deltas).  Returns ``(kind, payload, exc,
    exec_s, account)``: ``("ok", value, None, ...)`` or ``("exception",
    error info, exc, ...)``, the execution's wall time, and the
    account's summary.  In-process, ``KeyboardInterrupt`` and
    ``SystemExit`` propagate rather than fail the point.
    """
    started = time.monotonic()
    acct = _budget.ErrorAccount()
    # The enabled checks keep the observability-off path free of the
    # span and profiler generators.
    span = (
        _tracing.span("point", index=point.index, attempt=attempt)
        if _tracing.enabled
        else nullcontext()
    )
    profiled = _profiling.profiled() if _profiling.enabled else nullcontext()
    try:
        with _budget.scoped(acct), span:
            if faults is not None:
                faults.apply(point, attempt, in_worker=in_worker)
            with profiled:
                value = _call_task(task_ref, point, overrides)
    except BaseException as exc:
        if not in_worker and isinstance(exc, (KeyboardInterrupt, SystemExit)):
            raise
        info = _describe_error(exc)
        return "exception", info, exc, time.monotonic() - started, acct.summary()
    return "ok", value, None, time.monotonic() - started, acct.summary()


def _escalated_caps(
    account: dict[str, Any] | None,
    previous: dict[str, Any] | None,
    target_error: float,
) -> dict[str, Any] | None:
    """Cap overrides for re-running a point that blew its error budget.

    ``account`` is the point's :class:`repro.core.budget.ErrorAccount`
    summary from its last execution.  When the tracked truncation +
    purification error exceeds ``target_error``, each *offending* error
    source gets its cap doubled from the largest dimension actually
    observed (so escalation tracks the state the circuit really built,
    not whatever cap the plan guessed).  Returns ``None`` when the point
    met its budget, no truncating backend ran, or doubling changes
    nothing — i.e. whenever a re-run would be pointless.
    """
    if not account:
        return None
    trunc = float(account.get("truncation_error") or 0.0)
    purif = float(account.get("purification_error") or 0.0)
    if trunc + purif <= target_error:
        return None
    bond_events = int(account.get("bond_truncations") or 0)
    kraus_events = int(account.get("kraus_truncations") or 0)
    # When both sources truncated, each owns half the budget; a single
    # offender owns all of it (mirrors the autopilot's planning split).
    share = target_error / 2.0 if (bond_events and kraus_events) else target_error
    new = dict(previous or {})
    if bond_events and trunc > share:
        prev = int(new.get("max_bond") or 0)
        new["max_bond"] = max(2 * int(account.get("max_chi") or 1), 2 * prev)
    if kraus_events and purif > share:
        prev = int(new.get("max_kraus") or 0)
        new["max_kraus"] = max(2 * int(account.get("max_kappa") or 1), 2 * prev)
    if new == (previous or {}):
        return None
    return new


def _describe_error(exc: BaseException) -> dict[str, Any]:
    """JSON-safe summary of an exception (for error records)."""
    return {
        "error_type": type(exc).__name__,
        "message": str(exc),
        "traceback": "".join(
            traceback.format_exception(type(exc), exc, exc.__traceback__, limit=20)
        ),
    }


def _sync_worker_obs(obs_conf: tuple[bool, bool, bool] | None) -> None:
    """Mirror the supervisor's obs enablement inside a worker process.

    ``obs_conf`` is ``None`` (everything off — the common case, one
    comparison per point) or ``(metrics_on, tracing_on, profiling_on)``;
    flipping the module flags here is what makes the instrumented
    backends record in the worker without any per-call coordination.
    """
    if obs_conf is not None:
        metrics_on, tracing_on, profiling_on = obs_conf
    else:
        metrics_on = tracing_on = profiling_on = False
    if _metrics.enabled != metrics_on:
        _metrics.enable() if metrics_on else _metrics.disable()
    if _tracing.enabled != tracing_on:
        _tracing.enable() if tracing_on else _tracing.disable()
    if _profiling.enabled != profiling_on:
        _profiling.enable() if profiling_on else _profiling.disable()


def _worker_obs_payload(
    exec_s: float, account: dict[str, Any] | None = None
) -> dict[str, Any]:
    """The per-point telemetry piggybacked onto the result reply.

    ``pid``/``exec_s`` are always present (they cost two fields on a
    message the pipe was carrying anyway — this is how timelines work
    with observability off); the point's error account rides along when
    a truncating backend recorded anything; metric deltas and spans only
    when collection is on, drained so the next point starts from zero.
    """
    payload: dict[str, Any] = {"pid": os.getpid(), "exec_s": exec_s}
    if account:
        payload["error_account"] = account
    if _metrics.enabled:
        payload["metrics"] = _metrics.REGISTRY.drain()
    if _tracing.enabled:
        payload["spans"] = _tracing.drain()
    if _profiling.enabled:
        payload["profile"] = _profiling.drain()
    return payload


def _worker_main(conn: connection.Connection) -> None:
    """Supervised worker loop (module-level: picklable under spawn).

    Receives ``(uid, task_ref, point, attempt, faults, obs_conf,
    overrides)`` messages over its private duplex pipe, executes, and replies
    ``("ok", uid, value, None, obs)`` or ``("exception", uid, info,
    exception, obs)`` where ``obs`` piggybacks the point's telemetry (see
    :func:`_worker_obs_payload`) — the hot path gains no extra syscalls.
    ``None`` is the stop sentinel.  Every task exception is *reported*,
    never fatal to the worker — only a hard death (kill/exit/segfault)
    ends the loop, and the supervisor notices that via the process
    sentinel.

    A forked worker inherits :data:`WORKER_BLAS_THREADS` from the
    parent, which spawns it inside :func:`~repro.core.blas.blas_threads`;
    under spawn or forkserver the worker sets the count itself.  The
    setter is only called where the count differs: it starts OpenBLAS's
    thread server, whose threads spin in a worker that runs no BLAS.
    """
    _blas.set_threads(WORKER_BLAS_THREADS)
    # Under the fork start method the child inherits the parent's obs
    # state — enabled flags, accumulated counters, buffered spans.  A
    # drained "delta" would then re-ship the parent's samples and the
    # supervisor would double-count them on merge.  Start clean.
    _metrics.disable()
    _tracing.disable()
    _profiling.disable()
    _metrics.REGISTRY.reset()
    _tracing.reset()
    _profiling.reset()
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        if message is None:
            break
        uid, task_ref, point, attempt, faults, obs_conf, overrides = message
        _sync_worker_obs(obs_conf)
        kind, payload, exc, exec_s, account = _attempt(
            task_ref, point, attempt, faults, overrides, in_worker=True
        )
        obs = _worker_obs_payload(exec_s, account)
        try:
            conn.send((kind, uid, payload, exc, obs))
        except Exception:
            # An exception object that will not pickle still reports by
            # its description; a reply that cannot be sent at all ends
            # the worker, which the supervisor sees as a crash.
            try:
                conn.send((kind, uid, payload, None, obs))
            except Exception:
                break
    try:
        conn.close()
    except OSError:
        pass


@dataclass(frozen=True)
class CampaignResult:
    """Everything a campaign run produced.

    Attributes:
        name: the campaign's label.
        values: one task value per point, ordered by point index
            (``None`` for points that failed under a non-raising policy —
            see ``errors``).
        points: the resolved points (same order).
        cache_hits: points served from the result cache.
        checkpoint_hits: points replayed from the checkpoint file.
        computed: points actually executed this run (failed ones
            included).
        workers: pool width used (1 = serial).
        duration_s: wall-clock time of the run.
        errors: structured error records for points that terminally
            failed under a ``"continue"``/``"retry"`` policy, in point
            order; each carries the point's index/key/params/seed, the
            failure ``kind`` (``"exception"`` / ``"crash"`` /
            ``"timeout"``), the attempt and crash counts, the cumulative
            retry-backoff slept for the point (``backoff_s``), and the
            error type/message (+ traceback for exceptions).
        timeline: one record per resolved point, in point order — always
            collected (the fields ride the result pipe the point already
            used, so they cost nothing extra).  Hits carry ``{"index",
            "source"}``; computed points add ``queue_wait_s`` (submit →
            first dispatch), ``exec_s`` (in-worker execution, summed
            over attempts), ``backoff_s``, ``attempts``, ``crashes``,
            ``pids`` (worker processes that ran the point),
            ``cache_put_s``, and ``ok``.
    """

    name: str
    values: list[Any]
    points: list[CampaignPoint]
    cache_hits: int
    checkpoint_hits: int
    computed: int
    workers: int
    duration_s: float
    errors: list[dict[str, Any]] = field(default_factory=list)
    timeline: list[dict[str, Any]] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.values)

    @property
    def ok(self) -> bool:
        """Whether every point produced a value (no error records)."""
        return not self.errors

    @property
    def hit_fraction(self) -> float:
        """Fraction of points that skipped execution (cache + checkpoint)."""
        if not self.values:
            return 0.0
        return (self.cache_hits + self.checkpoint_hits) / len(self.values)

    def as_table(self) -> list[dict[str, Any]]:
        """Per-point records ``{**params, "seed", "value", "ok"}``."""
        failed = {record["index"] for record in self.errors}
        return [
            {
                **point.params,
                "seed": point.seed,
                "value": value,
                "ok": point.index not in failed,
            }
            for point, value in zip(self.points, self.values)
        ]


class PointResult(NamedTuple):
    """One completed campaign point, as seen by a streaming consumer.

    Attributes:
        point: the resolved :class:`CampaignPoint`.
        value: the task's (JSON-normalised) return value (``None`` when
            ``ok`` is false).
        source: ``"cache"``, ``"checkpoint"``, or ``"computed"``.
        ok: whether the point produced a value (``False`` = a terminal
            failure recorded under a non-raising policy).
        error: the structured error record when ``ok`` is false.
    """

    point: CampaignPoint
    value: Any
    source: str
    ok: bool = True
    error: dict[str, Any] | None = None


# ----------------------------------------------------------------------
# checkpoints
# ----------------------------------------------------------------------
@contextmanager
def _shield_interrupts() -> Iterator[None]:
    """Defer ``SIGINT`` for the duration of the block (main thread only).

    Used around checkpoint appends so a ``KeyboardInterrupt`` can never
    tear the final record: the interrupt is re-delivered (or re-raised)
    immediately *after* the write completes.  Off the main thread —
    where Python never delivers SIGINT anyway — this is a no-op.
    """
    try:
        in_main = threading.current_thread() is threading.main_thread()
        previous = signal.getsignal(signal.SIGINT) if in_main else None
    except ValueError:  # pragma: no cover - exotic embedding
        in_main = False
    if not in_main or previous is None:
        yield
        return
    received: list[tuple[int, Any]] = []

    def _defer(signum: int, frame: Any) -> None:
        received.append((signum, frame))

    try:
        signal.signal(signal.SIGINT, _defer)
    except ValueError:  # pragma: no cover - not actually the main thread
        yield
        return
    try:
        yield
    finally:
        signal.signal(signal.SIGINT, previous)
        if received:
            if callable(previous):
                previous(*received[0])
            else:  # pragma: no cover - SIG_IGN/SIG_DFL stand-ins
                raise KeyboardInterrupt


def _load_checkpoint(path: Path) -> dict[str, object]:
    """Replay a JSON-lines checkpoint, skipping corrupt/partial lines.

    A crash mid-append leaves at most one truncated trailing line; a
    corrupted file may contain arbitrary garbage.  Either way every
    well-formed line is recovered and the rest are recomputed — the
    checkpoint can only ever *save* work, never wedge a campaign.

    Records are status-tagged: only ``"ok"`` records (and legacy
    untagged ones) replay.  ``"error"`` records are deliberately *not*
    treated as done — a resume retries transient failures while
    replaying successes verbatim.
    """
    done: dict[str, object] = {}
    try:
        text = path.read_text()
    except (FileNotFoundError, OSError):
        return done
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
            if record.get("status", "ok") != "ok":
                continue
            done[record["key"]] = record["value"]
        except (ValueError, KeyError, TypeError, AttributeError):
            continue
    return done


def _append_checkpoint(
    handle: IO[str],
    point: CampaignPoint,
    value: Any = None,
    *,
    status: str = "ok",
    error: Any = None,
) -> None:
    """Append one status-tagged record, shielded against interrupts."""
    record: dict[str, Any] = {"key": point.key, "index": point.index, "status": status}
    if status == "ok":
        record["value"] = value
    else:
        record["error"] = error
    line = json.dumps(record) + "\n"
    with _shield_interrupts():
        handle.write(line)
        handle.flush()


# ----------------------------------------------------------------------
# supervised worker pool
# ----------------------------------------------------------------------
def _spawn_worker_process(ctx: Any) -> tuple[Any, Any]:
    """Fork one supervised worker; returns ``(process, parent_conn)``."""
    parent, child = ctx.Pipe(duplex=True)
    process = ctx.Process(target=_worker_main, args=(child,), daemon=True)
    process.start()
    child.close()
    return process, parent


class _Worker:
    """One supervised worker process and its private duplex pipe."""

    __slots__ = ("process", "conn", "item", "deadline")

    def __init__(self, process: Any, conn: Any) -> None:
        self.process, self.conn = process, conn
        #: ``(run, dispatch, uid)`` while busy, else ``None``.
        self.item: tuple[_Run, _Dispatch, int] | None = None
        #: ``time.monotonic()`` deadline for the in-flight point.
        self.deadline: float | None = None

    def stop(self) -> None:
        """Close the pipe, then terminate (or kill) a live process."""
        try:
            self.conn.close()
        except OSError:
            pass
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(1.0)
            if self.process.is_alive():  # pragma: no cover - stubborn
                self.process.kill()
                self.process.join(1.0)


class _Dispatch:
    """One point's attempt state machine, driven by serial and pool alike.

    :meth:`start` opens an execution and returns its attempt number —
    the execution count, escalated re-runs and crash re-dispatches
    included, which is what :meth:`FaultPlan.fault_for` and the retry
    backoff are keyed on.  :meth:`record` folds the execution's
    telemetry in, and :meth:`settle` maps its outcome to the next
    action under the run's policy and error budget.  The ``retries`` /
    ``escalations`` counters and the ``exec_attempts`` /
    ``exec_retries`` / ``exec_escalations`` / ``exec_crashes`` metrics
    are bumped only here, so a serial and a pooled run of one campaign
    take — and count — the same decisions.
    """

    __slots__ = (
        "run",
        "point",
        "tries",
        "failures",
        "crashes",
        "created",
        "first_sent",
        "backoff_s",
        "exec_s",
        "pids",
        "escalations",
        "overrides",
        "account",
    )

    def __init__(self, run: _Run, point: CampaignPoint) -> None:
        self.run = run
        self.point = point
        self.tries = 0  # executions started (failures + crashes + successes)
        self.failures = 0  # completed attempts that raised or timed out
        self.crashes = 0  # worker deaths while this point was in flight
        self.created = time.monotonic()  # when the point entered the queue
        self.first_sent: float | None = None  # first dispatch to a worker
        self.backoff_s = 0.0  # cumulative retry-backoff slept
        self.exec_s = 0.0  # execution time, summed over attempts
        self.pids: list[int] = []  # processes that ran the point
        self.escalations = 0  # error-budget cap escalations (re-runs)
        self.overrides: dict[str, Any] | None = None  # escalated cap kwargs
        self.account: dict[str, Any] | None = None  # last error account

    def start(self) -> int:
        """Count one execution; returns its attempt number."""
        self.tries += 1
        self.run.attempts[self.point.index] = self.tries
        if _metrics.enabled:
            _metrics.inc("exec_attempts")
        return self.tries

    def record(
        self, pid: int | None, exec_s: float, account: dict[str, Any] | None
    ) -> None:
        """Fold one finished execution's telemetry into the point."""
        self.exec_s += exec_s
        # Latest execution wins: an escalated re-run's (smaller) account
        # replaces the blown one, so timelines report the delivered error.
        self.account = account
        if pid is not None and pid not in self.pids:
            self.pids.append(pid)

    def settle(
        self, kind: str, payload: Any = None, exc: BaseException | None = None
    ) -> tuple[str, Any]:
        """The action that follows one finished execution.

        ``kind`` is ``"ok"`` (``payload`` is the value), ``"exception"``
        (``payload`` is the error info, ``exc`` the exception when it
        survived the pipe), ``"timeout"``, or ``"crash"`` (``payload``
        is the dead worker's exit code).  Returns one of:

        * ``("ok", value)`` — deliver the value;
        * ``("rerun", None)`` — run again at the head of the queue: an
          error-budget escalation (only under a ``target_error``, at
          most ``policy.max_escalations`` times, after which the best
          delivered result stands), or a crash within
          ``policy.max_crashes``;
        * ``("retry", delay)`` — run again after the policy's
          deterministic backoff;
        * ``("error", record)`` — a terminal failure, recorded;
        * ``("raise", exception)`` — a terminal failure under
          ``fail_fast``.
        """
        run = self.run
        policy = run.policy
        if kind == "ok":
            caps = None
            if (
                run.target_error is not None
                and self.escalations < policy.max_escalations
            ):
                caps = _escalated_caps(self.account, self.overrides, run.target_error)
            if caps is None:
                return "ok", payload
            self.escalations += 1
            self.overrides = caps
            run.counters["escalations"] += 1
            if _metrics.enabled:
                _metrics.inc("exec_escalations")
            return "rerun", None
        if kind == "crash":
            self.crashes += 1
            if _metrics.enabled:
                _metrics.inc("exec_crashes")
            if self.crashes <= policy.max_crashes:
                return "rerun", None
            info = {
                "error_type": "WorkerCrashError",
                "message": (
                    f"worker process died (exit code {payload}) with point "
                    f"{self.point.index} in flight, {self.crashes} "
                    f"deaths total (max_crashes={policy.max_crashes})"
                ),
                "traceback": None,
            }
        else:
            self.failures += 1
            if policy.mode == "retry" and self.failures < policy.max_attempts:
                run.counters["retries"] += 1
                if _metrics.enabled:
                    _metrics.inc("exec_retries")
                delay = policy.backoff_delay(self.point, self.tries)
                self.backoff_s += delay
                return "retry", delay
            info = payload
            if kind == "timeout":
                info = {
                    "error_type": "PointTimeoutError",
                    "message": (
                        f"point {self.point.index} exceeded its "
                        f"{policy.timeout}s per-point timeout"
                    ),
                    "traceback": None,
                }
        if policy.mode == "fail_fast":
            if exc is None:
                exc = SimulationError(
                    f"campaign point {self.point.index} failed "
                    f"({kind}): {info['message']}"
                )
            return "raise", exc
        point = self.point
        record = {
            "index": point.index,
            "key": point.key,
            "params": _safe_jsonable(point.params),
            "seed": point.seed,
            "kind": kind,
            "attempts": self.failures,
            "crashes": self.crashes,
            "backoff_s": self.backoff_s,
            "error_type": info.get("error_type"),
            "message": info.get("message"),
            "traceback": info.get("traceback"),
        }
        return "error", record

    def meta(self) -> dict[str, Any]:
        """The point's timeline fields."""
        sent = self.first_sent if self.first_sent is not None else self.created
        out: dict[str, Any] = {
            "queue_wait_s": max(0.0, sent - self.created),
            "exec_s": self.exec_s,
            "backoff_s": self.backoff_s,
            "attempts": self.tries,
            "crashes": self.crashes,
            "pids": list(self.pids),
            "escalations": self.escalations,
        }
        if self.account:
            out.update(self.account)
        return out


class _Run:
    """The computed points of one submitted campaign, serial or pooled.

    ``pool`` is the :class:`_SupervisedPool` dispatching the points, or
    ``None`` when :func:`_serial_events` runs them in-process.
    """

    def __init__(
        self,
        task_ref: str,
        pending: Iterable[CampaignPoint],
        policy: FailurePolicy,
        faults: FaultPlan | None,
        target_error: float | None,
        counters: dict[str, int],
    ) -> None:
        self.pool: _SupervisedPool | None = None
        self.task_ref = task_ref
        self.policy = policy
        self.faults = faults
        self.target_error = target_error
        #: the executor's lifetime counters (retries, escalations, ...).
        self.counters = counters
        self.ready: deque[_Dispatch] = deque(_Dispatch(self, p) for p in pending)
        #: heap of (ready_at, seq, dispatch) backoff waits.
        self.waiting: list[tuple[float, int, _Dispatch]] = []
        self.inflight = 0
        #: (point, ("ok", value) | ("error", rec), meta) triples.
        self.events: deque[_Event] = deque()
        self.failure: BaseException | None = None
        self.abandoned = False
        #: point.index -> executions started (for retry-budget assertions).
        self.attempts: dict[int, int] = {}
        self._seq = itertools.count()

    @property
    def outstanding(self) -> bool:
        return bool(self.ready or self.waiting or self.inflight)

    def settle(
        self,
        dispatch: _Dispatch,
        kind: str,
        payload: Any = None,
        exc: BaseException | None = None,
    ) -> None:
        """Queue whatever :meth:`_Dispatch.settle` decides for an execution."""
        action, arg = dispatch.settle(kind, payload, exc)
        if action == "rerun":
            # Head of the queue: neither a worker's death nor an
            # escalation costs the point its scheduling priority.
            self.ready.appendleft(dispatch)
        elif action == "retry":
            heapq.heappush(
                self.waiting, (time.monotonic() + arg, next(self._seq), dispatch)
            )
        elif action == "raise":
            self.failure = arg
            self.abandon()
        else:
            self.events.append((dispatch.point, (action, arg), dispatch.meta()))

    def abandon(self) -> None:
        """Stop scheduling; in-flight completions will be discarded."""
        self.abandoned = True
        self.ready.clear()
        self.waiting.clear()
        if self.pool is not None:
            self.pool.release(self)


class _SupervisedPool:
    """A fixed-width pool of supervised workers with per-point dispatch.

    The supervisor owns every worker process and its pipe.  Dispatch is
    one point per worker; progress is pumped from the consuming thread:
    each :meth:`next_event` call dispatches ready work, then waits on
    all busy workers' result pipes *and* process sentinels at once, so a
    result, a worker death, a point deadline, or a matured retry backoff
    — whichever happens first — wakes the supervisor.  Dead workers are
    respawned and their in-flight point re-dispatched under the run's
    :class:`FailurePolicy`; overdue points get their worker killed and
    respawned.  Many runs may be live at once: events for runs other
    than the one being pumped accumulate on their own queues.

    Each worker runs :data:`WORKER_BLAS_THREADS` BLAS threads whatever
    the pool's width, so the workers share the cores instead of each
    starting one thread per core, and every width computes the same bits.
    """

    def __init__(self, ctx: Any, width: int, counters: dict[str, int]) -> None:
        self._ctx = ctx
        self._counters = counters
        self._workers = [_Worker(*spawned) for spawned in self._spawn(width)]
        self._runs: list[_Run] = []
        self._uids = itertools.count()

    # -- public surface ------------------------------------------------
    def submit(self, run: _Run) -> None:
        """Take over a run's points and start dispatching them."""
        run.pool = self
        self._runs.append(run)
        self._dispatch()

    def next_event(self, run: _Run) -> _Event | None:
        """The run's next completion event, pumping the pool as needed.

        Returns ``(point, outcome, meta)`` with ``outcome`` either
        ``("ok", value)`` or ``("error", record)`` and ``meta`` the
        point's timeline fields (:meth:`_Dispatch.meta`); ``None`` when
        the run is complete.  Raises the failing exception for a
        ``fail_fast`` run (after already-queued events have drained).
        """
        while True:
            if run.events:
                return run.events.popleft()
            if run.failure is not None:
                exc = run.failure
                self._forget(run)
                raise exc
            if not run.outstanding:
                self._forget(run)
                return None
            self._pump()

    def release(self, run: _Run) -> None:
        """Forget an abandoned run once none of its points is in flight."""
        if run.abandoned and not run.inflight:
            self._forget(run)

    @property
    def idle(self) -> bool:
        """Whether no worker holds an in-flight point."""
        return all(worker.item is None for worker in self._workers)

    def worker_processes(self) -> list[Any]:
        """The live worker process objects (for tests/diagnostics)."""
        return [worker.process for worker in self._workers]

    def shutdown(self, timeout: float = 5.0) -> bool:
        """Tear the pool down; graceful when nothing is in flight.

        Points of cancelled campaigns still in flight get up to
        ``timeout`` to land (their results are discarded).  Then, with
        every worker idle and no run holding undelivered work, each
        worker receives the stop sentinel and is joined within what is
        left of ``timeout`` — a clean exit that never aborts anything.
        Any other state (a stream dropped unread, a point outliving the
        timeout) falls back to terminate.  Returns whether the drain was
        graceful.
        """
        deadline = time.monotonic() + max(0.0, timeout)
        self._drain_cancelled(deadline)
        graceful = self.idle and not any(run.outstanding for run in self._runs)
        if graceful:
            for worker in self._workers:
                try:
                    worker.conn.send(None)
                except (OSError, ValueError):
                    pass
            for worker in self._workers:
                worker.process.join(max(0.0, deadline - time.monotonic()))
                if worker.process.is_alive():
                    graceful = False
        for worker in self._workers:
            worker.stop()
        self._workers = []
        self._runs = []
        return graceful

    # -- scheduling ----------------------------------------------------
    def _forget(self, run: _Run) -> None:
        if run in self._runs:
            self._runs.remove(run)

    def _release_waiting(self) -> None:
        now = time.monotonic()
        for run in self._runs:
            while run.waiting and run.waiting[0][0] <= now:
                _, _, dispatch = heapq.heappop(run.waiting)
                run.ready.append(dispatch)

    def _next_ready(self) -> tuple[_Run, _Dispatch] | None:
        for run in self._runs:
            if run.abandoned or run.failure is not None:
                continue
            if run.ready:
                return run, run.ready.popleft()
        return None

    def _dispatch(self) -> None:
        self._release_waiting()
        for worker in self._workers:
            if worker.item is not None:
                continue
            picked = self._next_ready()
            if picked is None:
                return
            run, dispatch = picked
            self._send(worker, run, dispatch)

    def _send(self, worker: _Worker, run: _Run, dispatch: _Dispatch) -> None:
        obs_conf = (
            (_metrics.enabled, _tracing.enabled, _profiling.enabled)
            if (_metrics.enabled or _tracing.enabled or _profiling.enabled)
            else None
        )
        uid = next(self._uids)
        attempt = dispatch.start()
        message = (
            uid,
            run.task_ref,
            dispatch.point,
            attempt,
            run.faults,
            obs_conf,
            dispatch.overrides,
        )
        while True:
            try:
                worker.conn.send(message)
                break
            except (OSError, ValueError):
                # The worker died while idle (or its pipe tore): the
                # message never reached it — respawn and resend.
                self._respawn(worker)
        if dispatch.first_sent is None:
            dispatch.first_sent = time.monotonic()
        pid = worker.process.pid
        if pid is not None and pid not in dispatch.pids:
            dispatch.pids.append(pid)
        if _metrics.enabled:
            _metrics.inc("exec_dispatches")
        worker.item = (run, dispatch, uid)
        worker.deadline = (
            time.monotonic() + run.policy.timeout
            if run.policy.timeout is not None
            else None
        )
        run.inflight += 1

    def _next_backoff_delta(self, now: float) -> float | None:
        ready_ats = [run.waiting[0][0] for run in self._runs if run.waiting]
        if not ready_ats:
            return None
        return max(0.0, min(ready_ats) - now)

    # -- the pump ------------------------------------------------------
    def _pump(self) -> None:
        """One supervision step: dispatch, wait, classify, recover."""
        self._dispatch()
        now = time.monotonic()
        busy = [worker for worker in self._workers if worker.item is not None]
        if not busy:
            # Nothing in flight: the only possible progress is a retry
            # backoff maturing.  Sleep until the earliest one.
            delay = self._next_backoff_delta(now)
            if delay is None:  # pragma: no cover - guarded by next_event
                raise SimulationError("supervised pool pumped with no work")
            time.sleep(min(delay + 1e-4, 0.05))
            self._dispatch()
            return
        horizons = [worker.deadline for worker in busy if worker.deadline is not None]
        backoff = self._next_backoff_delta(now)
        if backoff is not None:
            horizons.append(now + backoff)
        timeout = max(0.0, min(horizons) - now) if horizons else None
        self._collect(busy, timeout)
        now = time.monotonic()
        for worker in self._workers:
            if (
                worker.item is not None
                and worker.deadline is not None
                and now >= worker.deadline
            ):
                self._on_timeout(worker)
        self._dispatch()

    def _collect(self, busy: list[_Worker], timeout: float | None) -> None:
        """Wait up to ``timeout`` on busy workers; handle what arrives."""
        by_object: dict[Any, _Worker] = {}
        wait_on: list[Any] = []
        for worker in busy:
            by_object[worker.conn] = worker
            by_object[worker.process.sentinel] = worker
            wait_on.extend((worker.conn, worker.process.sentinel))
        ready = connection.wait(wait_on, timeout)
        # A worker whose pipe and sentinel both fired is handled once.
        for worker in dict.fromkeys(by_object[obj] for obj in ready):
            if worker.item is None:
                continue
            # A message beats a death verdict: a worker that finished its
            # point and *then* died (kill fault landing between points)
            # still delivers the finished result.
            if worker.conn.poll():
                try:
                    message = worker.conn.recv()
                except (EOFError, OSError):
                    self._on_crash(worker)
                    continue
                self._on_message(worker, message)
            elif not worker.process.is_alive():
                self._on_crash(worker)

    def _drain_cancelled(self, deadline: float) -> None:
        """Let in-flight points of cancelled runs land, until ``deadline``.

        Only while nothing else is in flight or queued, so no result
        that anyone waits for is ever consumed here.
        """
        while not any(run.outstanding for run in self._runs if not run.abandoned):
            busy = [worker for worker in self._workers if worker.item is not None]
            remaining = deadline - time.monotonic()
            if not busy or remaining <= 0:
                return
            self._collect(busy, remaining)

    # -- outcome handling ----------------------------------------------
    def _release(self, worker: _Worker) -> tuple[_Run, _Dispatch, int]:
        assert worker.item is not None  # only called for busy workers
        run, dispatch, uid = worker.item
        worker.item = None
        worker.deadline = None
        run.inflight -= 1
        self.release(run)
        return run, dispatch, uid

    def _on_message(self, worker: _Worker, message: tuple[Any, ...]) -> None:
        kind, uid, payload, exc, obs = message
        run, dispatch, expected = self._release(worker)
        if uid != expected or run.abandoned:
            return
        # Fold the worker's piggybacked telemetry into supervisor state.
        dispatch.record(
            obs.get("pid"), float(obs["exec_s"]), obs.get("error_account")
        )
        snap = obs.get("metrics")
        if snap:
            _metrics.REGISTRY.merge(snap)
        spans = obs.get("spans")
        if spans:
            _tracing.add_events(spans)
        profiles = obs.get("profile")
        if profiles:
            _profiling.add_raw(profiles)
        run.settle(dispatch, kind, payload, exc)

    def _on_crash(self, worker: _Worker) -> None:
        run, dispatch, _uid = self._release(worker)
        exitcode = worker.process.exitcode
        self._respawn(worker)
        if not run.abandoned:
            run.settle(dispatch, "crash", exitcode)

    def _on_timeout(self, worker: _Worker) -> None:
        run, dispatch, _uid = self._release(worker)
        self._counters["timeouts"] += 1
        if _metrics.enabled:
            _metrics.inc("exec_timeouts")
        self._respawn(worker)  # kills the overdue worker first
        if not run.abandoned:
            run.settle(dispatch, "timeout")

    def _spawn(self, count: int) -> list[tuple[Any, Any]]:
        """Start ``count`` workers at :data:`WORKER_BLAS_THREADS`.

        Forked workers inherit the parent's count, which is set once
        around the whole batch: each fork shuts the parent's BLAS
        threads down, and each restore starts them again.  Workers of
        other start methods set the count themselves.
        """
        forked = self._ctx.get_start_method() == "fork"
        with _blas.blas_threads(WORKER_BLAS_THREADS) if forked else nullcontext():
            return [_spawn_worker_process(self._ctx) for _ in range(count)]

    def _respawn(self, worker: _Worker) -> None:
        worker.stop()
        ((worker.process, worker.conn),) = self._spawn(1)
        worker.item = None
        worker.deadline = None
        self._counters["respawns"] += 1
        if _metrics.enabled:
            _metrics.inc("exec_respawns")


def _blas_env(pool: _SupervisedPool | None) -> dict[str, Any] | str:
    """The BLAS threading a run's points ran under, for its run record.

    ``{"parent": {library: threads}, "per_worker": WORKER_BLAS_THREADS}``
    for a pool run; ``per_worker`` is ``None`` for an in-process run,
    whose points ran at the parent's counts.  ``"uncontrolled"`` when no
    library was found.
    """
    parent = _blas.threads()
    if isinstance(parent, str):
        return parent
    return {
        "parent": parent,
        "per_worker": WORKER_BLAS_THREADS if pool is not None else None,
    }


def _serial_events(run: _Run) -> Iterator[_Event]:
    """Run a campaign's points in-process through the pool's state machine.

    Yields ``(point, outcome, meta)`` like the supervised pool.  Points
    run one at a time, each to completion: a retry sleeps out its
    backoff, an escalation re-runs at once.  Kill faults are skipped
    (never kill the host process) and timeouts are not enforced (nothing
    can pre-empt the running task), so ``crashes`` stays 0, ``pids`` is
    this process and ``queue_wait_s`` is 0.  Telemetry needs no
    piggybacking: the task records straight into the live registry and
    trace buffer.
    """
    pid = os.getpid()
    while run.ready or run.waiting:
        if run.waiting:
            ready_at, _, dispatch = heapq.heappop(run.waiting)
            time.sleep(max(0.0, ready_at - time.monotonic()))
        else:
            dispatch = run.ready.popleft()
        attempt = dispatch.start()
        kind, payload, exc, exec_s, account = _attempt(
            run.task_ref,
            dispatch.point,
            attempt,
            run.faults,
            dispatch.overrides,
            in_worker=False,
        )
        dispatch.record(pid, exec_s, account)
        run.settle(dispatch, kind, payload, exc)
        while run.events:
            yield run.events.popleft()
        if run.failure is not None:
            raise run.failure


def _preregister_exec_metrics() -> None:
    """Register the executor's metric families (zero-valued until used).

    Called at submit time when metrics are on, so a run's snapshot
    always *contains* the lifecycle counters — a campaign with no
    respawns reports ``exec_respawns`` at zero rather than omitting it,
    which is what lets consumers sum counters against
    :class:`CampaignResult` without existence checks.
    """
    reg = _metrics.REGISTRY
    reg.counter("exec_submits", "campaign submissions")
    reg.counter("exec_dispatches", "points sent to supervised workers")
    reg.counter("exec_attempts", "point executions started")
    reg.counter("exec_retries", "failed attempts rescheduled by policy")
    reg.counter("exec_crashes", "worker deaths with a point in flight")
    reg.counter("exec_timeouts", "points killed by the per-point deadline")
    reg.counter("exec_escalations", "points re-run with escalated error caps")
    reg.counter("exec_respawns", "worker processes respawned")
    reg.counter("exec_points", "points resolved, by source")
    reg.histogram("exec_point_s", "in-worker execution seconds per point")


class CampaignHandle:
    """A submitted campaign: consume its points as they finish.

    Created by :meth:`CampaignExecutor.submit` — never directly.  The
    handle owns the campaign's bookkeeping (which points were served from
    the cache or checkpoint, which were computed, which failed) and
    exposes the three consumption styles described in the module
    docstring.  All styles share one underlying event stream, so they can
    be mixed freely: a caller may pull a few events from
    :meth:`as_completed`, then call :meth:`result` to drain the rest.
    """

    def __init__(
        self,
        executor: "CampaignExecutor",
        campaign: Campaign,
        points: list[CampaignPoint],
        hits: list[PointResult],
        pending: list[CampaignPoint],
        cache: ResultCache | None,
        checkpoint_path: Path | None,
        run: _Run,
        start: float,
        fingerprint: str | None = None,
        ledger: RunLedger | None = None,
    ) -> None:
        self._executor = executor
        self._campaign = campaign
        self._points = points
        self._cache = cache
        self._checkpoint_path = checkpoint_path
        # Clock starts when submit() began, so duration_s covers the
        # cache/checkpoint hit resolution too (a fully-cached campaign's
        # cost IS that scan).
        self._start = start
        self._seen: list[PointResult] = []
        self._values: dict[int, Any] = {}
        self._errors: dict[int, dict[str, Any]] = {}
        self._timeline: dict[int, dict[str, Any]] = {}
        self._callbacks: list[Callable[[CampaignPoint, Any], None]] = []
        self._run = run
        self._failed: BaseException | None = None
        self._cancelled = False
        self._fingerprint = fingerprint
        self._ledger = ledger
        self._ledger_written = False
        self._started_at = time.time()
        self.cache_hits = sum(1 for hit in hits if hit.source == "cache")
        self.checkpoint_hits = len(hits) - self.cache_hits
        self.computed = 0
        # Effective pool width: a campaign whose pending work is 0 or 1
        # points runs in-process (reported as serial), exactly like the
        # one-shot runner always did.
        self.workers = executor.workers if run.pool is not None else 1
        self._events = self._event_stream(hits, pending)

    @property
    def name(self) -> str:
        """The campaign's label."""
        return self._campaign.name

    @property
    def points(self) -> list[CampaignPoint]:
        """The campaign's resolved points, in deterministic order."""
        return self._points

    @property
    def policy(self) -> FailurePolicy:
        """The failure policy governing this submission."""
        return self._run.policy

    @property
    def fingerprint(self) -> str | None:
        """Content hash identifying this campaign in the run ledger."""
        return self._fingerprint

    @property
    def errors(self) -> list[dict[str, Any]]:
        """Error records for terminally-failed points (point order)."""
        return [self._errors[index] for index in sorted(self._errors)]

    @property
    def attempts(self) -> dict[int, int]:
        """Executions started per point index (computed points only)."""
        return dict(self._run.attempts)

    def __len__(self) -> int:
        return len(self._points)

    # -- event production ------------------------------------------------
    def _event_stream(
        self, hits: list[PointResult], pending: list[CampaignPoint]
    ) -> Generator[PointResult, None, None]:
        """Yield :class:`PointResult` events in completion order.

        Hits are yielded first (they were resolved at submit time, before
        anything touched the pool); computed points follow as the
        supervised pool — or the in-process serial loop — delivers them.
        """
        checkpoint_handle: IO[str] | None = None
        try:
            for hit in hits:
                self._timeline[hit.point.index] = {
                    "index": hit.point.index,
                    "source": hit.source,
                }
                if _metrics.enabled:
                    _metrics.inc("exec_points", source=hit.source)
                yield hit
            if not pending:
                self._write_ledger()
                return
            if self._checkpoint_path is not None:
                self._checkpoint_path.parent.mkdir(parents=True, exist_ok=True)
                checkpoint_handle = self._checkpoint_path.open("a")
            run = self._run
            source: Iterable[_Event]
            if run.pool is None:
                source = _serial_events(run)
            else:
                source = iter(functools.partial(run.pool.next_event, run), None)
            for point, (status, payload), meta in source:
                ok = status == "ok"
                put_s = self._record(point, ok, payload, checkpoint_handle)
                self._timeline[point.index] = {
                    "index": point.index,
                    "source": "computed",
                    "ok": ok,
                    "cache_put_s": put_s,
                    **meta,
                }
                if _metrics.enabled:
                    _metrics.inc("exec_points", source="computed")
                    _metrics.observe("exec_point_s", meta["exec_s"], outcome=status)
                if ok:
                    yield PointResult(point, payload, "computed")
                else:
                    yield PointResult(point, None, "computed", False, payload)
            # Reached only when every point resolved: abandoned or failed
            # streams leave no ledger record (a partial run is not a
            # sample the autopilot should ever calibrate against).
            self._write_ledger()
        finally:
            if checkpoint_handle is not None:
                checkpoint_handle.close()

    def _record(
        self,
        point: CampaignPoint,
        ok: bool,
        payload: Any,
        checkpoint_handle: IO[str] | None,
    ) -> float | None:
        """Store one computed point; returns the cache write time, if any.

        A value is cached and checkpointed; a terminal failure's record
        is never cached, only checkpointed as an error.
        """
        self.computed += 1
        self._executor._points_computed += 1
        if not ok:
            self._errors[point.index] = payload
            if checkpoint_handle is not None:
                _append_checkpoint(
                    checkpoint_handle, point, status="error", error=payload
                )
            return None
        put_s = None
        if self._cache is not None:
            put_started = time.monotonic()
            self._cache.put(point.key, payload)
            put_s = time.monotonic() - put_started
        if checkpoint_handle is not None:
            _append_checkpoint(checkpoint_handle, point, payload)
        return put_s

    def _advance(self) -> PointResult:
        if self._cancelled and len(self._seen) < len(self._points):
            raise SimulationError(
                f"campaign {self.name!r} was cancelled with "
                f"{len(self._seen)}/{len(self._points)} points resolved"
            )
        if self._failed is not None:
            # The underlying generator died with the task's exception; a
            # spent generator would otherwise just StopIterate, making
            # result() fail with an unrelated KeyError.
            raise SimulationError(
                f"campaign {self.name!r} already failed: {self._failed!r}"
            ) from self._failed
        if (
            self._run.pool is not None
            and self._executor._closed
            and len(self._seen) < len(self._points)
        ):
            # The pool was torn down with results still undelivered;
            # waiting on it would block forever.
            raise SimulationError(
                f"executor is closed with campaign {self.name!r} still "
                f"incomplete ({len(self._seen)}/{len(self._points)} points "
                f"resolved) — consume the handle before closing"
            )
        try:
            event = next(self._events)  # StopIteration ends the drain loops
        except StopIteration:
            raise
        except BaseException as exc:
            self._failed = exc
            self._run.abandon()
            raise
        self._seen.append(event)
        self._values[event.point.index] = event.value
        for callback in self._callbacks:
            callback(event.point, event.value)
        return event

    # -- observation -----------------------------------------------------
    def on_result(
        self, callback: Callable[[CampaignPoint, Any], None] | None
    ) -> "CampaignHandle":
        """Register ``callback(point, value)`` for every resolved point.

        This is the one implementation behind every driver's
        ``on_result=`` hook: events already observed are replayed
        immediately (cache/checkpoint hits resolve at submit time), then
        the callback fires as each further point resolves — whichever
        consumption style drives the stream.  Failed points (under a
        non-raising policy) fire with ``value=None``.  Returns the
        handle for chaining; ``None`` is accepted and ignored so drivers
        can pass their own optional hook straight through.
        """
        if callback is None:
            return self
        for event in self._seen:
            callback(event.point, event.value)
        self._callbacks.append(callback)
        return self

    @property
    def timeline(self) -> list[dict[str, Any]]:
        """Timeline records for the points resolved so far (point order)."""
        return [
            self._timeline[point.index]
            for point in self._points
            if point.index in self._timeline
        ]

    def _exec_quantiles(self) -> dict[str, float] | None:
        """p50/p95/p99 of ``exec_point_s`` over every outcome so far.

        Estimated from the live histogram's fixed buckets (all label
        sets combined), so the numbers match what a ``/metrics`` scraper
        would compute.  ``None`` when metrics are off or nothing has
        been observed yet.
        """
        if not _metrics.enabled:
            return None
        metric = _metrics.REGISTRY.get("exec_point_s")
        if not isinstance(metric, _metrics.Histogram):
            return None
        sample = metric.combined_sample()
        out = {}
        for name, q in (("p50", 0.50), ("p95", 0.95), ("p99", 0.99)):
            estimate = _metrics.quantile_from_sample(sample, metric.buckets, q)
            if estimate is not None:
                out[name] = estimate
        return out or None

    def stats(self) -> dict[str, Any]:
        """Progress counters, per-point timeline, and a metrics snapshot.

        Never blocks — reports the state *so far*.  ``metrics`` is the
        process-global registry snapshot (worker deltas already merged
        in) when metrics collection is on, else ``None``;
        ``exec_point_quantiles`` estimates p50/p95/p99 of per-point
        execution time from the same snapshot.
        """
        return {
            "name": self.name,
            "points": len(self._points),
            "resolved": len(self._seen),
            "cache_hits": self.cache_hits,
            "checkpoint_hits": self.checkpoint_hits,
            "computed": self.computed,
            "errors": len(self._errors),
            "attempts": self.attempts,
            "timeline": self.timeline,
            "metrics": _metrics.snapshot() if _metrics.enabled else None,
            "exec_point_quantiles": self._exec_quantiles(),
        }

    # -- run ledger ------------------------------------------------------
    def run_record(self) -> dict[str, Any]:
        """The structured run record this campaign writes to the ledger.

        Self-contained and JSON-safe: identity (fingerprint, task,
        version, params shape), configuration (policy, workers, host),
        outcome counters, wall times, the full per-point timeline,
        terminal error records, the final metrics snapshot, and — when
        profiling was on — the merged hot-path table.
        """
        policy = self._run.policy
        return {
            "fingerprint": self._fingerprint,
            "name": self.name,
            "task": self._campaign.task_reference,
            "version": self._campaign.version,
            "points": len(self._points),
            "params_shape": sorted({k for p in self._points for k in p.params}),
            "policy": {
                "mode": policy.mode,
                "max_attempts": policy.max_attempts,
                "timeout": policy.timeout,
                "max_crashes": policy.max_crashes,
                "max_escalations": policy.max_escalations,
            },
            "target_error": self._run.target_error,
            "workers": self.workers,
            "env": {
                "cpu_count": os.cpu_count(),
                "platform": sys.platform,
                "python": platform.python_version(),
                "blas": _blas_env(self._run.pool),
            },
            "started_at": self._started_at,
            "duration_s": time.perf_counter() - self._start,
            "cache_hits": self.cache_hits,
            "checkpoint_hits": self.checkpoint_hits,
            "computed": self.computed,
            "errors": self.errors,
            "timeline": self.timeline,
            "metrics": _metrics.snapshot() if _metrics.enabled else None,
            "exec_point_quantiles": self._exec_quantiles(),
            "profile": (
                _profiling.hot_table() if _profiling.raw_profiles() else None
            ),
        }

    def _write_ledger(self) -> None:
        """Append the run record once, when the event stream completes.

        A ledger failure (read-only filesystem, full disk) is telemetry
        trouble, never campaign trouble — the results are already
        delivered and cached by the time this runs.
        """
        if self._ledger is None or self._ledger_written:
            return
        self._ledger_written = True
        try:
            self._ledger.append(self.run_record())
        except OSError:
            pass

    # -- consumption styles ----------------------------------------------
    def as_completed(self) -> Iterator[PointResult]:
        """Iterate :class:`PointResult` events in completion order.

        Cache/checkpoint hits come first (in point order), computed
        points as they finish (scheduling order under a pool).  A task
        failure under ``fail_fast`` propagates from the iterator (the
        executor and its pool survive it); under ``continue``/``retry``
        failed points arrive as ``ok=False`` events carrying their error
        record.  Multiple iterators may be taken — each replays the
        events already observed, then continues the shared stream.
        """
        position = 0
        while True:
            while position < len(self._seen):
                yield self._seen[position]
                position += 1
            try:
                self._advance()
            except StopIteration:
                return

    def stream_results(self) -> Iterator[Any]:
        """Yield plain values in **point order**, each as soon as known.

        The first value is yielded as soon as point 0 resolves — long
        before the campaign barrier — which is what lets an adaptive
        caller issue its next campaign early.  Because the order is the
        deterministic point order, any early-stop decision made while
        streaming is independent of worker count and scheduling.  A
        point that terminally failed under a non-raising policy yields
        ``None`` (check :attr:`errors` / use :meth:`as_completed` for
        the records).
        """
        for point in self._points:
            while point.index not in self._values:
                try:
                    self._advance()
                except StopIteration:  # pragma: no cover - defensive
                    raise SimulationError(
                        f"campaign {self.name!r} ended before point "
                        f"{point.index} resolved"
                    ) from None
            yield self._values[point.index]

    def cancel(self) -> None:
        """Stop computing the points this campaign has not resolved yet.

        No further point is dispatched; results of points already in
        flight are discarded as they land, never cached or checkpointed,
        and the pool forgets the campaign once none of it is in flight,
        so :meth:`CampaignExecutor.close` drains gracefully again.  A
        serial campaign simply computes nothing more.  Afterwards
        :meth:`result` and :meth:`stream_results` raise
        :class:`SimulationError` for unresolved points instead of
        waiting, while :meth:`partial_result` returns what had resolved.
        Calling it again, or on a finished campaign, does nothing.
        """
        if self._cancelled:
            return
        self._cancelled = True
        self._run.abandon()
        self._events.close()

    def result(self) -> CampaignResult:
        """Block until every point is done; the full ordered result."""
        for _ in self.as_completed():
            pass
        return self._build_result(self._points)

    def partial_result(self) -> CampaignResult:
        """A :class:`CampaignResult` over the points resolved *so far*.

        Never blocks.  Useful after an early-stopped stream: the values
        list aligns with the resolved subset of points (in point order).
        """
        resolved = [p for p in self._points if p.index in self._values]
        return self._build_result(resolved)

    def _build_result(self, points: list[CampaignPoint]) -> CampaignResult:
        return CampaignResult(
            name=self._campaign.name,
            values=[self._values[point.index] for point in points],
            points=points,
            cache_hits=self.cache_hits,
            checkpoint_hits=self.checkpoint_hits,
            computed=self.computed,
            workers=self.workers,
            duration_s=time.perf_counter() - self._start,
            errors=[
                self._errors[point.index]
                for point in points
                if point.index in self._errors
            ],
            timeline=[
                self._timeline[point.index]
                for point in points
                if point.index in self._timeline
            ],
        )


class CampaignExecutor:
    """A reusable, fault-tolerant campaign service with a warm worker pool.

    The pool is created lazily on the first submission that needs it and
    then *kept* — subsequent campaigns reuse the spawned workers, which
    is where short-sweep batteries win big (fork + numpy import cost is
    paid once, not per campaign).  Workers are *supervised*: a worker
    that dies mid-point is respawned and its point re-dispatched, and
    per-point timeouts/retries follow each submission's
    :class:`FailurePolicy`.  Close the executor (or use it as a context
    manager) to tear the pool down — gracefully when nothing is in
    flight.

    Args:
        workers: pool width; ``None``/``0``/``1`` executes in-process
            (streaming still works — points are computed lazily).
        cache: default :class:`ResultCache` (or directory path) applied
            to every submission unless overridden per call.
        policy: default :class:`FailurePolicy` (or mode string) for
            submissions that don't pass their own.
        http_port: serve live telemetry (``/metrics``, ``/status``,
            ``/spans``) on this localhost port for the executor's
            lifetime; ``0`` binds an ephemeral port (read it back from
            :attr:`http_port`).  ``None`` (default) consults the
            ``REPRO_OBS_HTTP`` environment variable.  Starting the
            server turns metrics and tracing collection on — an
            endpoint over a dark registry would be pointless.
        ledger: where completed runs append their
            :meth:`CampaignHandle.run_record`.  ``None`` (default)
            co-locates a :class:`~repro.obs.ledger.RunLedger` with each
            submission's result cache (``<cache root>/ledger.jsonl``;
            no cache, no ledger); ``False`` disables; a
            :class:`~repro.obs.ledger.RunLedger` or path pins an
            explicit location.
        profile: turn per-point :mod:`cProfile` capture on
            (:mod:`repro.obs.profiling` — note the flag is
            process-global, like ``obs.enable()``).  Worker profiles
            ship back over the result pipe and merge into the hot-path
            table of run records and flight reports.

    Attributes:
        stats: counters — ``pools_created``, ``campaigns``,
            ``points_computed``, plus the resilience counters
            ``respawns`` / ``retries`` / ``timeouts`` — for asserting
            pool reuse and recovery behaviour.
    """

    def __init__(
        self,
        workers: int | None = None,
        *,
        cache: ResultCache | str | Path | None = None,
        policy: FailurePolicy | str | None = None,
        http_port: int | None = None,
        ledger: RunLedger | str | Path | bool | None = None,
        profile: bool = False,
    ) -> None:
        n_workers = int(workers or 1)
        if n_workers < 0:
            raise SimulationError("workers must be >= 0")
        self.workers = max(1, n_workers)
        if isinstance(cache, (str, Path)):
            cache = ResultCache(cache)
        self.cache = cache
        self.policy = FailurePolicy.coerce(policy)
        self._pool: _SupervisedPool | None = None
        self._closed = False
        self._pools_created = 0
        self._campaigns = 0
        self._points_computed = 0
        self._counters: dict[str, int] = {
            "respawns": 0,
            "retries": 0,
            "timeouts": 0,
            "escalations": 0,
        }
        self._ledger_conf = ledger
        if profile:
            _profiling.enable()
        if http_port is None:
            raw = os.environ.get("REPRO_OBS_HTTP", "").strip()
            if raw:
                try:
                    http_port = int(raw)
                except ValueError:
                    raise SimulationError(
                        f"REPRO_OBS_HTTP must be a port number, got {raw!r}"
                    ) from None
        self._server: ObsServer | None = None
        if http_port is not None:
            from ..obs.serve import ObsServer

            _metrics.enable()
            _tracing.enable()
            self._server = ObsServer(port=http_port).start()

    # -- pool lifecycle --------------------------------------------------
    def _ensure_pool(self) -> _SupervisedPool:
        if self._closed:
            raise SimulationError("executor is closed")
        if self._pool is None:
            # The interpreter's default start method: fork where the
            # platform still defaults to it, forkserver/spawn elsewhere.
            # Workers only receive picklable (task_ref, point) payloads —
            # the task is re-imported inside the child — so every start
            # method works.
            ctx = multiprocessing.get_context()
            self._pool = _SupervisedPool(ctx, self.workers, self._counters)
            self._pools_created += 1
        return self._pool

    def warm(self) -> "CampaignExecutor":
        """Create the worker pool now (instead of on first submission).

        Useful when the time-to-first-result of the *next* campaign
        matters more than the cost of this call.  No-op for serial
        executors and already-warm pools.
        """
        if self.workers > 1:
            self._ensure_pool()
        return self

    @property
    def stats(self) -> dict[str, Any]:
        """Executor-lifetime counters (pool reuse, work done, recovery)."""
        return {
            "workers": self.workers,
            "pools_created": self._pools_created,
            "campaigns": self._campaigns,
            "points_computed": self._points_computed,
            "pool_alive": self._pool is not None,
            **self._counters,
        }

    @property
    def http_port(self) -> int | None:
        """The telemetry server's bound port (``None`` when not serving)."""
        return self._server.port if self._server is not None else None

    @property
    def http_url(self) -> str | None:
        """Base URL of the telemetry server (``None`` when not serving)."""
        return self._server.url if self._server is not None else None

    def _resolve_ledger(
        self, cache: ResultCache | None, conf: Any = _UNSET
    ) -> RunLedger | None:
        """The ledger a submission writes to, under the effective config."""
        if conf is _UNSET:
            conf = self._ledger_conf
        if conf is False:
            return None
        if conf is None or conf is True:
            return cache.ledger() if cache is not None else None
        if isinstance(conf, RunLedger):
            return conf
        return RunLedger(conf)

    def close(self, timeout: float = 5.0) -> bool:
        """Tear down the pool.  Safe to call twice; submits then fail.

        Points of cancelled campaigns still in flight get up to
        ``timeout`` seconds to land, their results discarded.  When no
        submission then holds undelivered work, the workers drain
        gracefully: each receives the stop sentinel and is joined within
        the rest of ``timeout``.  Otherwise — a stream dropped without
        :meth:`CampaignHandle.cancel`, or a point outliving the timeout —
        the pool is terminated (those results go nowhere anyway).
        Either way every worker process is gone when this returns.

        Returns:
            Whether the shutdown was graceful (trivially ``True`` when
            no pool was ever created).
        """
        self._closed = True
        server, self._server = self._server, None
        if server is not None:
            server.stop(timeout)
        pool, self._pool = self._pool, None
        if pool is not None:
            return pool.shutdown(timeout)
        return True

    def __enter__(self) -> "CampaignExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- submission ------------------------------------------------------
    def submit(
        self,
        campaign: Campaign,
        *,
        cache: ResultCache | str | Path | None = _UNSET,
        checkpoint: str | Path | None = None,
        policy: FailurePolicy | str | None = None,
        faults: FaultPlan | None = None,
        ledger: RunLedger | str | Path | bool | None = _UNSET,
        target_error: float | None = None,
    ) -> CampaignHandle:
        """Start a campaign; consume it through the returned handle.

        Cache and checkpoint hits are resolved *now* — before any point
        is dispatched — so a fully-cached campaign never touches the
        pool.  Pending points are dispatched to the warm pool immediately
        (up to one per worker; the supervisor keeps workers fed as the
        handle is consumed); with ``workers <= 1`` they are computed
        lazily in-process as the handle is consumed.

        Args:
            campaign: the declarative spec.
            cache: override the executor default for this submission
                (``None`` disables caching).  Only successful values are
                ever cached.
            checkpoint: JSON-lines resume file, replayed then appended.
                Records are status-tagged: successes replay verbatim on
                resume, error records are retried.
            policy: :class:`FailurePolicy` (or mode string) for this
                submission; defaults to the executor's policy.
            faults: a :class:`repro.exec.faults.FaultPlan` injecting
                deterministic faults into this submission's executions
                (testing only).
            ledger: override the executor's run-ledger config for this
                submission (same semantics as the constructor argument:
                ``None`` co-locates with the effective cache, ``False``
                disables, a :class:`~repro.obs.ledger.RunLedger` or
                path pins a location).
            target_error: error-budget contract for this submission
                (defaults to the campaign's own ``target_error``).  When
                set, a point whose tracked truncation + purification
                error exceeds the budget is transparently re-run with
                escalated caps (``max_bond``/``max_kraus`` doubled from
                the observed dimensions), at most
                ``policy.max_escalations`` times per point.
        """
        if self._closed:
            raise SimulationError("executor is closed")
        start = time.perf_counter()
        if _metrics.enabled:
            _preregister_exec_metrics()
            _metrics.inc("exec_submits")
        if cache is _UNSET:
            cache = self.cache
        elif isinstance(cache, (str, Path)):
            cache = ResultCache(cache)
        effective = FailurePolicy.coerce(policy if policy is not None else self.policy)
        if target_error is None:
            target_error = campaign.target_error
        points = campaign.points()
        checkpoint_path = Path(checkpoint) if checkpoint is not None else None
        replayed = _load_checkpoint(checkpoint_path) if checkpoint_path else {}

        hits: list[PointResult] = []
        pending: list[CampaignPoint] = []
        for point in points:
            if cache is not None:
                value = cache.get(point.key)
                if value is not MISS:
                    hits.append(PointResult(point, value, "cache"))
                    continue
            if point.key in replayed:
                value = replayed[point.key]
                hits.append(PointResult(point, value, "checkpoint"))
                if cache is not None:
                    cache.put(point.key, value)
                continue
            pending.append(point)

        run = _Run(
            campaign.task_reference,
            pending,
            effective,
            faults,
            target_error,
            self._counters,
        )
        if self.workers > 1 and len(pending) > 1:
            # Dispatch now: up to one point per worker starts immediately,
            # so workers make progress while the caller is off doing
            # something other than consuming the handle.
            self._ensure_pool().submit(run)
        fingerprint = stable_hash(
            {
                "task": campaign.task_reference,
                "version": campaign.version,
                "keys": [point.key for point in points],
            }
        )
        handle = CampaignHandle(
            executor=self,
            campaign=campaign,
            points=points,
            hits=hits,
            pending=pending,
            cache=cache,
            checkpoint_path=checkpoint_path,
            run=run,
            start=start,
            fingerprint=fingerprint,
            ledger=self._resolve_ledger(cache, ledger),
        )
        if self._server is not None:
            self._server.register(handle)
        self._campaigns += 1
        return handle

    def run(
        self,
        campaign: Campaign,
        *,
        cache: ResultCache | str | Path | None = _UNSET,
        checkpoint: str | Path | None = None,
        policy: FailurePolicy | str | None = None,
        faults: FaultPlan | None = None,
        ledger: RunLedger | str | Path | bool | None = _UNSET,
        target_error: float | None = None,
    ) -> CampaignResult:
        """Submit and drain one campaign (the barrier style)."""
        handle = self.submit(
            campaign,
            cache=cache,
            checkpoint=checkpoint,
            policy=policy,
            faults=faults,
            ledger=ledger,
            target_error=target_error,
        )
        return handle.result()


@contextmanager
def executor_scope(
    executor: CampaignExecutor | None,
    *,
    workers: int | None = None,
    cache: ResultCache | str | Path | None = None,
    policy: FailurePolicy | str | None = None,
    ledger: RunLedger | str | Path | bool | None = None,
) -> Iterator[tuple[CampaignExecutor, dict[str, Any]]]:
    """The executor-or-own pattern shared by the workload drivers.

    Yields ``(executor, submit_kwargs)``.  With a caller-provided
    executor it is yielded as-is (and *not* closed afterwards), and
    ``submit_kwargs`` carries the caller's cache/policy as explicit
    overrides when given — a ``cache=None`` caller defers to the
    executor's own cache rather than disabling caching, and likewise for
    the failure policy.  Without one, a transient
    :class:`CampaignExecutor` is created with the caller's
    ``workers``/``cache``/``policy`` and closed on exit, and
    ``submit_kwargs`` is empty (the settings are already executor
    defaults).
    """
    if executor is not None:
        kwargs: dict[str, Any] = {}
        if cache is not None:
            kwargs["cache"] = cache
        if policy is not None:
            kwargs["policy"] = policy
        if ledger is not None:
            kwargs["ledger"] = ledger
        yield executor, kwargs
        return
    owned = CampaignExecutor(workers, cache=cache, policy=policy, ledger=ledger)
    try:
        yield owned, {}
    finally:
        owned.close()


def run_campaign(
    campaign: Campaign,
    *,
    workers: int | None = None,
    cache: ResultCache | str | Path | None = None,
    checkpoint: str | Path | None = None,
    policy: FailurePolicy | str | None = None,
    faults: FaultPlan | None = None,
    target_error: float | None = None,
) -> CampaignResult:
    """Execute every point of a campaign, skipping already-known results.

    A thin one-shot wrapper over :class:`CampaignExecutor`: builds an
    executor, runs the campaign to the barrier, tears the pool down.
    Serial, parallel, and streamed executions are bit-identical (per-point
    spawned seeds), so parallelism is purely a wall-clock choice.  Batch
    callers running *many* campaigns should hold a
    :class:`CampaignExecutor` instead and amortise the pool.

    Args:
        campaign: the declarative spec.
        workers: worker-process count; ``None``/``0``/``1`` runs serially
            in-process.
        cache: a :class:`ResultCache` (or a directory path for one).
            Points found by content key are served without executing —
            across reruns *and* across different campaigns that share
            points.  Freshly computed successful values are written back;
            failures never are.
        checkpoint: JSON-lines file appended as points complete; an
            existing file is replayed first (resume after a kill), with
            corrupted lines skipped and error records retried.
        policy: :class:`FailurePolicy` (or mode string) governing task
            failures, worker crashes, and per-point timeouts.
        faults: a :class:`repro.exec.faults.FaultPlan` for deterministic
            fault injection (testing only).
        target_error: error-budget contract (see
            :meth:`CampaignExecutor.submit`); defaults to the campaign's
            own ``target_error``.

    Returns:
        A :class:`CampaignResult` with values in point order.
    """
    with CampaignExecutor(workers, cache=cache) as executor:
        return executor.run(
            campaign,
            checkpoint=checkpoint,
            policy=policy,
            faults=faults,
            target_error=target_error,
        )
