"""Failure policies: what a campaign does when a point fails.

A long campaign meets three kinds of trouble:

* a **task exception** — the point's own computation raised;
* a **worker crash** — the process executing the point died outright
  (segfault, OOM kill, ``os._exit``), taking its in-flight point with it;
* a **timeout** — the point ran past its per-point wall-clock budget.

:class:`FailurePolicy` decides the response, per submission:

* ``"fail_fast"`` (the default, and the historical behaviour) raises the
  first task failure out of the consuming iterator; the executor and its
  pool survive and later campaigns run normally.
* ``"continue"`` records a structured error for the failed point (in
  :attr:`~repro.exec.CampaignResult.errors`, the event stream, and the
  checkpoint) and keeps going; the point's value is ``None``.
* ``"retry"`` re-executes a failed point up to ``max_attempts`` times
  with **deterministic** exponential backoff — the jitter is derived
  from the point's spawned retry seed (:func:`repro.exec.sweep.retry_seed`),
  never from wall-clock entropy, so two runs of the same campaign back
  off identically.  A point that exhausts its attempts is recorded like
  ``"continue"``.

Worker crashes are infrastructure faults, not task verdicts: under
*every* mode the supervisor respawns the dead worker and re-dispatches
its in-flight point, up to ``max_crashes`` times per point, before the
mode's terminal handling applies.  Because a re-dispatched point reuses
its original content-spawned seed, recovery never changes the campaign's
values — the chaos invariant (crash-recovered parallel == serial,
bit-identical) is tested in ``tests/exec/test_faults.py``.

One per-point attempt state machine applies the policy, and the serial
in-process loop and the supervised pool both drive it: the same outcome
sequence leads to the same retries, backoff, escalations and error
records on either path.  Attempt numbers count executions — an
escalated re-run or a crash re-dispatch is an attempt too — and key both
the retry backoff and :meth:`repro.exec.faults.FaultPlan.fault_for`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..core.exceptions import SimulationError

if TYPE_CHECKING:
    from .sweep import CampaignPoint

__all__ = ["FailurePolicy", "FAIL_FAST", "CONTINUE", "RETRY"]

#: The recognised policy modes.
_MODES = ("fail_fast", "continue", "retry")


@dataclass(frozen=True)
class FailurePolicy:
    """Per-submission failure handling for campaign execution.

    Attributes:
        mode: ``"fail_fast"`` | ``"continue"`` | ``"retry"`` (see the
            module docstring for the semantics).
        max_attempts: failed executions (exceptions and timeouts) a
            point may consume before its failure is terminal (only
            consulted in ``"retry"`` mode; must be >= 1).  Worker
            crashes and escalated re-runs do **not** count against this
            budget.
        timeout: per-point wall-clock budget in seconds, enforced under
            pool dispatch (``workers > 1``): an overdue point's worker is
            killed and respawned, and the timeout is handled like a task
            failure under the mode.  ``None`` disables.  The in-process
            serial path cannot pre-empt a running task, so timeouts are
            not enforced there.
        max_crashes: worker-death re-dispatches allowed per point (any
            mode) before the crash is treated as a terminal failure.
        max_escalations: error-budget escalations allowed per point when
            the submission carries a ``target_error`` contract — each
            escalation re-runs the point with doubled truncation caps.
            After the budget is spent the best delivered result stands.
            Escalations count as executions but never as failures.
        backoff_base: first retry delay in seconds.
        backoff_factor: multiplier per subsequent retry.
        backoff_max: delay ceiling in seconds.
        backoff_jitter: deterministic jitter fraction — the delay is
            scaled by ``1 + jitter * u`` with ``u`` drawn from the
            point's retry seed, decorrelating retries of neighbouring
            points without sacrificing reproducibility.
    """

    mode: str = "fail_fast"
    max_attempts: int = 3
    timeout: float | None = None
    max_crashes: int = 3
    max_escalations: int = 3
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 5.0
    backoff_jitter: float = 0.5

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise SimulationError(
                f"unknown failure-policy mode {self.mode!r}; expected one of {_MODES}"
            )
        if self.max_attempts < 1:
            raise SimulationError("max_attempts must be >= 1")
        if self.max_crashes < 0:
            raise SimulationError("max_crashes must be >= 0")
        if self.max_escalations < 0:
            raise SimulationError("max_escalations must be >= 0")
        if self.timeout is not None and self.timeout <= 0:
            raise SimulationError("timeout must be positive (or None)")
        if self.backoff_base < 0 or self.backoff_max < 0:
            raise SimulationError("backoff delays must be >= 0")
        if self.backoff_factor < 1.0:
            raise SimulationError("backoff_factor must be >= 1")
        if self.backoff_jitter < 0:
            raise SimulationError("backoff_jitter must be >= 0")

    @classmethod
    def coerce(cls, value: "FailurePolicy | str | None") -> "FailurePolicy":
        """Normalise a policy argument: ``None`` / mode string / instance."""
        if value is None:
            return cls()
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            return cls(mode=value)
        raise SimulationError(
            f"expected a FailurePolicy, a mode string, or None — got "
            f"{type(value).__name__!r}"
        )

    def backoff_delay(self, point: CampaignPoint, attempt: int) -> float:
        """Deterministic backoff after ``point``'s ``attempt``-th execution failed.

        Exponential in the attempt number (executions so far, escalated
        re-runs and crash re-dispatches included), capped at ``backoff_max``,
        with a jitter fraction drawn from the point's retry seed — the
        same ``(point, attempt)`` always waits the same time.
        """
        from .sweep import retry_seed

        base = min(
            self.backoff_max,
            self.backoff_base * self.backoff_factor ** max(0, attempt - 1),
        )
        if base <= 0 or self.backoff_jitter <= 0:
            return base
        u = float(np.random.default_rng(retry_seed(point, attempt)).random())
        return base * (1.0 + self.backoff_jitter * u)


#: Ready-made policies for the common cases.
FAIL_FAST = FailurePolicy(mode="fail_fast")
CONTINUE = FailurePolicy(mode="continue")
RETRY = FailurePolicy(mode="retry")
