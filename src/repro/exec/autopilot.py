"""Error-budget autopilot: accuracy-aware backend planning.

:func:`repro.exec.select_backend` historically ranked engines by
*predicted speed* alone — the caller hand-picked ``max_bond`` /
``max_kraus`` / trajectory counts and hoped the accuracy landed.  This
module adds the accuracy half of the contract: state a target once
(``target_error=1e-6``) and :func:`plan_backend` returns a
:class:`BackendPlan` — engine, caps, and trajectory count — predicted
to meet it at minimum predicted cost.

Three model families feed the plan:

* **Truncation** — an entanglement-growth model for bond-truncating
  engines (MPS, LPDO): per two-site gate, the discarded Schmidt weight
  decays exponentially in the bond cap
  (``trunc_err_per_gate * exp(-chi / trunc_chi_scale)``), and caps at or
  above the register's exact Schmidt rank (:func:`exact_bond_dim`) are
  error-free by construction.
* **Purification** — the same shape for the LPDO Kraus legs
  (``purif_err_per_channel * exp(-kappa / purif_kappa_scale)`` per
  channel).  Unlike bond truncation there is no finite exactness
  threshold: the leg regrows at every channel, so only an uncapped leg
  or a channel-free circuit is modelled as error-free.
* **Sampling** — the Monte-Carlo standard error of trajectory-based
  engines, ``mc_sigma / sqrt(n_trajectories)``.

The constants are calibration entries like the cost constants
(:data:`repro.exec.costmodel.DEFAULT_CALIBRATION`), and
:func:`recalibrate` updates both families online from a
:class:`~repro.obs.ledger.RunLedger` — observed per-point wall times
rescale the chosen engine's cost constant, and the truncation /
purification accounts shipped back by campaign workers
(:meth:`RunLedger.error_account_samples`) refit the error rates — so
the *next* plan learns from completed runs instead of trusting the
committed ``BENCH_exec.json`` forever.
"""

from __future__ import annotations

import math
import os
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import Any

import numpy as np

from ..core.dims import validate_dims
from ..core.exceptions import SimulationError
from ..obs.ledger import RunLedger
from .costmodel import (
    _DENSE_CAP,
    BackendChoice,
    _estimate,
    load_calibration,
)

__all__ = [
    "BackendPlan",
    "exact_bond_dim",
    "exact_kraus_dim",
    "plan_backend",
    "predicted_sampling_error",
    "predicted_truncation_error",
    "predicted_purification_error",
    "recalibrate",
]

#: Search ceilings for cap ladders — plans never propose caps past these.
_MAX_PLANNED_CHI = 4096
_MAX_PLANNED_KAPPA = 256
_MAX_PLANNED_TRAJECTORIES = 1 << 20

#: Calibration key charged for each engine's wall-time recalibration.
_ENGINE_COST_KEY = {
    "statevector": "statevector_amp_op_s",
    "density": "density_amp2_op_s",
    "trajectories": "trajectories_amp_op_s",
    "mps": "mps_site_chi3_op_s",
    "lpdo": "lpdo_site_chi3_kappa2_op_s",
}


@dataclass(frozen=True)
class BackendPlan(BackendChoice):
    """A :class:`~repro.exec.costmodel.BackendChoice` with an error contract.

    Every :func:`repro.exec.select_backend` call now returns one of
    these (it *is a* ``BackendChoice``, so existing callers are
    untouched).  The extra fields record the accuracy side of the
    decision; ``estimates`` rows gain a ``predicted_error`` entry.

    Attributes:
        target_error: the requested error budget (``None`` = legacy
            speed-only selection).
        predicted_error: the model's error prediction for the chosen
            engine/caps (0.0 for exact configurations).
        predicted_cost_s: the model's wall-time prediction for the
            chosen configuration.
    """

    target_error: float | None = None
    predicted_error: float = 0.0
    predicted_cost_s: float = 0.0

    def meets_target(self) -> bool:
        """Whether the predicted error is within the requested budget."""
        return self.target_error is None or (
            self.predicted_error <= self.target_error
        )

    def explain(self) -> str:
        """Human-readable plan summary: choice, contract, scoring table."""
        lines = [f"plan: {self.name}  options={self.options or {}}"]
        if self.target_error is not None:
            lines.append(
                f"contract: target_error={self.target_error:g} -> "
                f"predicted_error={self.predicted_error:.3e} "
                f"({'met' if self.meets_target() else 'NOT met'}), "
                f"predicted_cost_s={self.predicted_cost_s:.3e}"
            )
        else:
            lines.append(
                f"no target_error (speed-only selection); "
                f"predicted_error={self.predicted_error:.3e}, "
                f"predicted_cost_s={self.predicted_cost_s:.3e}"
            )
        lines.append(f"reason: {self.reason}")
        for name in sorted(self.estimates):
            row = self.estimates[name]
            err = row.get("predicted_error")
            lines.append(
                f"  {name:<12} feasible={'yes' if row.get('feasible') else 'no':<3} "
                f"est_seconds={row['est_seconds']:.2e} "
                f"memory_bytes={row['memory_bytes']:.3g}"
                + (f" predicted_error={err:.2e}" if err is not None else "")
            )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# register-derived exact dimensions
# ----------------------------------------------------------------------
def exact_bond_dim(dims: Sequence[int]) -> int:
    """Largest Schmidt rank any bipartition of the register can need.

    A bond cap at or above this renders MPS/LPDO bond truncation exact,
    so it is both the ceiling of any cap search and the register-derived
    default cap (clamped to the legacy 32) when the caller gives none.
    """
    sizes = [int(d) for d in dims]
    if len(sizes) <= 1:
        return 1
    best = 1
    left = 1
    total = 1
    for d in sizes:
        total *= d
    for d in sizes[:-1]:
        left *= d
        best = max(best, min(left, total // left))
    return best


def exact_kraus_dim(dims: Sequence[int], noisy: bool) -> int:
    """Register-derived default Kraus cap: the local operator space.

    A site's *instantaneous* mixedness needs at most ``d^2`` purifying
    directions, which makes this the natural register-derived default
    cap.  It is **not** an exactness threshold for circuit evolution:
    the leg regrows at every channel and the sequential compression
    compounds (see :func:`predicted_purification_error`), so the
    contract planner's ladder may exceed it.  Noiseless circuits never
    grow the leg at all.
    """
    if not noisy:
        return 1
    return max(int(d) for d in dims) ** 2


# ----------------------------------------------------------------------
# error models
# ----------------------------------------------------------------------
def predicted_truncation_error(
    chi: int | None,
    *,
    n_two_site: int,
    chi_exact: int,
    calibration: dict[str, float],
) -> float:
    """Predicted accumulated bond-truncation error at cap ``chi``."""
    if chi is None or chi >= chi_exact or n_two_site <= 0:
        return 0.0
    return float(
        calibration["trunc_err_per_gate"]
        * n_two_site
        * math.exp(-chi / calibration["trunc_chi_scale"])
    )


def predicted_purification_error(
    kappa: int | None,
    *,
    n_channels: int,
    kappa_exact: int,
    calibration: dict[str, float],
) -> float:
    """Predicted accumulated Kraus-leg truncation error at cap ``kappa``.

    Unlike bond truncation — which is genuinely exact once ``chi``
    reaches the register's Schmidt rank — a *finite* Kraus cap is never
    modelled as error-free when the circuit applies channels: the leg
    regrows at every channel and the sequential local compression
    compounds, so the error decays with ``kappa`` but does not hit an
    exactness wall at ``kappa_exact``.  Only an uncapped leg
    (``kappa=None``, nothing ever discarded) or a channel-free circuit
    is error-free.
    """
    if kappa is None or n_channels <= 0:
        return 0.0
    return float(
        calibration["purif_err_per_channel"]
        * n_channels
        * math.exp(-kappa / calibration["purif_kappa_scale"])
    )


def predicted_sampling_error(
    n_trajectories: int, *, calibration: dict[str, float]
) -> float:
    """Monte-Carlo standard error of an ``n_trajectories``-wide estimate."""
    return float(calibration["mc_sigma"] / math.sqrt(max(1, n_trajectories)))


def _ladder(lo: int, hi: int) -> list[int]:
    """Doubling ladder ``lo, 2 lo, ...`` ending exactly at ``hi``."""
    if hi <= lo:
        return [max(1, hi)]
    out = []
    v = lo
    while v < hi:
        out.append(v)
        v *= 2
    out.append(hi)
    return out


@dataclass(frozen=True)
class _Config:
    """One candidate engine configuration under evaluation."""

    chi: int = 1
    kappa: int = 1
    n_trajectories: int = 1
    predicted_error: float = 0.0


def _first_fit(
    rungs: list[int], error: Callable[[int], float], share: float
) -> tuple[int, float]:
    """The first rung whose predicted error fits ``share``, else the last.

    Cost is monotone in every knob, so the first fitting rung is the
    cheapest; when none fits, the largest is returned and the planner
    rejects the engine on its ``predicted_error``.
    """
    for rung in rungs:
        err = error(rung)
        if err <= share:
            break
    return rung, err


# ----------------------------------------------------------------------
# planning
# ----------------------------------------------------------------------
def _plan(
    dims: tuple[int, ...],
    *,
    noisy: bool,
    n_instructions: int,
    allow_sampling: bool,
    n_trajectories: int,
    max_bond: int | None,
    max_kraus: int | None,
    target_error: float | None,
    n_two_site: int,
    n_channels: int,
    calibration: dict[str, float],
) -> BackendPlan:
    dim = float(np.prod([float(d) for d in dims]))
    chi_exact = exact_bond_dim(dims)
    kappa_exact = exact_kraus_dim(dims, noisy)
    if not noisy:
        candidates = ["statevector", "mps"]
    else:
        candidates = ["density", "lpdo"]
        if allow_sampling:
            candidates += ["trajectories", "mps"]

    if target_error is None:
        # Speed-only selection is the contract search with every ladder
        # pinned to one rung — the caller's caps, or register-derived
        # defaults (an exact engine is never modelled wider than the
        # register can need) — and no budget to filter on.  Every
        # engine is tabulated, candidate or not.
        budget = math.inf
        chis = [int(max_bond) if max_bond is not None else min(32, chi_exact)]
        kappas = [int(max_kraus) if max_kraus is not None else min(8, kappa_exact)]
        pinned: int | None = n_trajectories
        scored = list(_ENGINE_COST_KEY)
    else:
        # Accuracy contract: per engine, the cheapest configuration
        # predicted to meet the target; then the cheapest engine among
        # those that do.
        if target_error <= 0:
            raise SimulationError("target_error must be positive")
        budget = target_error
        chi_cap = min(chi_exact, _MAX_PLANNED_CHI)
        if max_bond is not None:
            chi_cap = min(chi_cap, int(max_bond))
        # No kappa_exact ceiling here: finite Kraus caps are never
        # error-free under channels, so the ladder may climb past the
        # local operator-space dimension if the budget demands it.
        kappa_cap = _MAX_PLANNED_KAPPA
        if max_kraus is not None:
            kappa_cap = min(kappa_cap, int(max_kraus))
        chis = _ladder(2, chi_cap)
        kappas = _ladder(2, kappa_cap)
        pinned = None
        scored = candidates

    def truncation(chi: int) -> float:
        return predicted_truncation_error(
            chi, n_two_site=n_two_site, chi_exact=chi_exact, calibration=calibration
        )

    def purification(kappa: int) -> float:
        return predicted_purification_error(
            kappa,
            n_channels=n_channels,
            kappa_exact=kappa_exact,
            calibration=calibration,
        )

    def sampling(share: float) -> tuple[int, float]:
        n = pinned
        if n is None:
            needed = math.ceil((calibration["mc_sigma"] / share) ** 2)
            n = max(1, min(_MAX_PLANNED_TRAJECTORIES, needed))
        return n, predicted_sampling_error(n, calibration=calibration)

    def configure(name: str) -> _Config:
        """One engine's cheapest configuration; two error sources split the budget."""
        if name in ("statevector", "density"):
            return _Config()
        if name == "trajectories":
            n, err = sampling(budget)
            return _Config(n_trajectories=n, predicted_error=err)
        if name == "mps" and not noisy:
            chi, err = _first_fit(chis, truncation, budget)
            return _Config(chi=chi, predicted_error=err)
        chi, trunc = _first_fit(chis, truncation, budget / 2.0)
        if name == "mps":
            n, mc = sampling(budget / 2.0)
            return _Config(chi=chi, n_trajectories=n, predicted_error=trunc + mc)
        kappa, purif = _first_fit(kappas, purification, budget / 2.0)
        return _Config(chi=chi, kappa=kappa, predicted_error=trunc + purif)

    table: dict[str, dict[str, float]] = {}
    configs: dict[str, _Config] = {}
    for name in scored:
        config = configs[name] = configure(name)
        row = _estimate(
            name,
            dims,
            noisy,
            n_instructions,
            chi=config.chi,
            kappa=config.kappa,
            n_trajectories=config.n_trajectories,
            calibration=calibration,
        )
        row["predicted_error"] = config.predicted_error
        table[name] = row
    meeting = [
        name
        for name in candidates
        if table[name]["feasible"] and table[name]["predicted_error"] <= budget
    ]
    if not meeting:
        budget_text = f"{calibration['memory_budget_bytes']:.3g}-byte budget"
        if target_error is None:
            raise SimulationError(
                f"no feasible backend for dims={dims} noisy={noisy} under a "
                f"{budget_text}; estimates: "
                + ", ".join(
                    f"{name}={table[name]['memory_bytes']:.3g}B"
                    for name in candidates
                )
            )
        raise SimulationError(
            f"no engine predicted to meet target_error={target_error:g} for "
            f"dims={dims} noisy={noisy} under a {budget_text}; best "
            "predictions: "
            + ", ".join(
                f"{name}={table[name]['predicted_error']:.2e}"
                f"@{table[name]['memory_bytes']:.3g}B"
                for name in candidates
            )
        )
    chosen = min(meeting, key=lambda name: table[name]["est_seconds"])
    config = configs[chosen]
    options: dict[str, Any] = {}
    if chosen in ("mps", "lpdo"):
        options["max_bond"] = config.chi
    if chosen == "lpdo":
        options["max_kraus"] = config.kappa
    if chosen == "trajectories" or (chosen == "mps" and noisy):
        options["n_trajectories"] = config.n_trajectories
    register = f"{'noisy' if noisy else 'noiseless'} register D={dim:.3g}"
    estimated = f"{table[chosen]['est_seconds']:.2e} s estimated"
    if target_error is None:
        reason = (
            f"{register} on {len(dims)} sites; cheapest feasible of "
            f"{meeting} by the calibrated model ({estimated})"
        )
    else:
        reason = (
            f"target_error={target_error:g} on a {register} over "
            f"{len(dims)} sites; cheapest of {meeting} meeting the budget "
            f"(predicted error {config.predicted_error:.2e}, {estimated})"
        )
    return BackendPlan(
        name=chosen,
        options=options,
        reason=reason,
        estimates=table,
        target_error=None if target_error is None else float(target_error),
        predicted_error=float(config.predicted_error),
        predicted_cost_s=float(table[chosen]["est_seconds"]),
    )


def plan_backend(
    dims: Sequence[int],
    *,
    noisy: bool,
    n_instructions: int = 100,
    memory_budget: float | None = None,
    observables: str = "local",
    allow_sampling: bool = False,
    n_trajectories: int = 128,
    max_bond: int | None = None,
    max_kraus: int | None = None,
    calibration: dict[str, float] | None = None,
    target_error: float | None = None,
    ledger: RunLedger | str | os.PathLike[str] | None = None,
    n_two_site: int | None = None,
    n_channels: int | None = None,
) -> BackendPlan:
    """Plan engine + caps for one workload, optionally under an error budget.

    The engine behind :func:`repro.exec.select_backend`, which forwards
    its keywords here unchanged.

    Args:
        dims: register dimensions.
        noisy: whether the circuit contains channel/reset instructions.
        n_instructions: circuit length (scales every cost estimate).
        memory_budget: bytes any single resident state may occupy
            (default: the calibrated budget, 1 GiB out of the box).
        observables: ``"local"`` (expectations of few-wire operators,
            sampling — every engine qualifies) or ``"dense"`` (the caller
            will ask for the full probability vector, which tensor-network
            engines can only produce for registers below ~4M amplitudes).
        allow_sampling: permit engines with Monte-Carlo error on noisy
            circuits (trajectories, MPS unravelling).  Off by default so
            sweeps and bisections stay deterministic.
        n_trajectories: batch width assumed for sampling engines
            (speed-only selection; a contract sizes it from the budget).
        max_bond: bond cap for tensor-network engines — the cap assumed
            by speed-only selection (default: the register's exact
            Schmidt rank, clamped to 32), the ceiling of a contract's
            cap search.
        max_kraus: Kraus-leg cap for LPDO — likewise assumed (default:
            the register's exact Kraus width, clamped to 8) or a ceiling.
        calibration: cost-constant override (default: committed record).
        target_error: total error budget for the delivered observables.
            ``None`` ranks engines by predicted speed alone, at the caps
            above; a positive float makes the plan search each engine's
            cap/trajectory ladder for the cheapest configuration whose
            *predicted* error meets the budget, and raises
            :class:`SimulationError` when none does.
        ledger: a :class:`~repro.obs.ledger.RunLedger` (or its path).
            When given, the plan is recalibrated against the ledger's
            observed wall times and truncation accounts
            (:func:`recalibrate`) and re-planned once.
        n_two_site: two-site gate count of the circuit (drives the
            entanglement-growth model; default: ``n_instructions / 2``).
        n_channels: channel/reset instruction count (drives the
            purification model; default: ``n_instructions / 3`` when
            noisy).

    Returns:
        A :class:`BackendPlan` (also a valid
        :class:`~repro.exec.costmodel.BackendChoice`); raises
        :class:`SimulationError` when no engine is feasible — or, with
        ``target_error``, predicted to meet it — under the constraints.
    """
    dims = validate_dims(dims)
    if observables not in ("local", "dense"):
        raise SimulationError(f"unknown observables hint {observables!r}")
    calib = dict(calibration or load_calibration())
    if memory_budget is not None:
        calib["memory_budget_bytes"] = float(memory_budget)
    dim = float(np.prod([float(d) for d in dims]))
    if observables == "dense" and dim > _DENSE_CAP:
        raise SimulationError(
            f"dense observables requested but register dimension {dim:.3g} "
            f"exceeds the densification cap {_DENSE_CAP:.3g}"
        )
    two_site = (
        int(n_two_site)
        if n_two_site is not None
        else max(1, int(n_instructions) // 2)
    )
    channels = (
        int(n_channels)
        if n_channels is not None
        else (max(1, int(n_instructions) // 3) if noisy else 0)
    )

    def plan_with(constants: dict[str, float]) -> BackendPlan:
        return _plan(
            dims,
            noisy=noisy,
            n_instructions=n_instructions,
            allow_sampling=allow_sampling,
            n_trajectories=n_trajectories,
            max_bond=max_bond,
            max_kraus=max_kraus,
            target_error=target_error,
            n_two_site=two_site,
            n_channels=channels,
            calibration=constants,
        )

    if not ledger:
        return plan_with(calib)
    if isinstance(ledger, (str, os.PathLike)):
        ledger = RunLedger(ledger)
    first = plan_with(calib)
    calib = recalibrate(
        ledger,
        calib,
        engine=first.name,
        predicted_point_s=first.predicted_cost_s,
    )
    return plan_with(calib)


# ----------------------------------------------------------------------
# online recalibration
# ----------------------------------------------------------------------
def recalibrate(
    ledger: RunLedger,
    calibration: dict[str, float] | None = None,
    *,
    engine: str | None = None,
    predicted_point_s: float | None = None,
    **filters: Any,
) -> dict[str, float]:
    """Updated calibration constants learned from a run ledger.

    Two independent updates, each applied only when the ledger holds
    usable samples (an empty or irrelevant ledger returns the input
    constants unchanged):

    * **Cost**: when ``engine`` and its ``predicted_point_s`` are given,
      the engine's cost constant is scaled by the ratio of the observed
      median per-point wall time (:meth:`RunLedger.exec_s_distribution`)
      to the prediction, clamped to a factor of 32 either way so one
      polluted ledger cannot push a constant into absurdity.
    * **Accuracy**: the per-event truncation / purification rates
      implied by the workers' error accounts
      (:meth:`RunLedger.error_account_samples`) refit
      ``trunc_err_per_gate`` / ``purif_err_per_channel`` by inverting
      the exponential model at each sample's observed cap (median over
      samples, clamped to ``[1e-12, 1.0]``).

    Args:
        ledger: the sample store.
        calibration: constants to start from (default: the committed
            record via :func:`repro.exec.costmodel.load_calibration`).
        engine: engine whose cost constant the wall-time samples charge.
        predicted_point_s: the model's per-point prediction those
            samples are compared against.
        **filters: :meth:`RunLedger.query` filters restricting which
            runs contribute samples.

    Returns:
        A new constants dict (the input is never mutated).
    """
    calib = dict(calibration or load_calibration())
    key = _ENGINE_COST_KEY.get(engine or "")
    if key is not None and predicted_point_s and predicted_point_s > 0:
        dist = ledger.exec_s_distribution(**filters)
        if dist and dist.get("p50", 0.0) > 0.0:
            scale = dist["p50"] / float(predicted_point_s)
            scale = min(32.0, max(1.0 / 32.0, scale))
            calib[key] = float(calib[key]) * scale
    trunc_rates: list[float] = []
    purif_rates: list[float] = []
    chi_scale = float(calib["trunc_chi_scale"])
    kappa_scale = float(calib["purif_kappa_scale"])
    for sample in ledger.error_account_samples(**filters):
        events = int(sample.get("bond_truncations") or 0)
        err = float(sample.get("truncation_error") or 0.0)
        chi = int(sample.get("max_chi") or 0)
        if events > 0 and err > 0.0 and chi > 0:
            trunc_rates.append(err / (events * math.exp(-chi / chi_scale)))
        events = int(sample.get("kraus_truncations") or 0)
        err = float(sample.get("purification_error") or 0.0)
        kappa = int(sample.get("max_kappa") or 0)
        if events > 0 and err > 0.0 and kappa > 0:
            purif_rates.append(err / (events * math.exp(-kappa / kappa_scale)))
    if trunc_rates:
        calib["trunc_err_per_gate"] = min(
            1.0, max(1e-12, float(np.median(trunc_rates)))
        )
    if purif_rates:
        calib["purif_err_per_channel"] = min(
            1.0, max(1e-12, float(np.median(purif_rates)))
        )
    return calib
