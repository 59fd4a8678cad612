"""Cost-model backend auto-selection — ``get_backend("auto")``.

Five engines cover disjoint sweet spots: dense statevector (exact,
noiseless, ``O(D)``), dense density (exact noisy, ``O(D^2)``), batched
trajectories (sampled noisy, ``O(D·B)``), MPS (entanglement-bounded pure,
stochastic channels), LPDO (entanglement-bounded *exact* noisy).  Campaign
sweeps cross between these regimes — a noise sweep may span 4-qutrit
probes a density matrix eats for breakfast and 12-qutrit probes whose
``rho`` could never be allocated — so choosing by hand means either
leaving performance on the table or crashing.

This module picks for you: :func:`select_backend` scores every engine
with a calibrated linear cost model (seconds per amplitude·instruction,
per site·chi^3·instruction, ...) against the register's dimensions, the
circuit's noise content, the requested observables, and a memory budget,
then returns the cheapest *feasible* engine — preferring exact engines
unless sampling is explicitly allowed.  The calibration constants live in
the committed ``BENCH_exec.json`` (regenerated by
``benchmarks/bench_exec.py``); sane defaults apply when the record is
absent.

:class:`AutoBackend` wraps the choice in the standard
:class:`~repro.core.backends.SimulationBackend` protocol and is what
``get_backend("auto")`` returns.
"""

from __future__ import annotations

import functools
import inspect
import json
from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any

import numpy as np

from ..core.backends import (
    BackendResult,
    SimulationBackend,
    get_backend,
)
from ..core.exceptions import SimulationError
from ..core.rng import RngLike

if TYPE_CHECKING:
    from ..core.circuit import QuditCircuit
    from .autopilot import BackendPlan

__all__ = [
    "BackendChoice",
    "select_backend",
    "select_backend_for_circuit",
    "AutoBackend",
    "load_calibration",
    "DEFAULT_CALIBRATION",
]

#: Fallback cost constants (seconds per model unit) and budgets, used when
#: no committed ``BENCH_exec.json`` calibration is available.  Regenerate
#: the real numbers with ``PYTHONPATH=src python benchmarks/bench_exec.py``.
DEFAULT_CALIBRATION: dict[str, float] = {
    # dense engines: seconds per (amplitude · instruction)
    "statevector_amp_op_s": 3e-9,
    "density_amp2_op_s": 3e-9,
    "trajectories_amp_op_s": 5e-9,
    # tensor-network engines: seconds per (site · chi^3 · instruction),
    # LPDO additionally scaled by the Kraus-leg width kappa squared
    "mps_site_chi3_op_s": 2e-8,
    "lpdo_site_chi3_kappa2_op_s": 5e-10,
    # fixed per-instruction overhead of the tensor-network engines (SVD
    # setup, tensor reshapes) — keeps tiny registers, where the dense
    # engines run in a handful of numpy ops, from flipping to MPS/LPDO
    # on measured-constant noise
    "tn_op_overhead_s": 5e-5,
    # feasibility budget for any single resident state
    "memory_budget_bytes": float(1 << 30),
    # accuracy model (repro.exec.autopilot): per-gate truncation rate and
    # bond-cap decay scale, per-channel purification rate and Kraus-cap
    # decay scale, and the Monte-Carlo observable spread of one trajectory
    "trunc_err_per_gate": 0.02,
    "trunc_chi_scale": 6.0,
    "purif_err_per_channel": 0.01,
    "purif_kappa_scale": 3.0,
    "mc_sigma": 1.0,
}

#: Densification ceiling shared with the MPS/LPDO backends: dense
#: probability vectors are unavailable above this register dimension.
_DENSE_CAP = float(1 << 22)

#: Options interpreted by the auto layer itself (everything else is
#: forwarded verbatim to the delegate backend).
_AUTO_OPTIONS = (
    "memory_budget",
    "observables",
    "noisy",
    "allow_sampling",
    "target_error",
    "ledger",
)

_calibration_cache: dict[str, float] | None = None


def _repo_root() -> Path:
    return Path(__file__).resolve().parents[3]


def load_calibration(
    path: str | Path | None = None, refresh: bool = False
) -> dict[str, float]:
    """Calibration constants: committed ``BENCH_exec.json`` over defaults.

    Args:
        path: explicit record path (default: ``BENCH_exec.json`` at the
            repo root).
        refresh: drop the module-level memo and re-read.

    Returns:
        A dict with every :data:`DEFAULT_CALIBRATION` key present —
        committed values override defaults key-by-key, so a partial
        record never leaves a constant undefined.
    """
    global _calibration_cache
    if path is None and not refresh and _calibration_cache is not None:
        return _calibration_cache
    record = Path(path) if path is not None else _repo_root() / "BENCH_exec.json"
    merged = dict(DEFAULT_CALIBRATION)
    try:
        committed = json.loads(record.read_text()).get("calibration", {})
        for key in DEFAULT_CALIBRATION:
            if key in committed:
                merged[key] = float(committed[key])
    except (OSError, ValueError):
        pass
    if path is None:
        _calibration_cache = merged
    return merged


@dataclass(frozen=True)
class BackendChoice:
    """Outcome of one auto-selection decision.

    Attributes:
        name: the chosen registered backend.
        options: backend options the choice implies (e.g. ``max_bond``);
            caller-supplied options override these.
        reason: one-line human-readable justification.
        estimates: per-engine model record ``{name: {"feasible": bool,
            "est_seconds": float, "memory_bytes": float}}`` — the full
            scoring table, kept for reports and ``BENCH_exec.json``.
    """

    name: str
    options: dict[str, Any] = field(default_factory=dict)
    reason: str = ""
    estimates: dict[str, dict[str, float]] = field(default_factory=dict)


def _estimate(
    name: str,
    dims: tuple[int, ...],
    noisy: bool,
    n_instructions: int,
    *,
    chi: int,
    kappa: int,
    n_trajectories: int,
    calibration: dict[str, float],
) -> dict[str, float]:
    """Cost/memory model row of one engine on this workload."""
    dim = float(np.prod([float(d) for d in dims]))
    n_sites = len(dims)
    d_max = max(dims)
    ops = max(1, int(n_instructions))
    tn_overhead = calibration.get("tn_op_overhead_s", 0.0) * ops
    ok = True
    if name == "statevector":
        est = calibration["statevector_amp_op_s"] * dim * ops
        memory = 16.0 * dim
        ok = not noisy
    elif name == "density":
        est = calibration["density_amp2_op_s"] * dim * dim * ops
        memory = 16.0 * dim * dim
    elif name == "trajectories":
        # The trajectory engine chunks its working set, but at least one
        # trajectory must be resident; throughput scales with the full
        # batch.
        est = calibration["trajectories_amp_op_s"] * dim * n_trajectories * ops
        memory = 16.0 * dim * max(1, min(n_trajectories, _DENSE_CAP / dim))
    elif name == "mps":
        # On noisy circuits the MPS engine unravels channels
        # stochastically — one full evolution (and one resident state)
        # per trajectory.
        width = n_trajectories if noisy else 1
        est = (
            calibration["mps_site_chi3_op_s"] * n_sites * chi**3 * ops * width
            + tn_overhead * width
        )
        memory = 16.0 * n_sites * d_max * chi * chi * width
    else:
        # LPDO: the Kraus leg regrows to kappa * K at every channel
        # before being compressed back down, and the Gram-matrix
        # compression is quadratic in the leg width — so cost scales
        # with kappa^2, not kappa.
        est = (
            calibration["lpdo_site_chi3_kappa2_op_s"]
            * n_sites
            * chi**3
            * kappa**2
            * ops
            + tn_overhead
        )
        memory = 16.0 * n_sites * d_max * kappa * chi * chi
    return {
        "feasible": bool(ok and memory <= float(calibration["memory_budget_bytes"])),
        "est_seconds": float(est),
        "memory_bytes": float(memory),
    }


def select_backend(dims: Sequence[int], **options: Any) -> "BackendPlan":
    """Choose the cheapest engine for one workload, optionally under ε.

    Scores every engine with the calibrated cost model (and, given a
    ``target_error``, the accuracy model) and returns the cheapest
    feasible one.  The keywords are exactly those of
    :func:`repro.exec.autopilot.plan_backend`, which documents them;
    ``noisy`` is required.

    Returns:
        A :class:`~repro.exec.autopilot.BackendPlan` (a
        :class:`BackendChoice` subclass); raises
        :class:`SimulationError` when no engine is feasible — or, with
        ``target_error``, predicted to meet it — under the constraints,
        and when a keyword is not one ``plan_backend`` takes.
    """
    from .autopilot import plan_backend

    unknown = sorted(set(options).difference(_plan_keywords()))
    if unknown:
        raise SimulationError(
            f"select_backend got unknown keyword(s) {unknown}; "
            f"valid keywords: {', '.join(_plan_keywords())}"
        )
    return plan_backend(dims, **options)


@functools.cache
def _plan_keywords() -> tuple[str, ...]:
    """The keywords :func:`select_backend` forwards to ``plan_backend``."""
    from .autopilot import plan_backend

    return tuple(inspect.signature(plan_backend).parameters)[1:]


def _structure(circuit: QuditCircuit) -> tuple[int, int]:
    """The accuracy model's circuit inputs: two-site gates and channels.

    Two-site (and wider) unitaries drive entanglement growth; channel
    and reset instructions drive purification growth.
    """
    n_two_site = n_channels = 0
    for ins in circuit:
        if ins.kind in ("channel", "reset"):
            n_channels += 1
        elif ins.kind == "unitary" and len(ins.qudits) >= 2:
            n_two_site += 1
    return n_two_site, n_channels


def select_backend_for_circuit(
    circuit: QuditCircuit, **options: Any
) -> "BackendPlan":
    """:func:`select_backend` with structure read off a circuit.

    Beyond noise content and length, the circuit also yields the
    autopilot's accuracy-model inputs (:func:`_structure`).
    """
    n_two_site, n_channels = _structure(circuit)
    options.setdefault("noisy", n_channels > 0)
    options.setdefault("n_instructions", len(circuit))
    options.setdefault("n_two_site", n_two_site)
    options.setdefault("n_channels", n_channels)
    return select_backend(circuit.dims, **options)


class _PreparedResult(BackendResult):
    """A basis state awaiting its first circuit (no engine chosen yet).

    ``AutoBackend.prepare`` cannot commit to an engine before it has seen
    a circuit (the choice depends on the circuit's noise content), so it
    returns this symbolic placeholder instead of materialising anything —
    crucially, never a dense vector, so ``prepare`` works at register
    sizes only tensor networks can hold.  The observable surface is exact
    for a computational basis state; on the first ``run`` the auto layer
    converts it into the delegate engine's own prepared state.
    """

    def __init__(
        self,
        dims: Sequence[int],
        digits: Sequence[int],
        options: dict[str, Any],
    ) -> None:
        self.dims = tuple(dims)
        self.digits = tuple(int(k) for k in digits)
        self.options = dict(options)

    def expectation(
        self, operator: np.ndarray, targets: int | Sequence[int] | None = None
    ) -> float:
        operator = np.asarray(operator)
        if targets is None:
            targets = tuple(range(len(self.dims)))
        elif isinstance(targets, (int, np.integer)):
            targets = (int(targets),)
        index = 0
        for t in targets:
            index = index * self.dims[t] + self.digits[t]
        return float(np.real(operator[index, index]))

    def sample(
        self, shots: int, rng: RngLike = None
    ) -> dict[tuple[int, ...], int]:
        return {self.digits: int(shots)}

    def probabilities_of(self, digits: Sequence[int]) -> float:
        return 1.0 if tuple(int(k) for k in digits) == self.digits else 0.0

    def probabilities(self) -> np.ndarray:
        dim = int(np.prod(self.dims))
        if dim > _DENSE_CAP:
            raise SimulationError(f"register dimension {dim} too large to densify")
        out = np.zeros(dim)
        index = 0
        for d, k in zip(self.dims, self.digits):
            index = index * d + k
        out[index] = 1.0
        return out


class AutoBackend(SimulationBackend):
    """Cost-model dispatching backend (registered as ``"auto"``).

    Options understood by the auto layer (all others are forwarded to the
    chosen engine): ``memory_budget`` (bytes), ``observables``
    (``"local"``/``"dense"``), ``allow_sampling`` (permit Monte-Carlo
    engines on noisy circuits), ``noisy`` (override the circuit sniff —
    rarely needed), ``target_error`` (accuracy contract: plan engine *and*
    caps to meet a total error budget — see
    :func:`repro.exec.autopilot.plan_backend`), ``ledger`` (a
    :class:`~repro.obs.ledger.RunLedger` the plan recalibrates against).
    Selection is memoised per (dims, noise content, circuit length,
    structure counts, options), so stepwise drivers pay for one decision,
    not one per step.

    Example:
        >>> backend = get_backend("auto", memory_budget=2**28)
        >>> result = backend.run(noisy_circuit)   # picks density or lpdo
        >>> backend.last_choice.name
        'lpdo'
    """

    name = "auto"

    def __init__(self, **defaults: Any) -> None:
        super().__init__(**defaults)
        self._memo: dict[Any, BackendChoice] = {}
        #: The most recent :class:`BackendChoice` (for reporting/tests).
        self.last_choice: BackendChoice | None = None

    # -- selection ----------------------------------------------------
    def _split_options(
        self, options: dict[str, Any]
    ) -> tuple[dict[str, Any], dict[str, Any]]:
        auto = {k: options.pop(k) for k in list(options) if k in _AUTO_OPTIONS}
        return auto, options

    def _choose(
        self,
        dims: Sequence[int],
        noisy: bool,
        n_instructions: int,
        auto: dict[str, Any],
        forward: dict[str, Any],
        n_two_site: int | None = None,
        n_channels: int | None = None,
    ) -> BackendChoice:
        key = (
            tuple(dims),
            bool(noisy),
            int(n_instructions),
            (n_two_site, n_channels),
            tuple(sorted(auto.items())),
            tuple(
                sorted(
                    (k, v)
                    for k, v in forward.items()
                    if k in ("max_bond", "max_kraus", "n_trajectories")
                )
            ),
        )
        choice = self._memo.get(key)
        if choice is None:
            choice = select_backend(
                dims,
                noisy=noisy,
                n_instructions=n_instructions,
                memory_budget=auto.get("memory_budget"),
                observables=auto.get("observables", "local"),
                allow_sampling=auto.get("allow_sampling", False),
                n_trajectories=forward.get("n_trajectories", 128),
                max_bond=forward.get("max_bond"),
                max_kraus=forward.get("max_kraus"),
                target_error=auto.get("target_error"),
                ledger=auto.get("ledger"),
                n_two_site=n_two_site,
                n_channels=n_channels,
            )
            self._memo[key] = choice
        self.last_choice = choice
        return choice

    # -- protocol ------------------------------------------------------
    def _run(
        self, circuit: QuditCircuit, initial: Any, **options: Any
    ) -> BackendResult:
        auto, forward = self._split_options(options)
        contract = auto.get("target_error") is not None
        structure = _structure(circuit) if contract else None
        noisy = auto.get("noisy")
        if noisy is None:
            noisy = structure[1] > 0 if structure else circuit.is_noisy()
        n_two_site, n_channels = structure or (None, None)
        choice = self._choose(
            circuit.dims, noisy, len(circuit), auto, forward, n_two_site, n_channels
        )

        def planned(given: dict[str, Any]) -> dict[str, Any]:
            # Under an accuracy contract the plan's caps are the point:
            # explicit-None caps passed alongside the target, at run or
            # prepare time, must not clobber the planned values.
            if not contract:
                return given
            return {
                k: v
                for k, v in given.items()
                if v is not None or k not in choice.options
            }

        forward = planned(forward)
        delegate = get_backend(choice.name, **{**choice.options, **forward})
        if isinstance(initial, _PreparedResult):
            # Honour the options given at prepare() time (rng seeds,
            # n_trajectories, ...) — stochastic delegates seed their
            # stream in prepare and continue it across stepwise runs.
            prepare_options = planned(
                {k: v for k, v in initial.options.items() if k not in _AUTO_OPTIONS}
            )
            initial = delegate.prepare(initial.dims, initial.digits, **prepare_options)
        elif initial is not None and isinstance(initial, BackendResult):
            initial = self._adapt(initial, choice.name)
        return delegate.run(circuit, initial=initial)

    def _prepare(
        self, dims: tuple[int, ...], digits: tuple[int, ...], **options: Any
    ) -> BackendResult:
        # No circuit yet, so no engine: hand back a symbolic basis state
        # that the first run() call materialises on the chosen engine.
        return _PreparedResult(dims, digits, options)

    @staticmethod
    def _adapt(initial: BackendResult, target: str) -> Any:
        """Pass a matching result through; unwrap convertible ones."""
        from ..core.backends import (
            DensityResult,
            LPDOResult,
            MPSResult,
            StatevectorResult,
            TrajectoryResult,
        )

        expected = {
            "statevector": StatevectorResult,
            "density": DensityResult,
            "trajectories": TrajectoryResult,
            "mps": MPSResult,
            "lpdo": LPDOResult,
        }[target]
        if isinstance(initial, expected):
            return initial
        if isinstance(initial, StatevectorResult):
            return initial.state
        if isinstance(initial, MPSResult) and len(initial.states) == 1:
            return initial.states[0]
        if isinstance(initial, (DensityResult, LPDOResult)):
            return initial.state
        raise SimulationError(
            f"auto backend cannot hand a {type(initial).__name__} to the "
            f"{target!r} engine"
        )
