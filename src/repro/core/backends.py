"""Unified simulation-backend registry and dispatch layer.

Workload packages (:mod:`repro.sqed`, :mod:`repro.qaoa`,
:mod:`repro.reservoir`) historically hard-coded their simulator — density
matrices here, batched trajectories there — so adding a new engine meant
touching every study.  This module gives every simulator one face:

    >>> backend = get_backend("mps", max_bond=32)
    >>> result = backend.run(circuit, n_trajectories=16, rng=7)
    >>> result.expectation(op, targets=(0, 3))
    >>> result.sample(100, rng=8)

Backends implement ``run(circuit, initial=None, **options) -> BackendResult``
and ``prepare(dims, digits=None, **options)`` (an unevolved state usable as
``initial``, which is how the stepwise Trotter observable recorder
carries one state through many circuit segments).
Results expose ``expectation`` / ``sample`` / ``probabilities_of`` (plus a
dense ``probabilities`` for small registers), so a workload written against
the protocol runs unchanged on any registered engine.

Built-in names: ``"statevector"`` (exact, noiseless, O(D)), ``"density"``
(exact noisy, O(D^2)), ``"trajectories"`` (stochastic noisy, O(D·B)),
``"mps"`` (entanglement-bounded, O(n·chi^2·d) — reaches 15+ qutrit
registers, but channels are unravelled stochastically), ``"lpdo"``
(locally-purified density operator: *exact* noisy evolution at
entanglement-bounded cost, the only engine that is both scalable and free
of trajectory sampling noise).  Register additional engines with
:func:`register_backend`.
"""

from __future__ import annotations

import abc
from collections.abc import Sequence
from typing import Any

import numpy as np

from .circuit import QuditCircuit
from .density import DensityMatrix
from .dims import digits_to_index, index_to_digits, validate_dims
from .exceptions import SimulationError
from .lpdo import LPDOState
from .mps import MPSState
from .rng import RngLike, ensure_rng, sanitize_probabilities
from .statevector import Statevector, apply_matrix
from .trajectories import TrajectorySimulator

__all__ = [
    "BackendResult",
    "SimulationBackend",
    "StatevectorBackend",
    "DensityMatrixBackend",
    "TrajectoryBackend",
    "MPSBackend",
    "LPDOBackend",
    "register_backend",
    "get_backend",
    "available_backends",
]


class BackendResult(abc.ABC):
    """State produced by a backend run — the common observable surface."""

    #: Register dimensions of the underlying state.
    dims: tuple[int, ...]

    @abc.abstractmethod
    def expectation(
        self, operator: np.ndarray, targets: int | Sequence[int] | None = None
    ) -> float:
        """Real part of ``<O>`` for a local (or ``targets=None`` global) operator."""

    @abc.abstractmethod
    def sample(
        self, shots: int, rng: np.random.Generator | int | None = None
    ) -> dict[tuple[int, ...], int]:
        """Draw computational-basis outcomes as a digits -> count mapping."""

    @abc.abstractmethod
    def probabilities_of(self, digits: Sequence[int]) -> float:
        """Probability of one specific basis outcome."""

    @abc.abstractmethod
    def probabilities(self) -> np.ndarray:
        """Dense probability vector (raises on registers too large to hold one)."""


class SimulationBackend(abc.ABC):
    """A named simulation engine with option defaults.

    Args:
        **defaults: option defaults merged (and overridable) per
            :meth:`run` / :meth:`prepare` call — e.g.
            ``get_backend("mps", max_bond=64)``.
    """

    name: str = ""

    def __init__(self, **defaults: Any) -> None:
        self._defaults = dict(defaults)

    def run(
        self, circuit: QuditCircuit, initial: Any = None, **options: Any
    ) -> BackendResult:
        """Evolve ``initial`` (or the all-|0> state) through a circuit.

        Args:
            circuit: circuit to execute.
            initial: ``None``, a domain state (``Statevector``,
                ``DensityMatrix``, ``MPSState``) or a :class:`BackendResult`
                previously produced by this backend (stepwise evolution).
                Stochastic backends continue a result's random stream —
                seed the stream once via :meth:`prepare` (or the first
                ``run``); a per-call ``rng`` is ignored on continuation so
                stepwise loops never replay identical draws per step.
            **options: backend-specific knobs overriding the defaults.
        """
        merged = dict(self._defaults)
        merged.update(options)
        return self._run(circuit, initial, **merged)

    def prepare(
        self,
        dims: Sequence[int],
        digits: Sequence[int] | None = None,
        **options: Any,
    ) -> BackendResult:
        """An unevolved basis-state result, usable as ``initial`` for :meth:`run`."""
        merged = dict(self._defaults)
        merged.update(options)
        dims = validate_dims(dims)
        if digits is None:
            digits = [0] * len(dims)
        return self._prepare(dims, tuple(int(k) for k in digits), **merged)

    @abc.abstractmethod
    def _run(
        self, circuit: QuditCircuit, initial: Any, **options: Any
    ) -> BackendResult: ...

    @abc.abstractmethod
    def _prepare(
        self, dims: tuple[int, ...], digits: tuple[int, ...], **options: Any
    ) -> BackendResult: ...


# ----------------------------------------------------------------------
# statevector
# ----------------------------------------------------------------------
class StatevectorResult(BackendResult):
    """Wraps a final :class:`Statevector`."""

    def __init__(self, state: Statevector) -> None:
        self.state = state
        self.dims = state.dims

    def expectation(
        self, operator: np.ndarray, targets: int | Sequence[int] | None = None
    ) -> float:
        return float(np.real(self.state.expectation(operator, targets)))

    def sample(
        self, shots: int, rng: RngLike = None
    ) -> dict[tuple[int, ...], int]:
        return self.state.sample(shots, rng=rng)

    def probabilities_of(self, digits: Sequence[int]) -> float:
        return float(self.probabilities()[digits_to_index(digits, self.dims)])

    def probabilities(self) -> np.ndarray:
        probs = self.state.probabilities()
        return probs / probs.sum()


class StatevectorBackend(SimulationBackend):
    """Exact dense pure-state evolution (noiseless circuits only)."""

    name = "statevector"

    def _run(
        self, circuit: QuditCircuit, initial: Any, **options: Any
    ) -> StatevectorResult:
        if isinstance(initial, StatevectorResult):
            initial = initial.state
        state = Statevector.zero(circuit.dims) if initial is None else initial
        return StatevectorResult(state.evolve(circuit))

    def _prepare(
        self, dims: tuple[int, ...], digits: tuple[int, ...], **options: Any
    ) -> StatevectorResult:
        return StatevectorResult(Statevector.basis(dims, digits))


# ----------------------------------------------------------------------
# density matrix
# ----------------------------------------------------------------------
class DensityResult(BackendResult):
    """Wraps a final :class:`DensityMatrix`."""

    def __init__(self, state: DensityMatrix) -> None:
        self.state = state
        self.dims = state.dims
        self._clipped_trace: float | None = None

    def expectation(
        self, operator: np.ndarray, targets: int | Sequence[int] | None = None
    ) -> float:
        return float(np.real(self.state.expectation(operator, targets)))

    def sample(
        self, shots: int, rng: RngLike = None
    ) -> dict[tuple[int, ...], int]:
        return self.state.sample(shots, rng=ensure_rng(rng))

    def probabilities_of(self, digits: Sequence[int]) -> float:
        # Normalised identically to probabilities(): clip the entry and
        # divide by the *clipped* diagonal sum, so rounding drift (or a
        # slightly unphysical rho) cannot make the two surfaces disagree.
        # The normaliser is call-invariant and cached once per result.
        raw = self.state.probability_of(digits)
        if self._clipped_trace is None:
            self._clipped_trace = float(self.state.probabilities().sum())
        return float(max(raw, 0.0)) / self._clipped_trace

    def probabilities(self) -> np.ndarray:
        probs = self.state.probabilities()
        return probs / probs.sum()


class DensityMatrixBackend(SimulationBackend):
    """Exact noisy evolution; memory is O(D^2), so small registers only."""

    name = "density"

    def _run(
        self, circuit: QuditCircuit, initial: Any, **options: Any
    ) -> DensityResult:
        if isinstance(initial, DensityResult):
            initial = initial.state
        elif isinstance(initial, Statevector):
            initial = DensityMatrix.from_statevector(initial)
        state = DensityMatrix.zero(circuit.dims) if initial is None else initial
        return DensityResult(state.evolve(circuit))

    def _prepare(
        self, dims: tuple[int, ...], digits: tuple[int, ...], **options: Any
    ) -> DensityResult:
        return DensityResult(DensityMatrix.basis(dims, digits))


# ----------------------------------------------------------------------
# batched trajectories
# ----------------------------------------------------------------------
class TrajectoryResult(BackendResult):
    """Holds the final batch of stochastic pure-state trajectories."""

    def __init__(
        self, batch: np.ndarray, dims: Sequence[int], rng: np.random.Generator
    ) -> None:
        self.batch = batch  # (dim, n_trajectories)
        self.dims = tuple(dims)
        self._rng = rng
        self._mean_norm_sq: float | None = None

    @property
    def n_trajectories(self) -> int:
        return self.batch.shape[1]

    def expectation(
        self, operator: np.ndarray, targets: int | Sequence[int] | None = None
    ) -> float:
        operator = np.asarray(operator, dtype=complex)
        if targets is None:
            targets = tuple(range(len(self.dims)))
        elif isinstance(targets, (int, np.integer)):
            targets = (int(targets),)
        tensor = self.batch.reshape(self.dims + (self.n_trajectories,))
        transformed = apply_matrix(tensor, operator, self.dims, targets)
        flat = transformed.reshape(self.batch.shape)
        values = np.real(np.einsum("ib,ib->b", self.batch.conj(), flat))
        return float(values.mean())

    def sample(
        self, shots: int, rng: RngLike = None
    ) -> dict[tuple[int, ...], int]:
        gen = ensure_rng(rng if rng is not None else self._rng)
        probs = sanitize_probabilities(self.probabilities())
        outcomes = gen.multinomial(shots, probs)
        counts: dict[tuple[int, ...], int] = {}
        for index in np.nonzero(outcomes)[0]:
            counts[index_to_digits(int(index), self.dims)] = int(outcomes[index])
        return counts

    def probabilities_of(self, digits: Sequence[int]) -> float:
        # Normalised identically to probabilities(): trajectory norms drift
        # under non-trace-preserving rounding, so the raw averaged weight
        # and the renormalised dense vector would otherwise disagree.  The
        # normalisation is call-invariant, so it is computed once per
        # result; each query then reads a single row of the batch.
        index = digits_to_index(digits, self.dims)
        if self._mean_norm_sq is None:
            self._mean_norm_sq = float(
                (np.abs(self.batch) ** 2).sum(axis=0).mean()
            )
        row = float((np.abs(self.batch[index]) ** 2).mean())
        return row / self._mean_norm_sq

    def probabilities(self) -> np.ndarray:
        probs = (np.abs(self.batch) ** 2).mean(axis=1)
        return probs / probs.sum()


class TrajectoryBackend(SimulationBackend):
    """Stochastic Kraus unravelling over a batched trajectory tensor.

    Options: ``n_trajectories`` (default 128), ``rng`` (generator / seed),
    ``max_batch`` (memory chunking cap forwarded to the simulator).
    """

    name = "trajectories"

    def _run(
        self,
        circuit: QuditCircuit,
        initial: Any,
        n_trajectories: int = 128,
        rng: RngLike = None,
        max_batch: int | None = None,
        **options: Any,
    ) -> TrajectoryResult:
        if isinstance(initial, TrajectoryResult):
            # Stepwise continuation stays on the result's generator: honouring
            # a per-call integer seed here would re-seed (and identically
            # replay) the jump draws at every step of a stepwise loop.
            gen = initial._rng
            batch = initial.batch
        else:
            gen = ensure_rng(rng)
            if initial is None:
                initial = Statevector.zero(circuit.dims)
            if n_trajectories < 1:
                raise SimulationError("need at least one trajectory")
            batch = np.ascontiguousarray(
                np.broadcast_to(
                    initial.vector[:, None], (initial.dim, n_trajectories)
                )
            )
        simulator = TrajectorySimulator(circuit, seed=gen, max_batch=max_batch)
        tensor = batch.reshape(circuit.dims + (batch.shape[1],))
        final = simulator.evolve_states(tensor).reshape(batch.shape)
        return TrajectoryResult(final, circuit.dims, gen)

    def _prepare(
        self,
        dims: tuple[int, ...],
        digits: tuple[int, ...],
        n_trajectories: int = 128,
        rng: RngLike = None,
        **options: Any,
    ) -> TrajectoryResult:
        gen = ensure_rng(rng)
        state = Statevector.basis(dims, digits)
        batch = np.ascontiguousarray(
            np.broadcast_to(state.vector[:, None], (state.dim, n_trajectories))
        )
        return TrajectoryResult(batch, dims, gen)


# ----------------------------------------------------------------------
# matrix product state
# ----------------------------------------------------------------------
class MPSResult(BackendResult):
    """Holds one or more final MPS trajectories."""

    def __init__(self, states: list[MPSState], rng: np.random.Generator) -> None:
        if not states:
            raise SimulationError("MPS result needs at least one state")
        self.states = states
        self.dims = states[0].dims
        self._rng = rng

    @property
    def truncation_error(self) -> float:
        """Largest cumulative truncation error over the trajectories."""
        return max(state.truncation_error for state in self.states)

    def expectation(
        self, operator: np.ndarray, targets: int | Sequence[int] | None = None
    ) -> float:
        values = [
            float(np.real(state.expectation(operator, targets)))
            for state in self.states
        ]
        return float(np.mean(values))

    def sample(
        self, shots: int, rng: RngLike = None
    ) -> dict[tuple[int, ...], int]:
        gen = ensure_rng(rng if rng is not None else self._rng)
        allocation = gen.multinomial(
            shots, np.full(len(self.states), 1.0 / len(self.states))
        )
        counts: dict[tuple[int, ...], int] = {}
        for state, share in zip(self.states, allocation):
            if share == 0:
                continue
            for digits, count in state.sample(int(share), rng=gen).items():
                counts[digits] = counts.get(digits, 0) + count
        return counts

    def probabilities_of(self, digits: Sequence[int]) -> float:
        return float(
            np.mean([state.probability_of(digits) for state in self.states])
        )

    def probabilities(self) -> np.ndarray:
        total = self.states[0].probabilities()
        for state in self.states[1:]:
            total = total + state.probabilities()
        return total / len(self.states)


class MPSBackend(SimulationBackend):
    """Matrix-product-state evolution with bounded bond dimension.

    Options: ``max_bond`` (chi cap; ``None`` = exact), ``svd_tol``,
    ``n_trajectories`` (stochastic unravelling width for noisy circuits,
    default 1), ``rng`` (generator / seed).
    """

    name = "mps"

    def _run(
        self,
        circuit: QuditCircuit,
        initial: Any,
        max_bond: int | None = None,
        svd_tol: float = 1e-12,
        n_trajectories: int = 1,
        rng: RngLike = None,
        **options: Any,
    ) -> MPSResult:
        if n_trajectories < 1:
            raise SimulationError("need at least one trajectory")
        stochastic = circuit.is_noisy()
        if isinstance(initial, MPSResult):
            # Stepwise continuation stays on the result's generator (a
            # per-call integer seed would identically replay each step).
            gen = initial._rng
            states = initial.states
            if stochastic and n_trajectories > len(states):
                # Widen the ensemble by replication; copies diverge through
                # subsequent stochastic draws from the shared generator.
                states = [
                    states[i % len(states)] for i in range(n_trajectories)
                ]
        else:
            gen = ensure_rng(rng)
            if initial is None:
                base = MPSState.zero(
                    circuit.dims, max_bond=max_bond, svd_tol=svd_tol
                )
            elif isinstance(initial, MPSState):
                base = initial
            else:  # densify-from-Statevector escape hatch (small registers)
                base = MPSState.from_statevector(
                    initial, max_bond=max_bond, svd_tol=svd_tol
                )
            states = [base] * (n_trajectories if stochastic else 1)
        return MPSResult(
            [state.evolve(circuit, rng=gen) for state in states], gen
        )

    def _prepare(
        self,
        dims: tuple[int, ...],
        digits: tuple[int, ...],
        max_bond: int | None = None,
        svd_tol: float = 1e-12,
        n_trajectories: int = 1,
        rng: RngLike = None,
        **options: Any,
    ) -> MPSResult:
        gen = ensure_rng(rng)
        base = MPSState.basis(dims, digits, max_bond=max_bond, svd_tol=svd_tol)
        return MPSResult([base] * max(1, int(n_trajectories)), gen)


# ----------------------------------------------------------------------
# locally-purified density operator
# ----------------------------------------------------------------------
class LPDOResult(BackendResult):
    """Wraps a final :class:`LPDOState` (exact mixed state, no trajectories)."""

    def __init__(self, state: LPDOState) -> None:
        self.state = state
        self.dims = state.dims

    @property
    def truncation_error(self) -> float:
        """Cumulative trace weight discarded by bond truncations."""
        return self.state.truncation_error

    @property
    def purification_error(self) -> float:
        """Cumulative trace weight discarded by Kraus-leg truncations."""
        return self.state.purification_error

    def expectation(
        self, operator: np.ndarray, targets: int | Sequence[int] | None = None
    ) -> float:
        return float(np.real(self.state.expectation(operator, targets)))

    def sample(
        self, shots: int, rng: RngLike = None
    ) -> dict[tuple[int, ...], int]:
        return self.state.sample(shots, rng=rng)

    def probabilities_of(self, digits: Sequence[int]) -> float:
        return float(self.state.probabilities_of(digits))

    def probabilities(self) -> np.ndarray:
        return self.state.probabilities()


class LPDOBackend(SimulationBackend):
    """Exact noisy evolution in locally-purified density-MPO form.

    Channels grow the per-site Kraus leg instead of being sampled, so one
    run *is* the full mixed-state answer — no trajectory averaging, no
    Monte-Carlo error — at memory bounded by ``max_bond`` / ``max_kraus``
    rather than ``D^2``.

    Options: ``max_bond`` (chi cap; ``None`` = exact), ``max_kraus``
    (Kraus-leg cap; ``None`` = exact-rank lossless recompression only),
    ``svd_tol``.
    """

    name = "lpdo"

    #: Distinguishes "option not supplied" from an explicit ``None`` so a
    #: cap carried in by the initial state is only overridden on request.
    _UNSET: Any = object()

    def _run(
        self,
        circuit: QuditCircuit,
        initial: Any,
        max_bond: Any = _UNSET,
        max_kraus: Any = _UNSET,
        svd_tol: Any = _UNSET,
        **options: Any,
    ) -> LPDOResult:
        unset = LPDOBackend._UNSET
        bond = None if max_bond is unset else max_bond
        kraus = None if max_kraus is unset else max_kraus
        tol = 1e-12 if svd_tol is unset else svd_tol
        if isinstance(initial, LPDOResult):
            initial = initial.state
        if initial is None:
            state = LPDOState.zero(
                circuit.dims, max_bond=bond, max_kraus=kraus, svd_tol=tol
            )
        elif isinstance(initial, LPDOState):
            state = initial
        elif isinstance(initial, Statevector):
            state = LPDOState.from_statevector(
                initial, max_bond=bond, max_kraus=kraus, svd_tol=tol
            )
        elif isinstance(initial, MPSState):
            # from_mps preserves the MPS's caps, svd_tol, and accumulated
            # truncation_error; explicit per-call options still override.
            state = LPDOState.from_mps(initial, max_kraus=kraus)
            if max_bond is not unset:
                state.max_bond = bond
            if svd_tol is not unset:
                state.svd_tol = tol
        else:
            raise SimulationError(
                f"lpdo backend cannot start from {type(initial).__name__}"
            )
        return LPDOResult(state.evolve(circuit))

    def _prepare(
        self,
        dims: tuple[int, ...],
        digits: tuple[int, ...],
        max_bond: Any = _UNSET,
        max_kraus: Any = _UNSET,
        svd_tol: Any = _UNSET,
        **options: Any,
    ) -> LPDOResult:
        unset = LPDOBackend._UNSET
        return LPDOResult(
            LPDOState.basis(
                dims,
                digits,
                max_bond=None if max_bond is unset else max_bond,
                max_kraus=None if max_kraus is unset else max_kraus,
                svd_tol=1e-12 if svd_tol is unset else svd_tol,
            )
        )


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
_BACKENDS: dict[str, type[SimulationBackend]] = {}


def register_backend(
    name: str, backend_cls: type[SimulationBackend], overwrite: bool = False
) -> None:
    """Register a backend class under a dispatch name.

    Args:
        name: the ``method=`` string workloads will pass.
        backend_cls: a :class:`SimulationBackend` subclass.
        overwrite: allow replacing an existing registration.
    """
    if name == "auto":
        raise SimulationError("'auto' is reserved for the cost-model dispatcher")
    if not overwrite and name in _BACKENDS:
        raise SimulationError(f"backend {name!r} is already registered")
    if not (isinstance(backend_cls, type) and issubclass(backend_cls, SimulationBackend)):
        raise SimulationError("backend_cls must subclass SimulationBackend")
    _BACKENDS[name] = backend_cls


def get_backend(name: str, **defaults: Any) -> SimulationBackend:
    """Instantiate a registered backend with option defaults.

    ``"auto"`` resolves to the cost-model dispatcher
    (:class:`repro.exec.costmodel.AutoBackend`), which picks one of the
    registered engines per circuit from register dims, noise content,
    requested observables, and the memory budget.  The import is lazy so
    the core package never depends on the execution layer at import time.

    Args:
        name: one of :func:`available_backends`.
        **defaults: options applied to every ``run`` / ``prepare`` call
            unless overridden per call.
    """
    if name == "auto":
        from ..exec.costmodel import AutoBackend  # lazy: avoids a cycle

        return AutoBackend(**defaults)
    try:
        backend_cls = _BACKENDS[name]
    except KeyError:
        raise SimulationError(
            f"unknown backend {name!r}; available: {', '.join(available_backends())}"
        ) from None
    return backend_cls(**defaults)


def available_backends() -> tuple[str, ...]:
    """Sorted names of all registered backends (plus the ``auto`` dispatcher)."""
    return tuple(sorted([*_BACKENDS, "auto"]))


register_backend("statevector", StatevectorBackend)
register_backend("density", DensityMatrixBackend)
register_backend("trajectories", TrajectoryBackend)
register_backend("mps", MPSBackend)
register_backend("lpdo", LPDOBackend)
