"""Trotterised real-time evolution of the rotor models.

Builds first- and second-order product-formula circuits from any object
exposing ``terms()`` (both :class:`~repro.sqed.rotor.RotorChain` and
:class:`~repro.sqed.rotor2d.RotorLadder2D`), and provides the one stepwise
observable driver, :func:`evolve_observable_trajectory`, that both the
encoding noise study and the mass-gap pipeline run on any registered
backend (:mod:`repro.core.backends`).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np
from scipy.linalg import expm

from ..core.backends import BackendResult, SimulationBackend
from ..core.circuit import QuditCircuit
from ..core.exceptions import SimulationError

__all__ = [
    "trotter_step_from_terms",
    "second_order_step_from_terms",
    "trotter_circuit",
    "evolve_observable_trajectory",
    "exact_observable_trajectory",
]


def trotter_step_from_terms(model, dt: float) -> QuditCircuit:
    """First-order step ``prod_k exp(-i dt H_k)`` from a model's terms."""
    qc = QuditCircuit(model.dims, name="trotter-step")
    for term in model.terms():
        qc.unitary(expm(-1j * dt * term.operator), term.sites, name=term.label, dt=dt)
    return qc


def second_order_step_from_terms(model, dt: float) -> QuditCircuit:
    """Symmetric (Strang) step: half-steps forward then backward order."""
    qc = QuditCircuit(model.dims, name="trotter2-step")
    terms = model.terms()
    for term in terms:
        qc.unitary(
            expm(-0.5j * dt * term.operator), term.sites, name=term.label, dt=dt / 2
        )
    for term in reversed(terms):
        qc.unitary(
            expm(-0.5j * dt * term.operator), term.sites, name=term.label, dt=dt / 2
        )
    return qc


def trotter_circuit(model, t_total: float, n_steps: int, order: int = 1) -> QuditCircuit:
    """Full evolution circuit for time ``t_total`` in ``n_steps`` steps.

    Args:
        model: object with ``dims`` and ``terms()``.
        t_total: total evolution time.
        n_steps: Trotter steps.
        order: 1 (first order) or 2 (Strang splitting).

    Raises:
        SimulationError: for invalid step counts or orders.
    """
    if n_steps < 1:
        raise SimulationError("need at least one Trotter step")
    dt = t_total / n_steps
    if order == 1:
        step = trotter_step_from_terms(model, dt)
    elif order == 2:
        step = second_order_step_from_terms(model, dt)
    else:
        raise SimulationError(f"unsupported Trotter order {order}")
    return step.repeated(n_steps)


def evolve_observable_trajectory(
    backend: SimulationBackend,
    initial: BackendResult,
    step_circuit: QuditCircuit,
    n_steps: int,
    operator: np.ndarray,
    targets: int | Sequence[int] | None = None,
) -> np.ndarray:
    """Apply a step circuit repeatedly, recording ``<O>`` after each step.

    One driver for every registered engine: the state stays the engine's
    own :class:`~repro.core.backends.BackendResult` between steps, so a
    stochastic engine continues its random stream and a tensor-network
    engine never densifies.  A *local* ``(operator, targets)`` pair is the
    only observable form that scales past ~9 qutrits; ``targets=None``
    takes ``operator`` over the full register.

    Args:
        backend: a registered engine (:func:`~repro.core.backends.get_backend`).
        initial: starting state, e.g. from ``backend.prepare(...)``.
        step_circuit: one (possibly noise-instrumented) Trotter step.
        n_steps: repetitions.
        operator: observable over the ``targets`` wires.
        targets: wire(s) the operator acts on (``None`` = all of them).

    Returns:
        Array of ``n_steps + 1`` real expectation values (index 0 is t=0).
    """
    if n_steps < 1:
        raise SimulationError("need at least one step")
    values = np.empty(n_steps + 1)
    state = initial
    values[0] = state.expectation(operator, targets)
    for step in range(n_steps):
        state = backend.run(step_circuit, initial=state)
        values[step + 1] = state.expectation(operator, targets)
    return values


def exact_observable_trajectory(
    hamiltonian: np.ndarray,
    observable: np.ndarray,
    initial_vector: np.ndarray,
    times: Sequence[float],
) -> np.ndarray:
    """Reference trajectory ``<psi(t)|O|psi(t)>`` by dense exponentiation.

    Diagonalises once and reuses the eigenbasis for every time point.
    """
    eigvals, eigvecs = np.linalg.eigh(hamiltonian)
    psi0 = eigvecs.conj().T @ np.asarray(initial_vector, dtype=complex)
    obs = eigvecs.conj().T @ observable @ eigvecs
    out = np.empty(len(times))
    for idx, t in enumerate(times):
        phase = np.exp(-1j * eigvals * t)
        psi_t = phase * psi0
        out[idx] = float(np.real(psi_t.conj() @ obs @ psi_t))
    return out
