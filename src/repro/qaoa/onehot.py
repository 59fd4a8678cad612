"""Qubit one-hot baseline: constraint violation under noise.

Reproduces the failure mode the paper uses to motivate qudits (§II.B):
on qubit hardware, k-coloring needs ``N * d`` qubits with a one-hot
constraint per node; XY mixers preserve the constraint *only in the
noiseless limit* — under noise "symmetries upholding constraints are
quickly destroyed ... and the probability of obtaining valid solutions
decreases exponentially" (ref [18]).  The qudit encoding is immune by
construction: every basis state *is* a valid assignment.

This module builds the one-hot QAOA ansatz (XY ring mixers within each
node's color block, ZZ phase separation between matching colors of
adjacent nodes), injects depolarising noise, and measures the probability
that a sample still satisfies every one-hot constraint.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from ..core.channels import depolarizing
from ..core.circuit import QuditCircuit
from ..core.exceptions import DimensionError
from ..core.trajectories import TrajectorySimulator
from .coloring import ColoringProblem

__all__ = ["OneHotEncoding", "validity_probability", "ValidityComparison", "compare_validity"]

_PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
_PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_PAULI_Z = np.diag([1.0, -1.0]).astype(complex)


class OneHotEncoding:
    """One-hot qubit encoding of a coloring problem.

    Node ``v`` owns qubits ``v*d .. v*d + d - 1``; color ``c`` is the
    basis state with qubit ``v*d + c`` set.

    Args:
        problem: coloring instance (keep ``N * d`` <= ~14 for simulability).
    """

    def __init__(self, problem: ColoringProblem) -> None:
        self.problem = problem
        self.n_qubits = problem.n_nodes * problem.n_colors
        if self.n_qubits > 16:
            raise DimensionError(
                f"{self.n_qubits} qubits exceed the simulable baseline size"
            )

    @property
    def dims(self) -> tuple[int, ...]:
        """All-qubit register dimensions."""
        return (2,) * self.n_qubits

    def qubit_of(self, node: int, color: int) -> int:
        """Wire index of one (node, color) flag qubit."""
        d = self.problem.n_colors
        if not (0 <= node < self.problem.n_nodes and 0 <= color < d):
            raise DimensionError(f"bad (node, color) = ({node}, {color})")
        return node * d + color

    # ------------------------------------------------------------------
    # circuit construction
    # ------------------------------------------------------------------
    def initial_state_circuit(self) -> QuditCircuit:
        """Product of valid states: color 0 flagged on every node."""
        qc = QuditCircuit(self.dims, name="onehot-init")
        for node in range(self.problem.n_nodes):
            qc.x(self.qubit_of(node, 0))
        return qc

    def _xy_matrix(self, beta: float) -> np.ndarray:
        """Two-qubit ``exp(-i beta (XX + YY)/2)`` — Hamming-weight preserving."""
        gen = 0.5 * (np.kron(_PAULI_X, _PAULI_X) + np.kron(_PAULI_Y, _PAULI_Y))
        return expm(-1j * beta * gen)

    def qaoa_circuit(self, gammas, betas) -> QuditCircuit:
        """One-hot QAOA: ZZ phase separation + XY ring mixing per node."""
        if len(gammas) != len(betas):
            raise DimensionError("gammas and betas must have equal length")
        qc = self.initial_state_circuit()
        d = self.problem.n_colors

        def zz(gamma):
            return np.diag(
                np.exp(-1j * gamma * np.array([1.0, -1.0, -1.0, 1.0]))
            )

        for gamma, beta in zip(gammas, betas):
            for u, v in self.problem.edges:
                for color in range(d):
                    qc.unitary(
                        zz(gamma),
                        (self.qubit_of(u, color), self.qubit_of(v, color)),
                        name="zz",
                        gamma=gamma,
                    )
            mixer = self._xy_matrix(beta)
            for node in range(self.problem.n_nodes):
                for color in range(d):
                    a = self.qubit_of(node, color)
                    b = self.qubit_of(node, (color + 1) % d)
                    qc.unitary(mixer, (a, b), name="xy", beta=beta)
        return qc

    def with_depolarizing(self, circuit: QuditCircuit, epsilon: float) -> QuditCircuit:
        """Depolarise both qubits after every two-qubit gate."""
        noisy = QuditCircuit(self.dims, name=circuit.name + "+depol")
        channel = depolarizing(4, epsilon) if epsilon > 0 else None
        for instruction in circuit:
            noisy.append(instruction)
            if (
                channel is not None
                and instruction.kind == "unitary"
                and instruction.num_qudits == 2
            ):
                noisy.channel(channel, instruction.qudits, name="depol")
        return noisy

    # ------------------------------------------------------------------
    # validity
    # ------------------------------------------------------------------
    def is_valid(self, bits: tuple[int, ...]) -> bool:
        """True iff every node has exactly one color flag set."""
        d = self.problem.n_colors
        for node in range(self.problem.n_nodes):
            block = bits[node * d : (node + 1) * d]
            if sum(block) != 1:
                return False
        return True

    def decode(self, bits: tuple[int, ...]) -> tuple[int, ...] | None:
        """Coloring of a valid sample, or ``None`` if invalid."""
        if not self.is_valid(bits):
            return None
        d = self.problem.n_colors
        return tuple(
            int(np.argmax(bits[node * d : (node + 1) * d]))
            for node in range(self.problem.n_nodes)
        )


def validity_probability(
    encoding: OneHotEncoding,
    epsilon: float,
    p: int = 1,
    shots: int = 100,
    seed: int | np.random.Generator | None = None,
) -> float:
    """Fraction of noisy samples satisfying every one-hot constraint.

    The ``shots`` trajectories run as one batch through the trajectory
    engine; ``seed`` may be a generator threaded from a larger study.
    """
    gammas = [0.6] * p
    betas = [0.4] * p
    circuit = encoding.qaoa_circuit(gammas, betas)
    noisy = encoding.with_depolarizing(circuit, epsilon)
    counts = TrajectorySimulator(noisy, seed=seed).sample(shots)
    valid = sum(n for bits, n in counts.items() if encoding.is_valid(bits))
    return valid / shots


@dataclass(frozen=True)
class ValidityComparison:
    """Qubit one-hot vs qudit validity at one noise level.

    The qudit direct encoding is valid *by construction* (probability
    exactly 1 at any noise); the comparison quantifies the one-hot decay.
    """

    epsilon: float
    onehot_validity: float
    qudit_validity: float = 1.0

    @property
    def advantage(self) -> float:
        """Validity ratio qudit / one-hot (>= 1)."""
        return self.qudit_validity / max(self.onehot_validity, 1e-12)


def compare_validity(
    problem: ColoringProblem,
    epsilons,
    p: int = 1,
    shots: int = 100,
    seed: int | None = None,
) -> list[ValidityComparison]:
    """Sweep noise strength and record one-hot validity decay."""
    encoding = OneHotEncoding(problem)
    out = []
    for idx, eps in enumerate(epsilons):
        validity = validity_probability(
            encoding, float(eps), p=p, shots=shots,
            seed=None if seed is None else seed + idx,
        )
        out.append(ValidityComparison(epsilon=float(eps), onehot_validity=validity))
    return out
