"""Native-qudit vs binary-qubit encodings of the rotor Hamiltonian.

The heart of claim C1 (paper §II.A via ref [11]): the same physics can be
compiled either

* **natively** — one ``d``-level qudit per rotor site, one entangling
  block per bond term (2 CSUM-equivalents for the hopping, 1 dispersive
  phase for ZZ), or
* **binary** — ``ceil(log2 d)`` qubits per site, every term Pauli-expanded
  and Trotterised with CNOT ladders.

The qubit route needs an order of magnitude more entangling gates per
Trotter step, so at fixed circuit quality it tolerates proportionally less
error per gate.  Both encodings expose the same interface: a Trotter-step
circuit, per-instruction entangling-equivalent weights (for uniform noise
injection), and the embedded total-``Lz`` observable.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import expm

from ..core.circuit import QuditCircuit
from ..core.exceptions import DimensionError
from ..core.statevector import embed_unitary
from .pauli import PauliTerm, matrix_to_pauli_terms, pauli_rotation_circuit
from .rotor import RotorChain

__all__ = ["QuditEncoding", "QubitEncoding", "insert_depolarizing_noise"]


class _RotorEncoding:
    """The observable surface both encodings share.

    A subclass says where a site lives (:meth:`_site_wires`), how a site
    operator looks on those wires (:meth:`_site_operator`) and how a site
    level is written in digits (:meth:`_level_digits`); every local
    ``(operator, wires)`` pair, its dense embedding and every product
    state follow from those three.
    """

    def __init__(self, chain: RotorChain) -> None:
        self.chain = chain

    def _site_wires(self, site: int) -> tuple[int, ...]:
        """Wire indices holding one rotor site."""
        raise NotImplementedError

    def _site_operator(self, operator: np.ndarray) -> np.ndarray:
        """A ``d x d`` site operator over the site's wires."""
        raise NotImplementedError

    def _level_digits(self, level: int) -> tuple[int, ...]:
        """Digits of one site's (0-based) level over its wires."""
        raise NotImplementedError

    def _embedded(self, operator: np.ndarray, site: int) -> np.ndarray:
        """A ``d x d`` site operator embedded in the full register."""
        wires = self._site_wires(site)
        return embed_unitary(self._site_operator(operator), self.dims, wires)

    def local_lz(self, site: int) -> tuple[np.ndarray, tuple[int, ...]]:
        """``Lz`` on one site as an *unembedded* ``(operator, wires)`` pair.

        The local form is what scalable backends (MPS, LPDO) consume — the
        embedded full-register matrix of :meth:`local_lz_operator` cannot
        even be allocated past ~9 qutrits.
        """
        return self._site_operator(self.chain.ops.lz()), self._site_wires(site)

    def local_lz_operator(self, site: int) -> np.ndarray:
        """Dense ``Lz`` on one site, embedded in the full register."""
        return self._embedded(self.chain.ops.lz(), site)

    def total_lz_operator(self) -> np.ndarray:
        """Dense ``sum_i Lz_i`` over the full register."""
        total = self.local_lz_operator(0)
        for site in range(1, self.chain.n_sites):
            total = total + self.local_lz_operator(site)
        return total

    def local_link_operator(self, site: int) -> np.ndarray:
        """Dense ``U + U†`` on one site — the gauge-field 'cosine' probe.

        Unlike the diagonal electric operators this connects different
        total-``Lz`` charge sectors, so it has a non-zero matrix element
        between the ground state and the charged first-excited states and
        oscillates at the mass gap.
        """
        raising = self.chain.ops.raising()
        return self._embedded(raising + raising.conj().T, site)

    def initial_state_digits(self) -> tuple[int, ...]:
        """Digits of the ``m = 0`` everywhere product state."""
        return self.product_state_digits([0] * self.chain.n_sites)

    def product_state_digits(self, m_values: list[int]) -> tuple[int, ...]:
        """Digits of the product state with given ``m`` per site."""
        spin = self.chain.ops.spin
        digits: list[int] = []
        for m in m_values:
            if not -spin <= m <= spin:
                raise DimensionError(f"m={m} outside truncation +-{spin}")
            digits.extend(self._level_digits(m + spin))
        return tuple(digits)


class QuditEncoding(_RotorEncoding):
    """One native qudit per rotor site.

    Single-site terms compile to one SNAP-class pulse; the hopping term
    ``U_i U_j† + h.c.`` exponentiates to a two-qudit unitary charged at two
    CSUM-equivalents (CSUM-conjugation synthesis); the ZZ term is diagonal
    and costs one dispersive phase.
    """

    #: entangling-equivalents by instruction label.
    ENTANGLING_WEIGHTS = {"hop": 2, "zz": 1}

    @property
    def dims(self) -> tuple[int, ...]:
        """Register dimensions: one wire of dimension d per site."""
        return self.chain.dims

    def trotter_step(self, dt: float) -> QuditCircuit:
        """First-order Trotter step circuit."""
        qc = QuditCircuit(self.dims, name="rotor-qudit-step")
        for term in self.chain.terms():
            gate = expm(-1j * dt * term.operator)
            qc.unitary(gate, term.sites, name=term.label, dt=dt)
        return qc

    def entangling_equivalents(self, instruction_name: str) -> int:
        """CSUM-equivalents charged to one instruction."""
        return self.ENTANGLING_WEIGHTS.get(instruction_name, 0)

    def entangling_per_step(self) -> int:
        """Total CSUM-equivalents in one Trotter step."""
        return sum(
            self.entangling_equivalents(term.label) for term in self.chain.terms()
        )

    def _site_wires(self, site: int) -> tuple[int, ...]:
        if not 0 <= site < self.chain.n_sites:
            raise DimensionError(f"site {site} out of range")
        return (site,)

    def _site_operator(self, operator: np.ndarray) -> np.ndarray:
        return operator

    def _level_digits(self, level: int) -> tuple[int, ...]:
        return (level,)


class QubitEncoding(_RotorEncoding):
    """Binary embedding: each site's d levels in ``ceil(log2 d)`` qubits.

    Site level ``m + s`` (shifted to 0-based) maps to the computational
    basis state of its qubit group; unused bitstrings are annihilated by
    every embedded operator (they are never populated by exact dynamics).
    """

    def __init__(self, chain: RotorChain) -> None:
        super().__init__(chain)
        self.qubits_per_site = max(1, math.ceil(math.log2(chain.site_dim)))
        self.n_qubits = self.qubits_per_site * chain.n_sites
        self._step_cache: dict[float, tuple[QuditCircuit, int]] = {}

    @property
    def dims(self) -> tuple[int, ...]:
        """Register dimensions: all-qubit wires."""
        return (2,) * self.n_qubits

    # ------------------------------------------------------------------
    # embedding
    # ------------------------------------------------------------------
    def _embed_site_operator(self, operator: np.ndarray, n_sites: int) -> np.ndarray:
        """Zero-pad a (d^k x d^k) site operator into (2^(k*nq))^2."""
        d = self.chain.site_dim
        nq = self.qubits_per_site
        dim_site = 2**nq
        # Isometry from one site's d levels into its 2^nq qubit space.
        iso = np.zeros((dim_site, d), dtype=complex)
        iso[:d, :] = np.eye(d)
        full_iso = iso
        for _ in range(n_sites - 1):
            full_iso = np.kron(full_iso, iso)
        return full_iso @ operator @ full_iso.conj().T

    def pauli_terms_for(self, term_operator: np.ndarray, n_sites: int) -> list[PauliTerm]:
        """Pauli expansion of one embedded Hamiltonian term."""
        embedded = self._embed_site_operator(term_operator, n_sites)
        return matrix_to_pauli_terms(embedded, n_sites * self.qubits_per_site)

    def site_qubits(self, site: int) -> list[int]:
        """Wire indices of one site's qubit group."""
        if not 0 <= site < self.chain.n_sites:
            raise DimensionError(f"site {site} out of range")
        start = site * self.qubits_per_site
        return list(range(start, start + self.qubits_per_site))

    def _site_wires(self, site: int) -> tuple[int, ...]:
        return tuple(self.site_qubits(site))

    def _site_operator(self, operator: np.ndarray) -> np.ndarray:
        return self._embed_site_operator(operator, 1)

    # ------------------------------------------------------------------
    # circuits
    # ------------------------------------------------------------------
    def trotter_step(self, dt: float) -> QuditCircuit:
        """First-order Trotter step over the qubit register."""
        return self._build_step(dt)[0]

    def cnots_per_step(self, dt: float = 0.1) -> int:
        """CNOT count of one Trotter step (independent of dt)."""
        return self._build_step(dt)[1]

    def _build_step(self, dt: float) -> tuple[QuditCircuit, int]:
        cached = self._step_cache.get(dt)
        if cached is not None:
            return cached
        qc = QuditCircuit(self.dims, name="rotor-qubit-step")
        n_cnots = 0
        for term in self.chain.terms():
            qubits: list[int] = []
            for site in term.sites:
                qubits.extend(self.site_qubits(site))
            for pauli in self.pauli_terms_for(term.operator, term.n_sites):
                n_cnots += pauli_rotation_circuit(qc, pauli, dt, qubits)
        self._step_cache[dt] = (qc, n_cnots)
        return qc, n_cnots

    def entangling_equivalents(self, instruction_name: str) -> int:
        """Every CNOT counts as one entangling-equivalent."""
        return 1 if instruction_name == "cnot" else 0

    def _level_digits(self, level: int) -> tuple[int, ...]:
        return tuple(int(b) for b in format(level, f"0{self.qubits_per_site}b"))


def insert_depolarizing_noise(
    circuit: QuditCircuit,
    encoding,
    epsilon: float,
    single_gate_fraction: float = 0.1,
) -> QuditCircuit:
    """Instrument a Trotter circuit with uniform depolarising noise.

    After every entangling-equivalent the touched wires receive a joint
    depolarising channel of strength ``epsilon`` (an instruction worth
    ``k`` equivalents gets ``p = 1 - (1 - epsilon)^k``); single-qudit
    instructions get ``single_gate_fraction * epsilon``.  This is the error
    model of the encoding-comparison study (ref [11] uses the same
    uniform-depolarising abstraction).

    Args:
        circuit: noiseless Trotter circuit.
        encoding: object with ``entangling_equivalents(name) -> int``.
        epsilon: per-entangling-gate depolarising probability.
        single_gate_fraction: relative strength on single-qudit gates.

    Returns:
        A new circuit with channel instructions inserted.
    """
    from ..core.channels import depolarizing

    if not 0.0 <= epsilon <= 1.0:
        raise DimensionError(f"epsilon={epsilon} outside [0, 1]")
    noisy = QuditCircuit(circuit.dims, name=circuit.name + "+depol")
    for instruction in circuit:
        noisy.append(instruction)
        if instruction.kind != "unitary":
            continue
        equivalents = encoding.entangling_equivalents(instruction.name)
        dim = 1
        for wire in instruction.qudits:
            dim *= circuit.dims[wire]
        if equivalents > 0:
            prob = 1.0 - (1.0 - epsilon) ** equivalents
            if prob > 0:
                noisy.channel(
                    depolarizing(dim, prob),
                    instruction.qudits,
                    name="depol",
                )
        elif epsilon > 0 and single_gate_fraction > 0:
            prob = single_gate_fraction * epsilon
            noisy.channel(depolarizing(dim, prob), instruction.qudits, name="depol")
    return noisy
