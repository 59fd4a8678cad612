"""Density-matrix simulation for noisy qudit circuits.

Exact (non-stochastic) noisy simulation: the state is a full density matrix.
Unitaries apply through the same tensor contraction engine as the
statevector simulator (left multiplication on kets, right on bras).  A
channel instruction takes the cheapest exact route its structure allows: a
:func:`~repro.core.channels.depolarizing` channel applies in closed form
(one partial trace and one add onto the target diagonal), an all-diagonal
Kraus family as one elementwise multiply, a family on a contiguous target
run as one batched contraction, and anything else operator by operator.
Memory is ``O(D^2)``, so this backend is for small registers; larger noisy
circuits use :mod:`repro.core.trajectories`.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided

from ..obs import metrics as _metrics
from ..obs import tracing as _tracing
from .channels import QuditChannel
from .circuit import Instruction, QuditCircuit
from .dims import digits_to_index, index_to_digits, total_dim, validate_dims
from .exceptions import DimensionError, SimulationError
from .rng import ensure_rng, sanitize_probabilities
from .statevector import Statevector, apply_matrix, broadcast_over_targets
from .structure import DIAGONAL, GateStructure, classify_gate

__all__ = ["DensityMatrix"]


def _conj_structure(structure: GateStructure) -> GateStructure:
    """Structure of the complex conjugate of a classified matrix (cached).

    Conjugation preserves the zero pattern, so a diagonal/permutation
    classification carries over — the bra-side application of each Kraus
    operator reuses the same fast path without re-classifying per call.
    """
    cached = structure.plans.get("conj")
    if cached is None:
        cached = classify_gate(structure.matrix.conj())
        structure.plans["conj"] = cached
    return cached


class DensityMatrix:
    """A (possibly mixed) state of a mixed-dimension qudit register."""

    def __init__(self, data: np.ndarray, dims: Sequence[int]) -> None:
        self.dims = validate_dims(dims)
        dim = total_dim(self.dims)
        data = np.asarray(data, dtype=complex)
        if data.shape != (dim, dim):
            raise DimensionError(f"density matrix shape {data.shape} != ({dim}, {dim})")
        self._matrix = data

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def zero(cls, dims: Sequence[int]) -> "DensityMatrix":
        """All-|0> pure state as a density matrix."""
        return cls.from_statevector(Statevector.zero(dims))

    @classmethod
    def basis(cls, dims: Sequence[int], digits: Sequence[int]) -> "DensityMatrix":
        """Computational-basis pure state ``|digits><digits|``."""
        return cls.from_statevector(Statevector.basis(dims, digits))

    @classmethod
    def from_statevector(cls, state: Statevector) -> "DensityMatrix":
        """``|psi><psi|`` from a pure state."""
        vec = state.vector
        return cls(np.outer(vec, vec.conj()), state.dims)

    @classmethod
    def maximally_mixed(cls, dims: Sequence[int]) -> "DensityMatrix":
        """``I / D``."""
        dims = validate_dims(dims)
        dim = total_dim(dims)
        return cls(np.eye(dim, dtype=complex) / dim, dims)

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    @property
    def matrix(self) -> np.ndarray:
        """The raw density matrix."""
        return self._matrix

    @property
    def dim(self) -> int:
        """Total Hilbert-space dimension."""
        return total_dim(self.dims)

    def copy(self) -> "DensityMatrix":
        """Deep copy."""
        return DensityMatrix(self._matrix.copy(), self.dims)

    def trace(self) -> float:
        """Real part of the trace (1 for physical states)."""
        return float(np.real(np.trace(self._matrix)))

    def purity(self) -> float:
        """``Tr(rho^2)``; 1 iff pure."""
        return float(np.real(np.trace(self._matrix @ self._matrix)))

    def _wires(
        self,
        targets: int | Sequence[int],
        operators: Sequence[np.ndarray] = (),
    ) -> tuple[int, ...]:
        """Validated target wires, each operator spanning exactly them.

        Raises:
            DimensionError: on a wire off the register, a repeated wire, or
                an operator whose shape is not ``(D_S, D_S)`` for the joint
                dimension ``D_S`` of the targets.
        """
        if isinstance(targets, (int, np.integer)):
            targets = (int(targets),)
        wires = tuple(int(t) for t in targets)
        n = len(self.dims)
        for t in wires:
            if not 0 <= t < n:
                raise DimensionError(f"wire {t} out of range for {n}-qudit register")
        if len(set(wires)) != len(wires):
            raise DimensionError(f"duplicate target wires in {wires}")
        span = math.prod(self.dims[t] for t in wires)
        for op in operators:
            if op.shape != (span, span):
                raise DimensionError(
                    f"operator shape {op.shape} does not span wires {wires} "
                    f"(dimension {span})"
                )
        return wires

    def _target_diagonal(
        self, tensor: np.ndarray, targets: tuple[int, ...], writeable: bool = False
    ) -> np.ndarray:
        """Strided view of ``tensor`` where each target's ket and bra digits agree.

        ``tensor`` has the ``dims + dims`` (ket, bra) axes of ``rho``.  The
        view's axes are the other wires' kets, their bras, then one axis
        per target; each target axis steps its ket and bra axes together.
        """
        n = len(self.dims)
        rest = [w for w in range(n) if w not in targets]
        axes = rest + [w + n for w in rest]
        shape = [tensor.shape[a] for a in axes] + [self.dims[t] for t in targets]
        strides = [tensor.strides[a] for a in axes] + [
            tensor.strides[t] + tensor.strides[t + n] for t in targets
        ]
        return as_strided(tensor, shape, strides, writeable=writeable)

    def _apply_depolarizing(self, p: float, targets: tuple[int, ...]) -> np.ndarray:
        """Depolarising channel in closed form.

        The uniform average over the Weyl group twirls any operator to its
        trace, so ``p`` spread over the ``d_S² - 1`` non-identity Weyl
        operators gives ``(1 - λ) ρ + λ Tr_S(ρ) ⊗ I/d_S`` with
        ``λ = p d_S² / (d_S² - 1)``: one partial trace over the targets and
        one add onto their diagonal, in any target order.
        """
        d_s = math.prod(self.dims[t] for t in targets)
        lam = p * d_s * d_s / (d_s * d_s - 1)
        tensor = self._matrix.reshape(self.dims * 2)
        k = len(targets)
        reduced = self._target_diagonal(tensor, targets).sum(axis=tuple(range(-k, 0)))
        out = (1.0 - lam) * tensor
        diagonal = self._target_diagonal(out, targets, writeable=True)
        diagonal += (lam / d_s) * reduced[(...,) + (None,) * k]
        return out.reshape(self.dim, self.dim)

    # ------------------------------------------------------------------
    # evolution
    # ------------------------------------------------------------------
    def _apply_local(
        self,
        matrices: Sequence[np.ndarray],
        targets: tuple[int, ...],
        structures: Sequence[GateStructure | None] | None = None,
    ) -> np.ndarray:
        """Apply ``sum_i K_i rho K_i†`` on local targets via tensor ops."""
        n = len(self.dims)
        tensor = self._matrix.reshape(self.dims + self.dims)
        out = np.zeros_like(tensor)
        bra_targets = tuple(t + n for t in targets)
        if structures is None:
            structures = [None] * len(matrices)
        if _metrics.enabled or _tracing.enabled:
            kinds = {
                (classify_gate(op) if st is None else st).kind
                for op, st in zip(matrices, structures)
            }
            kind = kinds.pop() if len(kinds) == 1 else "mixed"
            _metrics.inc("gate_applies", backend="density", kind=kind)
            with _tracing.span(
                "gate_apply", backend="density", kind=kind, kraus=len(matrices)
            ):
                return self._apply_local_terms(
                    tensor, out, matrices, structures, targets, bra_targets
                )
        return self._apply_local_terms(
            tensor, out, matrices, structures, targets, bra_targets
        )

    def _apply_local_terms(
        self,
        tensor: np.ndarray,
        out: np.ndarray,
        matrices: Sequence[np.ndarray],
        structures: Sequence[GateStructure | None],
        targets: tuple[int, ...],
        bra_targets: tuple[int, ...],
    ) -> np.ndarray:
        for op, structure in zip(matrices, structures):
            term = apply_matrix(tensor, op, self.dims * 2, targets, structure=structure)
            term = apply_matrix(
                term,
                op.conj(),
                self.dims * 2,
                bra_targets,
                structure=None if structure is None else _conj_structure(structure),
            )
            out += term
        return out.reshape(self.dim, self.dim)

    def _apply_kraus_batched(
        self, matrices: Sequence[np.ndarray], targets: tuple[int, ...]
    ) -> np.ndarray | None:
        """Whole-family Kraus application as one batched contraction.

        For an ascending contiguous target run both the ket and the bra
        target axes are contiguous in the ``rho`` tensor, so the state
        reshapes (view, no copy) to ``(A, d_gate, B, d_gate, C)`` and the
        entire family applies as a single einsum over the stacked
        ``(m, d_gate, d_gate)`` operator array — two GEMMs instead of a
        Python loop of ``2 m`` tensor contractions plus ``m`` accumulation
        passes.  Returns ``None`` when the targets are not such a run
        (caller falls back to the per-operator loop).
        """
        k = len(targets)
        first = targets[0]
        if list(targets) != list(range(first, first + k)):
            return None
        size_a = 1
        for d in self.dims[:first]:
            size_a *= d
        size_c = 1
        for d in self.dims[first + k :]:
            size_c *= d
        gate_dim = matrices[0].shape[0]
        stack = np.stack([np.asarray(m, dtype=complex) for m in matrices])
        rho5 = self._matrix.reshape(size_a, gate_dim, size_c * size_a, gate_dim, size_c)
        out = np.einsum(
            "mab,xbycz,mdc->xaydz",
            stack,
            rho5,
            stack.conj(),
            optimize=True,
        )
        return out.reshape(self.dim, self.dim)

    def _apply_diagonal_channel(
        self, diags: np.ndarray, targets: tuple[int, ...]
    ) -> np.ndarray:
        """All-diagonal Kraus family as *one* elementwise multiply.

        For ``K_i = diag(d_i)`` the channel acts elementwise on rho:
        ``rho'[a, b] = rho[a, b] * sum_i d_i[a] conj(d_i[b])`` over the
        joint target levels — the whole Kraus loop (two contractions per
        operator) collapses into a single broadcast product.
        """
        n = len(self.dims)
        weight = diags.T @ diags.conj()  # (d_gate, d_gate): ket x bra
        axes = list(targets) + [t + n for t in targets]
        factor = broadcast_over_targets(weight.reshape(-1), self.dims * 2, axes)
        tensor = self._matrix.reshape(self.dims + self.dims) * factor
        return tensor.reshape(self.dim, self.dim)

    def _apply_channel_instruction(self, instruction: Instruction) -> "DensityMatrix":
        """Channel application using the per-instruction structure cache.

        A depolarising channel applies in closed form
        (:meth:`_apply_depolarizing`) without looking at its Kraus family.
        Channels whose Kraus operators are *all* diagonal (dephasing,
        Kerr-type noise, the phase branches of Weyl channels) vectorise to
        one elementwise multiply; non-diagonal families on a contiguous
        target run batch into a single stacked contraction
        (:meth:`_apply_kraus_batched`); anything else runs the per-operator
        loop with cached structures, so diagonal/permutation operators
        still hit the O(D^2) fast kernels without per-call
        re-classification.
        """
        if _metrics.enabled or _tracing.enabled:
            if instruction.depolarizing_p is not None:
                kind = "depolarizing"
            else:
                kinds = {s.kind for s in instruction.kraus_structures() or ()}
                kind = kinds.pop() if len(kinds) == 1 else "mixed"
            _metrics.inc("channel_applies", backend="density", kind=kind)
            with _tracing.span(
                "channel_apply",
                backend="density",
                kind=kind,
                kraus=len(instruction.kraus or ()),
            ):
                return self._apply_channel_dispatch(instruction)
        return self._apply_channel_dispatch(instruction)

    def _apply_channel_dispatch(self, instruction: Instruction) -> "DensityMatrix":
        targets = tuple(instruction.qudits)
        p = instruction.depolarizing_p
        if p is not None:
            return DensityMatrix(self._apply_depolarizing(p, targets), self.dims)
        kraus = instruction.kraus or ()
        structures = instruction.kraus_structures() or ()
        if all(s.kind == DIAGONAL for s in structures):
            diags = np.stack([s.diag for s in structures])
            return DensityMatrix(
                self._apply_diagonal_channel(diags, targets), self.dims
            )
        if len(kraus) > 1:
            batched = self._apply_kraus_batched(kraus, targets)
            if batched is not None:
                return DensityMatrix(batched, self.dims)
        return DensityMatrix(self._apply_local(kraus, targets, structures), self.dims)

    def apply_unitary(
        self, matrix: np.ndarray, targets: int | Sequence[int]
    ) -> "DensityMatrix":
        """Conjugate by a local unitary: ``U rho U†``."""
        ops = [np.asarray(matrix, dtype=complex)]
        mat = self._apply_local(ops, self._wires(targets, ops))
        return DensityMatrix(mat, self.dims)

    def apply_kraus(
        self, kraus: Sequence[np.ndarray], targets: int | Sequence[int]
    ) -> "DensityMatrix":
        """Apply a Kraus channel on local targets."""
        ops = [np.asarray(k, dtype=complex) for k in kraus]
        if not ops:
            raise DimensionError("channel needs at least one Kraus operator")
        mat = self._apply_local(ops, self._wires(targets, ops))
        return DensityMatrix(mat, self.dims)

    def apply_channel(
        self, channel: QuditChannel, targets: int | Sequence[int]
    ) -> "DensityMatrix":
        """Apply a :class:`QuditChannel` on local targets."""
        return self.apply_kraus(channel.kraus, targets)

    def evolve(self, circuit: QuditCircuit) -> "DensityMatrix":
        """Run a circuit, honouring unitary, channel, and reset instructions.

        Unitaries and Kraus operators dispatch through the per-instruction
        structure cache; channels whose operators are all diagonal collapse
        to a single vectorised elementwise multiply
        (:meth:`_apply_channel_instruction`).
        """
        if circuit.dims != self.dims:
            raise DimensionError(
                f"circuit dims {circuit.dims} != state dims {self.dims}"
            )
        state = self
        for instruction in circuit:
            if instruction.kind == "unitary" and instruction.matrix is not None:
                state = DensityMatrix(
                    state._apply_local(
                        [instruction.matrix],
                        tuple(instruction.qudits),
                        [instruction.structure()],
                    ),
                    state.dims,
                )
            elif instruction.kind == "channel":
                state = state._apply_channel_instruction(instruction)
            elif instruction.kind == "measure":
                continue
            elif instruction.kind == "reset":
                state = state._reset_wire(instruction.qudits[0])
            else:  # pragma: no cover - kinds are validated at build time
                raise SimulationError(f"unknown instruction kind {instruction.kind}")
        return state

    def _reset_wire(self, qudit: int) -> "DensityMatrix":
        """Trace out one wire and re-prepare it in |0>."""
        d = self.dims[qudit]
        kraus = []
        for k in range(d):
            op = np.zeros((d, d), dtype=complex)
            op[0, k] = 1.0
            kraus.append(op)
        return self.apply_kraus(kraus, qudit)

    # ------------------------------------------------------------------
    # observables
    # ------------------------------------------------------------------
    def probabilities(self) -> np.ndarray:
        """Diagonal of rho — computational-basis outcome probabilities."""
        return np.real(np.diag(self._matrix)).clip(min=0.0)

    def expectation(
        self, operator: np.ndarray, targets: int | Sequence[int] | None = None
    ) -> complex:
        """``Tr(rho O)`` for a global (``targets=None``) or local operator."""
        op = np.asarray(operator, dtype=complex)
        if targets is None:
            if op.shape != (self.dim, self.dim):
                raise DimensionError(
                    f"global operator shape {op.shape} != ({self.dim}, {self.dim})"
                )
            return complex(np.trace(self._matrix @ op))
        reduced = self.partial_trace(self._wires(targets, [op]))
        return complex(np.trace(reduced @ op))

    def fidelity_with_pure(self, state: Statevector) -> float:
        """``<psi| rho |psi>`` against a pure reference state."""
        if state.dims != self.dims:
            raise DimensionError("fidelity requires matching register dims")
        vec = state.vector
        return float(np.real(vec.conj() @ self._matrix @ vec))

    def partial_trace(self, keep: Sequence[int]) -> np.ndarray:
        """Reduced density matrix over ``keep`` wires (in the given order)."""
        keep = list(self._wires(keep))
        n = len(self.dims)
        others = [ax for ax in range(n) if ax not in keep]
        tensor = self._matrix.reshape(self.dims + self.dims)
        perm = keep + others + [k + n for k in keep] + [o + n for o in others]
        tensor = np.transpose(tensor, perm)
        d_keep = int(np.prod([self.dims[a] for a in keep])) if keep else 1
        d_rest = int(np.prod([self.dims[a] for a in others])) if others else 1
        tensor = tensor.reshape(d_keep, d_rest, d_keep, d_rest)
        return np.einsum("arbr->ab", tensor)

    def sample(
        self, shots: int, rng: np.random.Generator | None = None
    ) -> dict[tuple[int, ...], int]:
        """Sample computational-basis outcomes from the diagonal."""
        rng = ensure_rng(rng)
        # The diagonal of rho carries tiny negative entries from float
        # rounding; rng.multinomial raises on them, so clip-and-normalise
        # through the shared helper.
        probs = sanitize_probabilities(np.real(np.diag(self._matrix)))
        outcomes = rng.multinomial(shots, probs)
        counts: dict[tuple[int, ...], int] = {}
        for index in np.nonzero(outcomes)[0]:
            counts[index_to_digits(int(index), self.dims)] = int(outcomes[index])
        return counts

    def probability_of(self, digits: Sequence[int]) -> float:
        """Probability of one specific basis outcome."""
        index = digits_to_index(digits, self.dims)
        return float(np.real(self._matrix[index, index]))
