"""Density-matrix simulation for noisy qudit circuits.

Exact (non-stochastic) noisy simulation: the state is a full density matrix.
:meth:`DensityMatrix.evolve` runs the circuit's compiled plan
(:meth:`~repro.core.circuit.QuditCircuit.plan`) on the raw ``rho`` array
and wraps it in a :class:`DensityMatrix` once at the end.  A unitary step
applies through the statevector contraction engine (left multiplication on
kets, right on bras, the bra side's structure from the shared structure
table); a fused diagonal step ``f`` is one multiply by ``f ⊗ f̄``.  A
channel takes the cheapest exact route its structure allows: a
:func:`~repro.core.channels.depolarizing` channel applies in closed form
(one partial trace and one add onto the target diagonal), an all-diagonal
Kraus family as one elementwise multiply, a family on a contiguous target
run as one batched contraction, and anything else operator by operator.
Memory is ``O(D^2)``, so this backend is for small registers; larger noisy
circuits use :mod:`repro.core.trajectories`.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided

from ..obs import metrics as _metrics
from ..obs import tracing as _tracing
from .channels import QuditChannel
from .circuit import Instruction, PlanStep, QuditCircuit
from .dims import (
    digits_to_index,
    index_to_digits,
    total_dim,
    validate_dims,
    validate_wires,
)
from .exceptions import DimensionError
from .rng import ensure_rng, sanitize_probabilities
from .statevector import Statevector, _observed, apply_matrix
from .structure import DIAGONAL, GateStructure, broadcast_over_targets, intern_structure

__all__ = ["DensityMatrix"]


def _target_diagonal(
    tensor: np.ndarray,
    dims: tuple[int, ...],
    targets: tuple[int, ...],
    writeable: bool = False,
) -> np.ndarray:
    """Strided view of ``tensor`` where each target's ket and bra digits agree.

    ``tensor`` has the ``dims + dims`` (ket, bra) axes of ``rho``.  The
    view's axes are the other wires' kets, their bras, then one axis
    per target; each target axis steps its ket and bra axes together.
    """
    n = len(dims)
    rest = [w for w in range(n) if w not in targets]
    axes = rest + [w + n for w in rest]
    shape = [tensor.shape[a] for a in axes] + [dims[t] for t in targets]
    strides = [tensor.strides[a] for a in axes] + [
        tensor.strides[t] + tensor.strides[t + n] for t in targets
    ]
    return as_strided(tensor, shape, strides, writeable=writeable)


def _depolarize(
    rho: np.ndarray, dims: tuple[int, ...], p: float, targets: tuple[int, ...]
) -> np.ndarray:
    """Depolarising channel in closed form.

    The uniform average over the Weyl group twirls any operator to its
    trace, so ``p`` spread over the ``d_S² - 1`` non-identity Weyl
    operators gives ``(1 - λ) ρ + λ Tr_S(ρ) ⊗ I/d_S`` with
    ``λ = p d_S² / (d_S² - 1)``: one partial trace over the targets and
    one add onto their diagonal, in any target order.
    """
    d_s = math.prod(dims[t] for t in targets)
    lam = p * d_s * d_s / (d_s * d_s - 1)
    tensor = rho.reshape(dims * 2)
    k = len(targets)
    reduced = _target_diagonal(tensor, dims, targets).sum(axis=tuple(range(-k, 0)))
    out = (1.0 - lam) * tensor
    diagonal = _target_diagonal(out, dims, targets, writeable=True)
    diagonal += (lam / d_s) * reduced[(...,) + (None,) * k]
    return out.reshape(rho.shape)


def _kraus_sum(
    rho: np.ndarray,
    dims: tuple[int, ...],
    matrices: Sequence[np.ndarray],
    structures: Sequence[GateStructure | None],
    targets: tuple[int, ...],
) -> np.ndarray:
    """``sum_i K_i rho K_i†`` on local targets, operator by operator."""
    n = len(dims)
    tensor = rho.reshape(dims + dims)
    bra_targets = tuple(t + n for t in targets)
    out = np.zeros_like(tensor)
    for op, structure in zip(matrices, structures):
        term = apply_matrix(tensor, op, dims * 2, targets, structure=structure)
        conj = op.conj()
        out += apply_matrix(
            term, conj, dims * 2, bra_targets, structure=intern_structure(conj)
        )
    return out.reshape(rho.shape)


def _apply_local(
    rho: np.ndarray,
    dims: tuple[int, ...],
    matrices: Sequence[np.ndarray],
    structures: Sequence[GateStructure | None],
    targets: tuple[int, ...],
) -> np.ndarray:
    """:func:`_kraus_sum`, observed as one gate apply."""
    kinds = (s.kind for s in structures if s is not None)
    args = (rho, dims, matrices, structures, targets)
    return _observed("density", "gate", kinds, _kraus_sum, *args, kraus=len(matrices))


def _kraus_batched(
    rho: np.ndarray,
    dims: tuple[int, ...],
    matrices: Sequence[np.ndarray],
    targets: tuple[int, ...],
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
    size_a = math.prod(dims[:first])
    size_c = math.prod(dims[first + k :])
    gate_dim = matrices[0].shape[0]
    stack = np.stack([np.asarray(m, dtype=complex) for m in matrices])
    rho5 = rho.reshape(size_a, gate_dim, size_c * size_a, gate_dim, size_c)
    out = np.einsum(
        "mab,xbycz,mdc->xaydz",
        stack,
        rho5,
        stack.conj(),
        optimize=True,
    )
    return out.reshape(rho.shape)


def _diagonal_channel(
    rho: np.ndarray,
    dims: tuple[int, ...],
    diags: np.ndarray,
    targets: tuple[int, ...],
) -> np.ndarray:
    """All-diagonal Kraus family as *one* elementwise multiply.

    For ``K_i = diag(d_i)`` the channel acts elementwise on rho:
    ``rho'[a, b] = rho[a, b] * sum_i d_i[a] conj(d_i[b])`` over the
    joint target levels — the whole Kraus loop (two contractions per
    operator) collapses into a single broadcast product.
    """
    n = len(dims)
    weight = diags.T @ diags.conj()  # (d_gate, d_gate): ket x bra
    axes = list(targets) + [t + n for t in targets]
    factor = broadcast_over_targets(weight.reshape(-1), dims * 2, axes)
    tensor = rho.reshape(dims + dims) * factor
    return tensor.reshape(rho.shape)


def _channel(
    rho: np.ndarray, dims: tuple[int, ...], instruction: Instruction
) -> np.ndarray:
    """A channel instruction by the cheapest exact route.

    A depolarising channel applies in closed form (:func:`_depolarize`)
    without looking at its Kraus family.  Channels whose Kraus operators
    are *all* diagonal (dephasing, Kerr-type noise, the phase branches of
    Weyl channels) vectorise to one elementwise multiply; non-diagonal
    families on a contiguous target run batch into a single stacked
    contraction (:func:`_kraus_batched`); anything else runs the
    per-operator loop, so diagonal/permutation operators still hit the
    ``O(D^2)`` fast kernels.
    """
    targets = tuple(instruction.qudits)
    p = instruction.depolarizing_p
    if p is not None:
        return _depolarize(rho, dims, p, targets)
    kraus = instruction.kraus or ()
    structures = instruction.kraus_structures() or ()
    if all(s.kind == DIAGONAL for s in structures):
        diags = np.stack([s.diag for s in structures])
        return _diagonal_channel(rho, dims, diags, targets)
    if len(kraus) > 1:
        batched = _kraus_batched(rho, dims, kraus, targets)
        if batched is not None:
            return batched
    return _apply_local(rho, dims, kraus, structures, targets)


def _run_step(rho: np.ndarray, dims: tuple[int, ...], step: PlanStep) -> np.ndarray:
    """Run one compiled plan step on a raw density matrix."""
    if step.diagonal is not None:
        f = step.diagonal.reshape(-1)
        fused = np.outer(f, f.conj())
        return _observed(
            "density", "gate", (DIAGONAL,), np.multiply, rho, fused, kraus=1
        )
    ins = step.instruction
    assert ins is not None  # every step but a fused diagonal runs one
    return _run_instruction(rho, dims, ins)


def _run_instruction(
    rho: np.ndarray, dims: tuple[int, ...], ins: Instruction
) -> np.ndarray:
    """Run one unitary, channel or reset instruction on a raw density matrix."""
    if ins.matrix is not None:
        return _apply_local(rho, dims, [ins.matrix], [ins.structure()], ins.qudits)
    if ins.kraus is not None:
        kinds: Iterable[str] = ("depolarizing",)
        if ins.depolarizing_p is None:
            kinds = (s.kind for s in ins.kraus_structures() or ())
        return _observed(
            "density", "channel", kinds, _channel, rho, dims, ins, kraus=len(ins.kraus)
        )
    # reset: trace the wire out and re-prepare it in |0>, Kraus family |0><k|
    wire = ins.qudits[0]
    kraus = np.zeros((dims[wire],) * 3, dtype=complex)
    kraus[:, 0, :] = np.eye(dims[wire])
    structures = [intern_structure(op) for op in kraus]
    return _apply_local(rho, dims, list(kraus), structures, (wire,))


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

    # ------------------------------------------------------------------
    # evolution
    # ------------------------------------------------------------------
    def apply_unitary(
        self, matrix: np.ndarray, targets: int | Sequence[int]
    ) -> "DensityMatrix":
        """Conjugate by a local unitary: ``U rho U†``."""
        return self.apply_kraus([matrix], targets)

    def apply_kraus(
        self, kraus: Sequence[np.ndarray], targets: int | Sequence[int]
    ) -> "DensityMatrix":
        """Apply a Kraus channel on local targets."""
        ops = [np.asarray(k, dtype=complex) for k in kraus]
        if not ops:
            raise DimensionError("channel needs at least one Kraus operator")
        wires = validate_wires(self.dims, targets, ops)
        structures = [intern_structure(op) for op in ops]
        mat = _apply_local(self._matrix, self.dims, ops, structures, wires)
        return DensityMatrix(mat, self.dims)

    def apply_channel(
        self, channel: QuditChannel, targets: int | Sequence[int]
    ) -> "DensityMatrix":
        """Apply a :class:`QuditChannel` on local targets.

        Takes the route :meth:`evolve` takes for the same channel: closed
        form for a depolarising family, one multiply for an all-diagonal
        one, one batched contraction on a contiguous target run.
        """
        wires = validate_wires(self.dims, targets, channel.kraus)
        ins = Instruction(
            name=channel.name,
            kind="channel",
            qudits=wires,
            kraus=channel.kraus,
            depolarizing_p=channel.depolarizing_p,
        )
        return DensityMatrix(_run_instruction(self._matrix, self.dims, ins), self.dims)

    def evolve(self, circuit: QuditCircuit) -> "DensityMatrix":
        """Run a circuit's compiled plan: unitaries, channels and resets.

        The plan (:meth:`~repro.core.circuit.QuditCircuit.plan`) fuses
        same-wire single-qudit runs and diagonal runs and drops
        ``measure`` markers.  Its steps pass the raw ``rho`` along, and
        it is wrapped in a :class:`DensityMatrix` once at the end.
        """
        if circuit.dims != self.dims:
            raise DimensionError(
                f"circuit dims {circuit.dims} != state dims {self.dims}"
            )
        rho = self._matrix
        for step in circuit.plan():
            rho = _run_step(rho, self.dims, step)
        return DensityMatrix(rho, self.dims)

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
        reduced = self.partial_trace(validate_wires(self.dims, targets, [op]))
        return complex(np.trace(reduced @ op))

    def fidelity_with_pure(self, state: Statevector) -> float:
        """``<psi| rho |psi>`` against a pure reference state."""
        if state.dims != self.dims:
            raise DimensionError("fidelity requires matching register dims")
        vec = state.vector
        return float(np.real(vec.conj() @ self._matrix @ vec))

    def partial_trace(self, keep: Sequence[int]) -> np.ndarray:
        """Reduced density matrix over ``keep`` wires (in the given order)."""
        keep = list(validate_wires(self.dims, keep))
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
