"""Dense statevector simulation for mixed-dimension qudit registers.

The state is stored as a rank-``n`` tensor with per-axis sizes equal to the
qudit dimensions.  Gate application dispatches on the operator's structure
(see :mod:`repro.core.structure`):

* **diagonal** gates (Weyl ``Z``, SNAP, Kerr, controlled-phase) are applied
  as an ``O(D)`` broadcast multiply;
* **permutation** gates (Weyl ``X``, CSUM, NDAR relabellings) as an ``O(D)``
  index gather;
* everything else falls back to a matrix contraction over the target axes,
  costing ``O(D * d_gate)`` instead of the naive ``O(D^2)`` matrix product.

All kernels treat axes beyond the register rank as **batch axes**, which is
how the batched trajectory engine evolves hundreds of noisy trajectories
with one kernel invocation per gate.

:meth:`Statevector.evolve` runs the circuit's compiled plan
(:meth:`~repro.core.circuit.QuditCircuit.plan`) on the raw amplitude
tensor; :func:`apply_step` is the plan-step kernel it shares with the
trajectory engine.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence

import numpy as np

from ..obs import metrics as _metrics
from ..obs import tracing as _tracing
from .circuit import PlanStep, QuditCircuit
from .dims import (
    digits_to_index,
    index_to_digits,
    strides,
    total_dim,
    validate_dims,
    validate_wires,
)
from .exceptions import DimensionError, SimulationError
from .rng import ensure_rng, sanitize_probabilities
from .structure import (
    DIAGONAL,
    PERMUTATION,
    GateStructure,
    broadcast_over_targets,
    classify_gate,
)

__all__ = [
    "Statevector",
    "embed_unitary",
    "apply_matrix",
    "apply_matrix_dense",
    "apply_step",
    "broadcast_over_targets",
]


def apply_matrix_dense(
    tensor: np.ndarray,
    matrix: np.ndarray,
    dims: Sequence[int],
    targets: Sequence[int],
) -> np.ndarray:
    """Reference dense path: ``tensordot`` contraction over the target axes.

    This is the seed implementation, kept verbatim as the correctness
    reference for the structured fast paths (tests assert agreement to
    1e-12) and as the benchmark baseline.
    """
    dims = tuple(dims)
    targets = list(targets)
    n = len(dims)
    batch_ndim = tensor.ndim - n
    gate_dims = [dims[t] for t in targets]
    gate_tensor = matrix.reshape(gate_dims + gate_dims)
    # Contract matrix "input" axes with the state's target axes.
    contracted = np.tensordot(
        gate_tensor, tensor, axes=(list(range(len(targets), 2 * len(targets))), targets)
    )
    # tensordot output axis order: gate outputs, untouched register axes
    # (original order), then batch axes.  Restore the original layout.
    remaining = [ax for ax in range(n) if ax not in targets]
    order = [0] * (n + batch_ndim)
    for out_pos, axis in enumerate(targets):
        order[axis] = out_pos
    for out_pos, axis in enumerate(remaining, start=len(targets)):
        order[axis] = out_pos
    for b in range(batch_ndim):
        order[n + b] = n + b
    return np.transpose(contracted, order)


def _apply_diagonal(
    tensor: np.ndarray,
    structure: GateStructure,
    dims: tuple[int, ...],
    targets: list[int],
) -> np.ndarray:
    """Elementwise fast path: multiply by the diagonal broadcast over targets."""
    key = (dims, tuple(targets))
    broadcast = structure.plans.get(key)
    if broadcast is None:
        broadcast = broadcast_over_targets(structure.diag, dims, targets)
        structure.plans[key] = broadcast
    batch_ndim = tensor.ndim - len(dims)
    return tensor * broadcast.reshape(broadcast.shape + (1,) * batch_ndim)


def _permutation_plan(
    structure: GateStructure, dims: tuple[int, ...], targets: list[int]
) -> tuple[np.ndarray, np.ndarray | None]:
    """Precompute the full-register flat gather map (and value vector).

    ``out_flat[i] = values_flat[i] * in_flat[map[i]]`` — one fancy-indexed
    gather per application, no axis moves or interim copies.
    """
    n = len(dims)
    gate_dims = [dims[t] for t in targets]
    place = strides(dims)
    gather = np.zeros(dims, dtype=np.intp)
    for ax in range(n):
        if ax in targets:
            continue
        shape = [1] * n
        shape[ax] = dims[ax]
        gather += (np.arange(dims[ax], dtype=np.intp) * place[ax]).reshape(shape)
    # Joint source contribution of the target axes, indexed by the *output*
    # joint level in matrix tensor order.
    source_digits = np.unravel_index(structure.source, gate_dims)
    joint = np.zeros(structure.dim, dtype=np.intp)
    for i, t in enumerate(targets):
        joint += source_digits[i].astype(np.intp) * place[t]
    gather = (gather + broadcast_over_targets(joint, dims, targets)).reshape(-1)
    values = None
    if structure.values is not None:
        values = np.ascontiguousarray(
            np.broadcast_to(
                broadcast_over_targets(structure.values, dims, targets), dims
            ).reshape(-1)
        )
    return gather, values


def _apply_permutation(
    tensor: np.ndarray,
    structure: GateStructure,
    dims: tuple[int, ...],
    targets: list[int],
) -> np.ndarray:
    """Gather fast path: ``out[r] = values[r] * in[source[r]]`` on target axes."""
    if len(targets) == 1:
        # Single wire: np.take copies whole blocks per level — far cheaper
        # than an elementwise flat gather.
        axis = targets[0]
        out = np.take(tensor, structure.source, axis=axis)
        if structure.values is not None:
            shape = [1] * tensor.ndim
            shape[axis] = structure.dim
            out *= structure.values.reshape(shape)
        return out
    key = (dims, tuple(targets))
    plan = structure.plans.get(key)
    if plan is None:
        plan = _permutation_plan(structure, dims, targets)
        structure.plans[key] = plan
    gather, values = plan
    dim = gather.size
    flat = tensor.reshape(dim, -1)
    out = flat[gather]
    if values is not None:
        out *= values[:, None]
    return out.reshape(tensor.shape)


def _apply_dense_contiguous(
    tensor: np.ndarray,
    matrix: np.ndarray,
    dims: tuple[int, ...],
    targets: list[int],
) -> np.ndarray | None:
    """Dense fast path for an ascending contiguous run of target axes.

    Reshapes the state to ``(left, d_gate, right)`` — a view, no transpose
    — and applies one broadcasted matmul, leaving the output contiguous.
    Returns ``None`` when the targets are not such a run (caller falls back
    to the tensordot reference).
    """
    k = len(targets)
    first = targets[0]
    if list(targets) != list(range(first, first + k)):
        return None
    left = 1
    for d in dims[:first]:
        left *= d
    gate_dim = matrix.shape[0]
    view = tensor.reshape(left, gate_dim, -1)
    return np.matmul(matrix, view).reshape(tensor.shape)


def apply_matrix(
    tensor: np.ndarray,
    matrix: np.ndarray,
    dims: Sequence[int],
    targets: Sequence[int],
    structure: GateStructure | None = None,
) -> np.ndarray:
    """Apply ``matrix`` to the ``targets`` axes of a state tensor.

    Dispatches to the diagonal / permutation fast path when the operator's
    structure allows, otherwise contracts densely.  All paths agree with
    :func:`apply_matrix_dense` to floating-point precision.

    Args:
        tensor: array whose first ``len(dims)`` axes are the register; any
            trailing axes are treated as batch dimensions.
        matrix: operator of dimension ``prod(dims[t] for t in targets)``.
        dims: register dimensions.
        targets: register axes the operator acts on, in matrix tensor order.
        structure: optional precomputed :func:`~repro.core.structure.classify_gate`
            result (circuits cache one per instruction); classified on the
            fly when omitted.

    Returns:
        The transformed tensor, same shape as the input.
    """
    dims = tuple(dims)
    targets = list(targets)
    if structure is None:
        structure = classify_gate(matrix)
    if structure.kind == DIAGONAL:
        return _apply_diagonal(tensor, structure, dims, targets)
    if structure.kind == PERMUTATION:
        return _apply_permutation(tensor, structure, dims, targets)
    out = _apply_dense_contiguous(tensor, matrix, dims, targets)
    if out is not None:
        return out
    return apply_matrix_dense(tensor, matrix, dims, targets)


def apply_step(
    tensor: np.ndarray, step: PlanStep, dims: tuple[int, ...]
) -> np.ndarray:
    """Run one ``"unitary"`` or ``"diagonal"`` plan step on a state tensor.

    Axes beyond the register rank are batch axes, as in
    :func:`apply_matrix`.
    """
    if step.kind == "diagonal":
        batch = (1,) * (tensor.ndim - len(dims))
        return tensor * step.diagonal.reshape(dims + batch)
    ins = step.instruction
    return apply_matrix(tensor, ins.matrix, dims, ins.qudits, ins.structure())


def embed_unitary(
    matrix: np.ndarray, dims: Sequence[int], targets: Sequence[int]
) -> np.ndarray:
    """Embed a local operator into the full register as a dense matrix.

    Intended for small registers (matrix construction, tests); simulators use
    :func:`apply_matrix` instead.
    """
    dims = validate_dims(dims)
    dim = total_dim(dims)
    eye = np.eye(dim, dtype=complex)
    columns = apply_matrix(
        eye.reshape(dims + (dim,)),
        np.asarray(matrix, dtype=complex),
        dims,
        targets,
    )
    return columns.reshape(dim, dim)


def _observed(
    backend: str, event: str, kinds: Iterable[str], kernel: Callable, *args, **fields
) -> np.ndarray:
    """Run a kernel; with telemetry on, count it as ``<event>_applies``.

    ``kinds`` (the structure kinds involved) is read only when telemetry is
    on; several distinct kinds are reported as ``"mixed"``.  ``fields``
    go on the ``<event>_apply`` span.
    """
    if not (_metrics.enabled or _tracing.enabled):
        return kernel(*args)
    seen = set(kinds)
    kind = seen.pop() if len(seen) == 1 else "mixed"
    _metrics.inc(f"{event}_applies", backend=backend, kind=kind)
    with _tracing.span(f"{event}_apply", backend=backend, kind=kind, **fields):
        return kernel(*args)


class Statevector:
    """A pure state of a mixed-dimension qudit register.

    Example:
        >>> sv = Statevector.zero([3, 3])
        >>> qc = QuditCircuit([3, 3]); qc.fourier(0); qc.csum(0, 1)
        >>> sv = sv.evolve(qc)
        >>> sv.probabilities().round(3)[[0, 4, 8]]
        array([0.333, 0.333, 0.333])
    """

    def __init__(self, data: np.ndarray, dims: Sequence[int]) -> None:
        self.dims = validate_dims(dims)
        data = np.asarray(data, dtype=complex)
        dim = total_dim(self.dims)
        if data.size != dim:
            raise DimensionError(
                f"state has {data.size} amplitudes, register needs {dim}"
            )
        self._tensor = data.reshape(self.dims)

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def zero(cls, dims: Sequence[int]) -> "Statevector":
        """The all-|0> product state."""
        dims = validate_dims(dims)
        data = np.zeros(total_dim(dims), dtype=complex)
        data[0] = 1.0
        return cls(data, dims)

    @classmethod
    def basis(cls, dims: Sequence[int], digits: Sequence[int]) -> "Statevector":
        """Computational basis state ``|digits>``."""
        dims = validate_dims(dims)
        data = np.zeros(total_dim(dims), dtype=complex)
        data[digits_to_index(digits, dims)] = 1.0
        return cls(data, dims)

    @classmethod
    def uniform(cls, dims: Sequence[int]) -> "Statevector":
        """Equal superposition over all basis states."""
        dims = validate_dims(dims)
        dim = total_dim(dims)
        return cls(np.full(dim, 1.0 / np.sqrt(dim), dtype=complex), dims)

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    @property
    def vector(self) -> np.ndarray:
        """Flat amplitude vector (copy-free view)."""
        return self._tensor.reshape(-1)

    @property
    def tensor(self) -> np.ndarray:
        """Rank-n tensor view of the amplitudes."""
        return self._tensor

    @property
    def dim(self) -> int:
        """Total Hilbert-space dimension."""
        return total_dim(self.dims)

    def copy(self) -> "Statevector":
        """Deep copy."""
        return Statevector(self.vector.copy(), self.dims)

    def norm(self) -> float:
        """2-norm of the amplitude vector."""
        return float(np.linalg.norm(self.vector))

    def normalized(self) -> "Statevector":
        """Return the state rescaled to unit norm."""
        norm = self.norm()
        if norm < 1e-300:
            raise SimulationError("cannot normalise a zero state")
        return Statevector(self.vector / norm, self.dims)

    # ------------------------------------------------------------------
    # evolution
    # ------------------------------------------------------------------
    def apply(
        self,
        matrix: np.ndarray,
        targets: int | Sequence[int],
        structure: GateStructure | None = None,
    ) -> "Statevector":
        """Apply a unitary (or general matrix) to the target wires.

        Args:
            matrix: operator over the target wires.
            targets: wire index or indices.
            structure: optional precomputed gate structure (fast-path hint).

        Raises:
            DimensionError: on a wire off the register, a repeated wire, or
                an operator that does not span the targets.
        """
        matrix = np.asarray(matrix, dtype=complex)
        targets = validate_wires(self.dims, targets, [matrix])
        structure = structure or classify_gate(matrix)
        kinds = (structure.kind,)
        args = (self._tensor, matrix, self.dims, targets, structure)
        tensor = _observed("statevector", "gate", kinds, apply_matrix, *args)
        return Statevector(tensor.reshape(-1), self.dims)

    def evolve(self, circuit: QuditCircuit) -> "Statevector":
        """Run a (noise-free) circuit through its compiled plan.

        The plan (:meth:`~repro.core.circuit.QuditCircuit.plan`) fuses
        same-wire single-qudit runs and diagonal runs and drops
        ``measure`` markers; its steps pass the raw amplitude tensor along
        and it is wrapped in a :class:`Statevector` once at the end.

        Raises:
            SimulationError: on channel or reset instructions — use the
                density-matrix or trajectory simulators for noisy circuits.
        """
        if circuit.dims != self.dims:
            raise DimensionError(
                f"circuit dims {circuit.dims} != state dims {self.dims}"
            )
        tensor = self._tensor
        for step in circuit.plan():
            if step.kind in ("channel", "reset"):
                raise SimulationError(
                    f"Statevector cannot execute {step.kind!r} "
                    f"instruction {step.instruction.name!r}"
                )
            ins = step.instruction
            kinds = (ins.structure().kind,) if ins else (DIAGONAL,)
            args = (tensor, step, self.dims)
            tensor = _observed("statevector", "gate", kinds, apply_step, *args)
        return Statevector(tensor.reshape(-1), self.dims)

    # ------------------------------------------------------------------
    # observables
    # ------------------------------------------------------------------
    def probabilities(self) -> np.ndarray:
        """Born-rule probabilities over the computational basis."""
        return np.abs(self.vector) ** 2

    def expectation(
        self, operator: np.ndarray, targets: int | Sequence[int] | None = None
    ) -> complex:
        """Expectation value ``<psi|O|psi>`` of a (local) operator."""
        if targets is None:
            targets = tuple(range(len(self.dims)))
        transformed = self.apply(operator, targets)
        return complex(np.vdot(self.vector, transformed.vector))

    def fidelity(self, other: "Statevector") -> float:
        """``|<self|other>|^2``."""
        if other.dims != self.dims:
            raise DimensionError("fidelity requires matching register dims")
        return float(np.abs(np.vdot(self.vector, other.vector)) ** 2)

    def sample(
        self,
        shots: int,
        rng: np.random.Generator | int | None = None,
    ) -> dict[tuple[int, ...], int]:
        """Sample ``shots`` computational-basis outcomes.

        Args:
            shots: number of outcomes to draw.
            rng: generator, integer seed, or ``None`` for the shared global
                generator (see :mod:`repro.core.rng`).

        Returns:
            Mapping from digit tuples to observed counts.
        """
        rng = ensure_rng(rng)
        probs = sanitize_probabilities(self.probabilities())
        outcomes = rng.multinomial(shots, probs)
        counts: dict[tuple[int, ...], int] = {}
        for index in np.nonzero(outcomes)[0]:
            counts[index_to_digits(int(index), self.dims)] = int(outcomes[index])
        return counts

    def measure_qudit(
        self, qudit: int, rng: np.random.Generator | int | None = None
    ) -> tuple[int, "Statevector"]:
        """Projectively measure one wire; return (outcome, collapsed state).

        Collapse zeroes the non-outcome slices of the wire's axis directly
        — no projector matrix is built and no gate contraction is paid.
        """
        (axis,) = validate_wires(self.dims, qudit)
        rng = ensure_rng(rng)
        marginal = np.abs(self._tensor) ** 2
        sum_axes = tuple(ax for ax in range(len(self.dims)) if ax != axis)
        probs = sanitize_probabilities(marginal.sum(axis=sum_axes))
        outcome = int(rng.choice(len(probs), p=probs))
        collapsed_tensor = np.zeros_like(self._tensor)
        keep = (slice(None),) * axis + (outcome,)
        collapsed_tensor[keep] = self._tensor[keep]
        collapsed = Statevector(collapsed_tensor.reshape(-1), self.dims)
        return outcome, collapsed.normalized()

    def partial_trace(self, keep: Sequence[int]) -> np.ndarray:
        """Reduced density matrix over the ``keep`` wires (in given order)."""
        keep = list(validate_wires(self.dims, keep))
        others = [ax for ax in range(len(self.dims)) if ax not in keep]
        perm = keep + others
        tensor = np.transpose(self._tensor, perm)
        d_keep = int(np.prod([self.dims[a] for a in keep])) if keep else 1
        d_rest = int(np.prod([self.dims[a] for a in others])) if others else 1
        mat = tensor.reshape(d_keep, d_rest)
        return mat @ mat.conj().T
