"""Density-matrix simulation for noisy qudit circuits.

Exact (non-stochastic) noisy simulation: the state is a full density
matrix.  :meth:`DensityMatrix.evolve` treats ``rho`` as a statevector on
a *doubled* register, as QuEST does: one transpose on entry puts it in
interleaved (ket₀, bra₀, ket₁, bra₁, …) leg order, so wire ``w`` is one
axis of size ``d_w²`` holding its ket and bra legs side by side, and one
transpose on exit restores the ``(D, D)`` matrix.  In between, each step
of the circuit's compiled plan (:meth:`~repro.core.circuit.QuditCircuit.plan`)
runs as one op on that register, compiled once and kept in
:attr:`~repro.core.circuit.PlanStep.cache`:

* a unitary is its superoperator ``U ⊗ Ū`` in interleaved leg order,
  cached on the unitary's shared :class:`~repro.core.structure.GateStructure`
  and applied by the statevector kernels, so a diagonal gate stays one
  multiply, a permutation (CNOT, CSUM) one gather and a dense gate one
  matmul over its contiguous target block;
* a unitary followed by a depolarising channel on the same wires fuses
  into one matrix, ``(1 − λ) U ⊗ Ū + (λ/d_S)|I⟩⟨I|`` (``⟨I|`` is the
  partial trace, which unitary conjugation leaves invariant), where that
  measures faster than the two steps: a dense gate, or any gate on at
  most :data:`_MERGE_MAX_DIM` levels;
* any other :func:`~repro.core.channels.depolarizing` channel applies in
  closed form, ``(1 − λ) ρ + λ Tr_S(ρ) ⊗ I/d_S``: one gather and one
  scatter-add on precomputed indices of the target diagonal;
* another channel, or a reset, is its superoperator ``Σ K ⊗ K̄``, and a
  fused diagonal plan step ``f`` is one multiply by ``f ⊗ f̄``.

Then, as Qulacs fuses gates, consecutive superoperators whose wires nest
inside a block of at most :data:`_MERGE_MAX_DIM` levels (two qubits)
multiply into one, an op moving back past ops on other wires to meet
its partner: a Pauli rotation's basis changes, CNOT ladder and noise on
a qubit pair become one 16 x 16 matmul.  A superoperator on ``d_S``
target levels has ``d_S⁴`` entries, so targets wider than
:data:`_SUPEROP_MAX_DIM` levels apply their operators to the ket and bra
legs in turn instead.  :meth:`DensityMatrix.apply_kraus` stays the
operator-by-operator reference the tests compare against.
Memory is ``O(D²)``, so this backend is for small registers; larger noisy
circuits use :mod:`repro.core.trajectories`.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterable, Sequence
from contextlib import ExitStack

import numpy as np

from ..obs import metrics as _metrics
from ..obs import tracing as _tracing
from .channels import QuditChannel
from .circuit import Instruction, PlanStep, QuditCircuit
from .dims import (
    digits_to_index,
    index_to_digits,
    strides,
    total_dim,
    validate_dims,
    validate_wires,
)
from .exceptions import DimensionError
from .rng import ensure_rng, sanitize_probabilities
from .statevector import Statevector, _observed, apply_matrix
from .structure import DENSE, DIAGONAL, GateStructure, classify_gate, intern_structure

__all__ = ["DensityMatrix"]

#: Widest target space (in levels) that compiles to a superoperator; its
#: ``d_S⁴`` entries stay under 1 MB.  Wider gates and channels apply
#: their operators to the ket and bra legs in turn.
_SUPEROP_MAX_DIM = 16
#: Widest block (in levels) that superoperators merge onto, and that a
#: structured (diagonal or permutation) gate fuses with its noise on: a
#: 16 x 16 dense superoperator costs about what a 4 x 4 one, a gather or
#: the closed form does, while wider dense ones cost more than those.
#: As every wire has at least two levels, a block holds at most two wires.
_MERGE_MAX_DIM = 4
#: How many earlier ops on other wires a new op may merge back past.
_MERGE_WINDOW = 16
#: Largest ``block * B`` for which a dense superoperator absorbs the
#: trailing doubled axes into one GEMM (see :func:`_superop_op`).
_FOLD_MAX_DIM = 16


# ----------------------------------------------------------------------
# the doubled register
# ----------------------------------------------------------------------
def _interleave(rho: np.ndarray, dims: tuple[int, ...]) -> np.ndarray:
    """``(D, D)`` matrix -> doubled-register tensor of shape ``(d_w²)``."""
    n = len(dims)
    order = [axis for w in range(n) for axis in (w, w + n)]
    tensor = rho.reshape(dims * 2).transpose(order)
    return tensor.reshape(tuple(d * d for d in dims))


def _deinterleave(state: np.ndarray, dims: tuple[int, ...]) -> np.ndarray:
    """Doubled-register tensor -> ``(D, D)`` matrix (inverse of :func:`_interleave`)."""
    n = len(dims)
    order = [2 * w for w in range(n)] + [2 * w + 1 for w in range(n)]
    halves = tuple(d for d in dims for _ in (0, 1))
    dim = total_dim(dims)
    return state.reshape(halves).transpose(order).reshape(dim, dim)


def _liouville(
    kraus: Sequence[np.ndarray], gate_dims: tuple[int, ...], order: Sequence[int]
) -> np.ndarray:
    """``Σ K ⊗ K̄`` with legs interleaved per wire, wires taken in ``order``.

    ``kraus`` act on wires of ``gate_dims`` in matrix tensor order;
    ``order`` lists those wires in ascending register position, so the
    result acts on the doubled register's target axes in ascending order.
    """
    k = len(gate_dims)
    ops = np.asarray(kraus, dtype=complex).reshape((-1,) + gate_dims * 2)
    # axes of the product: out legs 0..k-1, in legs k..2k-1, then the
    # conjugate's out legs 2k..3k-1 and in legs 3k..4k-1
    product = np.tensordot(ops, ops.conj(), axes=(0, 0))
    rows = [axis for j in order for axis in (j, 2 * k + j)]
    cols = [axis for j in order for axis in (k + j, 3 * k + j)]
    size = math.prod(gate_dims) ** 2
    return product.transpose(rows + cols).reshape(size, size)


@functools.lru_cache(maxsize=64)
def _twirl(gate_dims: tuple[int, ...]) -> np.ndarray:
    """``|I⟩⟨I| / d_S`` on interleaved target legs: ``Tr_S(·) ⊗ I/d_S``."""
    identity = np.eye(math.prod(gate_dims)).reshape(gate_dims * 2)
    k = len(gate_dims)
    legs = [axis for j in range(k) for axis in (j, k + j)]
    vec = identity.transpose(legs).reshape(-1)
    out = np.outer(vec, vec) / math.prod(gate_dims)
    out.flags.writeable = False
    return out


@functools.lru_cache(maxsize=256)
def _diagonal_indices(
    dims: tuple[int, ...], targets: tuple[int, ...]
) -> tuple[tuple[int, int, int], np.ndarray]:
    """Where the targets' ket and bra digits agree, on the doubled register.

    Returns ``(shape, indices)``: ``shape`` views the doubled register as
    ``(A, block, B)`` with ``block`` the contiguous run of doubled axes
    from the first to the last target wire, and ``indices`` (shape
    ``(M, d_S)``) holds the block positions of the target diagonal, one
    row per setting of the non-target wires inside the block.
    """
    lo, hi = min(targets), max(targets)
    doubled = [d * d for d in dims]
    inner = range(lo, hi + 1)
    place = strides(tuple(doubled[lo : hi + 1]))
    spectators = [w for w in inner if w not in targets]
    axes = spectators + sorted(targets)
    index = np.zeros([1] * len(axes), dtype=np.intp)
    for pos, w in enumerate(axes):
        if w in targets:
            levels = np.arange(dims[w]) * (dims[w] + 1)
        else:
            levels = np.arange(doubled[w])
        shape = [1] * len(axes)
        shape[pos] = levels.size
        index = index + (levels * place[w - lo]).reshape(shape)
    d_s = math.prod(dims[t] for t in targets)
    shape3 = (
        math.prod(doubled[:lo]),
        math.prod(doubled[lo : hi + 1]),
        math.prod(doubled[hi + 1 :]),
    )
    index = index.reshape(-1, d_s)
    index.flags.writeable = False
    return shape3, index


# ----------------------------------------------------------------------
# op kernels: each maps the doubled-register tensor to a new one
# ----------------------------------------------------------------------
def _depolarize(
    state: np.ndarray,
    lam: float,
    shape: tuple[int, int, int],
    diagonal: np.ndarray,
) -> np.ndarray:
    """``(1 − λ) ρ + λ Tr_S(ρ) ⊗ I/d_S`` on the target diagonal's indices.

    The uniform average over the Weyl group twirls any operator to its
    trace, so ``p`` spread over the ``d_S² − 1`` non-identity Weyl
    operators gives this form with ``λ = p d_S² / (d_S² − 1)``.
    """
    view = state.reshape(shape)
    reduced = view[:, diagonal, :].sum(axis=2)
    out = (1.0 - lam) * view
    out[:, diagonal, :] += (lam / diagonal.shape[1]) * reduced[:, :, None, :]
    return out.reshape(state.shape)


def _matmul(
    state: np.ndarray, matrix: np.ndarray, shape: tuple[int, ...]
) -> np.ndarray:
    """A dense superoperator on the middle axis of an ``(A, block, B)`` view."""
    return np.matmul(matrix, state.reshape(shape)).reshape(state.shape)


def _right_matmul(
    state: np.ndarray, transposed: np.ndarray, shape: tuple[int, int]
) -> np.ndarray:
    """A dense superoperator on the trailing axes: ``(A, m) @ Sᵀ``."""
    return (state.reshape(shape) @ transposed).reshape(state.shape)


#: An operator and its conjugate, each with its shared structure.
_Term = tuple[np.ndarray, GateStructure, np.ndarray, GateStructure]


def _terms(kraus: Sequence[np.ndarray]) -> list[_Term]:
    """The :func:`_sandwich` terms of a Kraus family."""
    out = []
    for op in kraus:
        conj = op.conj()
        out.append((op, intern_structure(op), conj, intern_structure(conj)))
    return out


def _sandwich(
    state: np.ndarray,
    legs: tuple[int, ...],
    ket: tuple[int, ...],
    bra: tuple[int, ...],
    terms: Sequence[_Term],
) -> np.ndarray:
    """``Σ K ρ K†`` operator by operator: ``state`` viewed with one axis
    per ket and bra leg (``legs``), each operator applied to the ``ket``
    axes and its conjugate to the ``bra`` axes."""
    tensor = state.reshape(legs)
    out = np.zeros_like(tensor)
    for op, structure, conj, conj_structure in terms:
        term = apply_matrix(tensor, op, legs, ket, structure)
        out += apply_matrix(term, conj, legs, bra, conj_structure)
    return out.reshape(state.shape)


class _Op:
    """One compiled op on the doubled register: a plan step, or several
    fused or merged into one.

    ``kernel(state, *args)`` returns the new state.  ``events`` are the
    ``(event, kind, fields)`` telemetry records of the instructions it
    runs — one per instruction, fused or not.  ``wires`` are the wires it
    touches, ascending.  A superoperator op keeps ``local = (matrix,
    structure)`` on those wires so that other ops can merge with it.
    """

    __slots__ = ("kernel", "args", "events", "wires", "local")

    def __init__(
        self, kernel, args: tuple, events: tuple, wires: tuple[int, ...], local=None
    ) -> None:
        self.kernel = kernel
        self.args = args
        self.events = events
        self.wires = wires
        self.local = local

    def __call__(self, state: np.ndarray) -> np.ndarray:
        return self.kernel(state, *self.args)


def _kind(structures: Iterable[GateStructure]) -> str:
    """The one structure kind of an operator family, or ``"mixed"``."""
    seen = {s.kind for s in structures}
    return seen.pop() if len(seen) == 1 else "mixed"


def _superop_op(
    matrix: np.ndarray,
    structure: GateStructure,
    dims: tuple[int, ...],
    wires: tuple[int, ...],
    events: tuple,
) -> _Op:
    """A superoperator on ascending ``wires`` of the doubled register.

    A dense one on a contiguous wire run is a matmul over the
    ``(A, block, B)`` view.  When ``block * B`` is small, the op absorbs
    the trailing axes as ``S ⊗ I_B`` and runs as one GEMM on ``(A, block
    * B)``: numpy's batched matmul pays per batch entry, which dominates
    for many tiny blocks.  Anything else goes through the statevector
    kernels, which keep diagonals and permutations structured.
    """
    doubled = tuple(d * d for d in dims)
    lo, hi = wires[0], wires[-1]
    local = (matrix, structure)
    if structure.kind != DENSE or hi - lo + 1 != len(wires):
        generic = (matrix, doubled, wires, structure)
        return _Op(apply_matrix, generic, events, wires, local)
    before = math.prod(doubled[:lo])
    after = math.prod(doubled[hi + 1 :])
    block = matrix.shape[0]
    if block * after <= _FOLD_MAX_DIM:
        folded = _kron(matrix, np.eye(after)).T.copy()
        trailing = (folded, (before, block * after))
        return _Op(_right_matmul, trailing, events, wires, local)
    return _Op(_matmul, (matrix, (before, block, after)), events, wires, local)


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.kron`` of two square matrices, without its generic overhead."""
    m, k = a.shape[0], b.shape[0]
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(m * k, m * k)


def _embed(
    matrix: np.ndarray,
    wires: tuple[int, ...],
    block: tuple[int, ...],
    dims: tuple[int, ...],
) -> np.ndarray:
    """A superoperator on ``wires`` as one on ``block``: the same wires, or
    one wire of a two-wire block."""
    if wires == block:
        return matrix
    if wires[0] == block[0]:
        return _kron(matrix, np.eye(dims[block[1]] ** 2))
    return _kron(np.eye(dims[block[0]] ** 2), matrix)


def _merged(first: _Op, second: _Op, dims: tuple[int, ...]) -> _Op | None:
    """``second ∘ first`` as one superoperator, when that is cheap.

    Only when both are superoperators, one's wires hold the other's, and
    the larger spans at most :data:`_MERGE_MAX_DIM` levels.
    """
    if first.local is None or second.local is None:
        return None
    (m1, s1), (m2, s2) = first.local, second.local
    w1, w2 = first.wires, second.wires
    wires = w1 if set(w2) <= set(w1) else w2 if set(w1) <= set(w2) else None
    if wires is None or math.prod(dims[w] for w in wires) > _MERGE_MAX_DIM:
        return None
    matrix = _embed(m2, w2, wires, dims) @ _embed(m1, w1, wires, dims)
    if DENSE in (s1.kind, s2.kind):
        structure = GateStructure(kind=DENSE, matrix=matrix)
    else:
        structure = classify_gate(matrix)
    # no kernel yet: most merges are merged again before the plan is done
    return _Op(None, (), first.events + second.events, wires, (matrix, structure))


def _kraus_op(
    kraus: Sequence[np.ndarray],
    dims: tuple[int, ...],
    targets: tuple[int, ...],
    events: tuple,
) -> _Op:
    """Operator-by-operator op for targets too wide for a superoperator."""
    legs = tuple(d for d in dims for _ in (0, 1))
    ket = tuple(2 * t for t in targets)
    bra = tuple(2 * t + 1 for t in targets)
    args = (legs, ket, bra, _terms(kraus))
    return _Op(_sandwich, args, events, tuple(sorted(targets)))


def _ascending(targets: tuple[int, ...]) -> tuple[int, ...]:
    """Positions of ``targets`` in ascending wire order."""
    return tuple(sorted(range(len(targets)), key=targets.__getitem__))


def _unitary_liouville(
    structure: GateStructure, targets: tuple[int, ...], dims: tuple[int, ...]
) -> GateStructure:
    """``U ⊗ Ū`` on ascending doubled target axes, cached on ``U``'s structure."""
    order = _ascending(targets)
    gate_dims = tuple(dims[t] for t in targets)
    key = ("liouville", gate_dims, order)
    cached = structure.plans.get(key)
    if cached is None:
        cached = structure.plans[key] = classify_gate(
            _liouville([structure.matrix], gate_dims, order)
        )
    return cached


def _unitary_op(
    structure: GateStructure,
    targets: tuple[int, ...],
    dims: tuple[int, ...],
    noise: tuple[float, int] | None = None,
) -> _Op:
    """A unitary's op, fused with the depolarising channel ``noise = (p,
    Kraus count)`` after it when given."""
    events: tuple = (("gate", structure.kind, {"kraus": 1}),)
    if structure.dim > _SUPEROP_MAX_DIM:
        return _kraus_op([structure.matrix], dims, targets, events)
    liouville = _unitary_liouville(structure, targets, dims)
    wires = tuple(sorted(targets))
    if noise is None:
        return _superop_op(liouville.matrix, liouville, dims, wires, events)
    p, n_kraus = noise
    lam = _depolarizing_lambda(p, structure.dim)
    events += (("channel", "depolarizing", {"kraus": n_kraus}),)
    twirl = _twirl(tuple(dims[w] for w in wires))
    matrix = (1.0 - lam) * liouville.matrix + lam * twirl
    dense = GateStructure(kind=DENSE, matrix=matrix)
    return _superop_op(matrix, dense, dims, wires, events)


def _depolarizing_lambda(p: float, d_s: int) -> float:
    """``λ = p d_S² / (d_S² − 1)`` of a depolarising channel."""
    return p * d_s * d_s / (d_s * d_s - 1)


def _noise_after(
    ins: Instruction, follower: PlanStep | None
) -> tuple[float, int] | None:
    """``(p, Kraus count)`` of a depolarising channel right after a unitary
    on the same wires, if the next plan step is one."""
    channel = None if follower is None else follower.instruction
    if channel is None or channel.kind != "channel" or channel.kraus is None:
        return None
    p = channel.depolarizing_p
    if p is None or set(channel.qudits) != set(ins.qudits):
        return None
    return p, len(channel.kraus)


def _fusable(
    structure: GateStructure, targets: tuple[int, ...], dims: tuple[int, ...]
) -> bool:
    """Whether a unitary fuses with the depolarising channel after it."""
    if structure.dim > _SUPEROP_MAX_DIM:
        return False
    dense = _unitary_liouville(structure, targets, dims).kind == DENSE
    return dense or structure.dim <= _MERGE_MAX_DIM


def _channel_op(ins: Instruction, dims: tuple[int, ...]) -> _Op:
    """A channel's op: closed form for depolarising, else its superoperator."""
    targets = ins.qudits
    d_s = math.prod(dims[t] for t in targets)
    p = ins.depolarizing_p
    kraus = ins.kraus or ()
    fields = {"kraus": len(kraus)}
    if p is not None:
        events = (("channel", "depolarizing", fields),)
        wires = tuple(sorted(targets))
        shape, diagonal = _diagonal_indices(dims, wires)
        lam = _depolarizing_lambda(p, d_s)
        return _Op(_depolarize, (lam, shape, diagonal), events, wires)
    events = (("channel", _kind(ins.kraus_structures() or ()), fields),)
    return _family_op(kraus, dims, targets, events)


def _family_op(
    kraus: Sequence[np.ndarray],
    dims: tuple[int, ...],
    targets: tuple[int, ...],
    events: tuple,
) -> _Op:
    """A Kraus family as its superoperator, or operator by operator if wide."""
    gate_dims = tuple(dims[t] for t in targets)
    if math.prod(gate_dims) > _SUPEROP_MAX_DIM:
        return _kraus_op(kraus, dims, targets, events)
    matrix = _liouville(kraus, gate_dims, _ascending(targets))
    wires = tuple(sorted(targets))
    return _superop_op(matrix, classify_gate(matrix), dims, wires, events)


def _reset_op(wire: int, dims: tuple[int, ...]) -> _Op:
    """Trace the wire out and re-prepare it in ``|0⟩``: Kraus ops ``|0⟩⟨k|``."""
    d = dims[wire]
    kraus = np.zeros((d, d, d), dtype=complex)
    kraus[:, 0, :] = np.eye(d)
    events = (("gate", _kind(intern_structure(op) for op in kraus), {"kraus": d}),)
    return _family_op(list(kraus), dims, (wire,), events)


def _diagonal_op(diagonal: np.ndarray, dims: tuple[int, ...]) -> _Op:
    """A fused diagonal step ``f``: one multiply by ``f ⊗ f̄``."""
    flat = diagonal.reshape(-1)
    factor = _interleave(np.outer(flat, flat.conj()), dims)
    events = (("gate", DIAGONAL, {"kraus": 1}),)
    return _Op(np.multiply, (factor,), events, tuple(range(len(dims))))


def _step_ops(plan: Sequence[PlanStep], dims: tuple[int, ...]) -> list[tuple[int, _Op]]:
    """The plan's ops in order, each with the index of its first step.

    A unitary fuses with the depolarising channel after it, and ops that
    :func:`_merged` accepts become one.  A Trotter step repeats each
    gate-and-noise pair many times, so equal steps share one op.
    """
    ops: list[tuple[int, _Op]] = []
    # Equal structures and Kraus tuples are one object across the plan.
    shared: dict = {}
    skip = False
    for i, step in enumerate(plan):
        if skip:  # a channel fused into its unitary
            skip = False
            continue
        ins = step.instruction
        if ins is None:  # a fused diagonal step
            assert step.diagonal is not None
            op = _diagonal_op(step.diagonal, dims)
        elif step.kind == "reset":
            op = _reset_op(ins.qudits[0], dims)
        elif step.kind == "channel":
            key = ("channel", id(ins.kraus), ins.qudits, ins.depolarizing_p)
            if key not in shared:
                shared[key] = _channel_op(ins, dims)
            op = shared[key]
        else:
            structure = ins.structure()
            assert structure is not None  # every unitary has one
            follower = plan[i + 1] if i + 1 < len(plan) else None
            noise = _noise_after(ins, follower)
            key = ("unitary", id(structure), ins.qudits, noise)
            if key not in shared:
                fuse = noise is not None and _fusable(structure, ins.qudits, dims)
                op = _unitary_op(structure, ins.qudits, dims, noise if fuse else None)
                shared[key] = (op, fuse)
            op, skip = shared[key]
        # Move back past ops on other wires (they commute) and merge into
        # the first op that shares a wire, while _merged accepts the pair.
        place = len(ops)
        stop = max(0, place - _MERGE_WINDOW)
        for j in range(place - 1, stop - 1, -1):
            first, earlier = ops[j]
            if set(earlier.wires).isdisjoint(op.wires):
                continue
            key = ("merged", earlier, op)  # keeps both alive while shared
            if key not in shared:
                shared[key] = _merged(earlier, op, dims)
            if shared[key] is None:
                break
            ops[j] = (first, shared[key])
            op = shared[key]
            if place < len(ops):
                del ops[place]
            place = j
        if place == len(ops):
            ops.append((i, op))
    return ops


def _compiled(plan: Sequence[PlanStep], dims: tuple[int, ...]) -> list[_Op]:
    """The ops that run ``plan`` on the doubled register, compiled once.

    Each op lands in the ``cache["density"]`` of the first plan step it
    runs; a step folded into an earlier op has no entry.
    """
    if plan and "density" not in plan[0].cache:
        kernels: dict = {}
        for first, op in _step_ops(plan, dims):
            if op.kernel is None:  # a merged op, possibly at several places
                if op not in kernels:
                    matrix, structure = op.local
                    kernels[op] = _superop_op(
                        matrix, structure, dims, op.wires, op.events
                    )
                op = kernels[op]
            plan[first].cache["density"] = op
    return [step.cache["density"] for step in plan if "density" in step.cache]


def _run(op: _Op, state: np.ndarray) -> np.ndarray:
    """Run one op; with telemetry on, count and span each instruction it runs."""
    if not (_metrics.enabled or _tracing.enabled):
        return op(state)
    with ExitStack() as spans:
        for event, kind, fields in op.events:
            _metrics.inc(f"{event}_applies", backend="density", kind=kind)
            spans.enter_context(
                _tracing.span(f"{event}_apply", backend="density", kind=kind, **fields)
            )
        return op(state)


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
        n = len(self.dims)
        terms = _terms(ops)
        kinds = (term[1].kind for term in terms)
        bras = tuple(w + n for w in wires)
        args = (self._matrix, self.dims * 2, wires, bras, terms)
        mat = _observed("density", "gate", kinds, _sandwich, *args, kraus=len(ops))
        return DensityMatrix(mat, self.dims)

    def apply_channel(
        self, channel: QuditChannel, targets: int | Sequence[int]
    ) -> "DensityMatrix":
        """Apply a :class:`QuditChannel` on local targets.

        Compiles the op :meth:`evolve` runs for the same channel: closed
        form for a depolarising family, the superoperator otherwise.
        """
        wires = validate_wires(self.dims, targets, channel.kraus)
        ins = Instruction(
            name=channel.name,
            kind="channel",
            qudits=wires,
            kraus=channel.kraus,
            depolarizing_p=channel.depolarizing_p,
        )
        state = _run(_channel_op(ins, self.dims), _interleave(self._matrix, self.dims))
        return DensityMatrix(_deinterleave(state, self.dims), self.dims)

    def evolve(self, circuit: QuditCircuit) -> "DensityMatrix":
        """Run a circuit's compiled plan: unitaries, channels and resets.

        The plan (:meth:`~repro.core.circuit.QuditCircuit.plan`) fuses
        same-wire single-qudit runs and diagonal runs and drops
        ``measure`` markers; its steps compile once to ops on the doubled
        register (see the module docstring), which ``rho`` enters and
        leaves by one transpose each.
        """
        if circuit.dims != self.dims:
            raise DimensionError(
                f"circuit dims {circuit.dims} != state dims {self.dims}"
            )
        state = _interleave(self._matrix, self.dims)
        for op in _compiled(circuit.plan(), self.dims):
            state = _run(op, state)
        return DensityMatrix(_deinterleave(state, self.dims), self.dims)

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
