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

What fuses and merges depends on kinds and wires only, never on a
depolarising probability: the compile keeps a fused op's ``U ⊗ Ū`` and
twirl, and :func:`_bind` forms ``(1 − λ)`` and ``λ`` parts and the merged
products in compile order once the probabilities are known.  So a
:class:`~repro.core.circuit.NoisyCircuit` (a noise template bound at one
strength) runs its template's plan, compiled once, and only the binding
is redone per strength, to the same floats as compiling its own plan.
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
from .circuit import Instruction, NoisyCircuit, PlanStep, QuditCircuit
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
    """One runnable op on the doubled register: a plan step, or several
    fused or merged into one.

    ``kernel(state, *args)`` returns the new state.  ``events`` are the
    ``(event, kind, fields)`` telemetry records of the instructions it
    runs — one per instruction, fused or not.  ``wires`` are the wires it
    touches, ascending.
    """

    __slots__ = ("kernel", "args", "events", "wires")

    def __init__(
        self, kernel, args: tuple, events: tuple, wires: tuple[int, ...]
    ) -> None:
        self.kernel = kernel
        self.args = args
        self.events = events
        self.wires = wires

    def __call__(self, state: np.ndarray) -> np.ndarray:
        return self.kernel(state, *self.args)

    def bind(self, strengths, dims, formed) -> "_Op":
        """Nothing to bind: no depolarising probability enters this op."""
        return self


class _Depolarizing:
    """A closed-form depolarising channel awaiting its probability.

    ``key`` names the probability (see :func:`_probability`); ``shape``
    and ``diagonal`` are :func:`_diagonal_indices` of its ``d_s`` target
    levels.
    """

    __slots__ = ("key", "d_s", "shape", "diagonal", "events", "wires")

    def __init__(self, key, d_s: int, shape, diagonal, events, wires) -> None:
        self.key, self.d_s = key, d_s
        self.shape, self.diagonal = shape, diagonal
        self.events, self.wires = events, wires

    def bind(self, strengths, dims, formed) -> _Op:
        lam = _depolarizing_lambda(_probability(self.key, strengths), self.d_s)
        args = (lam, self.shape, self.diagonal)
        return _Op(_depolarize, args, self.events, self.wires)


class _Super:
    """A superoperator on ascending ``wires``, as the plan compiles it.

    ``form`` says how its matrix and structure come about:
    ``("const", matrix, structure)`` is known at compile time;
    ``("fuse", L, T, key, d_s)`` is a unitary's ``L = U ⊗ Ū`` fused with
    the depolarising channel after it, ``(1 − λ) L + λ T``; and
    ``("merge", first, second)`` is ``second ∘ first`` of two superoperators
    of which one at least is not constant.  The last two are formed when
    the probabilities are bound (:func:`_bind`).  Other superoperators
    merge with this one (:func:`_merged`).
    """

    __slots__ = ("form", "events", "wires")

    def __init__(self, form: tuple, events: tuple, wires: tuple[int, ...]) -> None:
        self.form = form
        self.events = events
        self.wires = wires

    def local(self, formed: dict) -> tuple[np.ndarray, GateStructure]:
        """Matrix and structure, from ``formed`` unless constant."""
        if self.form[0] == "const":
            return self.form[1], self.form[2]
        return formed[self]

    def evaluate(self, strengths, dims, formed) -> tuple[np.ndarray, GateStructure]:
        """The matrix and structure of a fused or merged form, its parts in
        ``formed``.  Both are dense: a fused matrix is, and so is any
        product with one."""
        if self.form[0] == "fuse":
            _, liouville, twirl, key, d_s = self.form
            lam = _depolarizing_lambda(_probability(key, strengths), d_s)
            matrix = (1.0 - lam) * liouville + lam * twirl
            return matrix, GateStructure(kind=DENSE, matrix=matrix)
        _, first, second = self.form
        return _product(first, second, self.wires, dims, formed)

    def bind(self, strengths, dims, formed) -> _Op:
        matrix, structure = self.local(formed)
        return _superop_op(matrix, structure, dims, self.wires, self.events)


def _probability(key, strengths: dict[int, float] | None) -> float:
    """A depolarising probability: ``key`` itself, or for a template slot
    ``("slot", k)`` the bound ``strengths[k]``."""
    if isinstance(key, tuple):
        assert strengths is not None  # slot keys come from a bound template
        return strengths[key[1]]
    return key


#: An op as the compile leaves it, before any probability is bound.
_Node = _Op | _Depolarizing | _Super


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
    if structure.kind != DENSE or hi - lo + 1 != len(wires):
        generic = (matrix, doubled, wires, structure)
        return _Op(apply_matrix, generic, events, wires)
    before = math.prod(doubled[:lo])
    after = math.prod(doubled[hi + 1 :])
    block = matrix.shape[0]
    if block * after <= _FOLD_MAX_DIM:
        folded = _kron(matrix, np.eye(after)).T.copy()
        trailing = (folded, (before, block * after))
        return _Op(_right_matmul, trailing, events, wires)
    return _Op(_matmul, (matrix, (before, block, after)), events, wires)


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


def _product(
    first: _Super,
    second: _Super,
    wires: tuple[int, ...],
    dims: tuple[int, ...],
    formed: dict,
) -> tuple[np.ndarray, GateStructure]:
    """``second ∘ first`` on ``wires``: dense if either is, else classified."""
    (m1, s1), (m2, s2) = first.local(formed), second.local(formed)
    left = _embed(m2, second.wires, wires, dims)
    matrix = left @ _embed(m1, first.wires, wires, dims)
    if DENSE in (s1.kind, s2.kind):
        return matrix, GateStructure(kind=DENSE, matrix=matrix)
    return matrix, classify_gate(matrix)


def _merged(first, second, dims: tuple[int, ...]) -> _Super | None:
    """``second ∘ first`` as one superoperator, when that is cheap.

    Only when both are superoperators, one's wires hold the other's, and
    the larger spans at most :data:`_MERGE_MAX_DIM` levels.  Two constant
    ones multiply now; otherwise the product waits for :func:`_bind`.
    """
    if not (isinstance(first, _Super) and isinstance(second, _Super)):
        return None
    w1, w2 = first.wires, second.wires
    wires = w1 if set(w2) <= set(w1) else w2 if set(w1) <= set(w2) else None
    if wires is None or math.prod(dims[w] for w in wires) > _MERGE_MAX_DIM:
        return None
    events = first.events + second.events
    if first.form[0] == second.form[0] == "const":
        form: tuple = ("const", *_product(first, second, wires, dims, {}))
    else:
        form = ("merge", first, second)
    return _Super(form, events, wires)


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


#: A depolarising channel as the compile sees it: ``(key, Kraus count)``,
#: ``key`` naming its probability (see :func:`_probability`).
_Noise = tuple[object, int]


def _unitary_op(
    structure: GateStructure,
    targets: tuple[int, ...],
    dims: tuple[int, ...],
    noise: _Noise | None = None,
) -> _Op | _Super:
    """A unitary's op, fused with the depolarising channel ``noise`` after
    it when given."""
    events: tuple = (("gate", structure.kind, {"kraus": 1}),)
    if structure.dim > _SUPEROP_MAX_DIM:
        return _kraus_op([structure.matrix], dims, targets, events)
    liouville = _unitary_liouville(structure, targets, dims)
    wires = tuple(sorted(targets))
    if noise is None:
        return _Super(("const", liouville.matrix, liouville), events, wires)
    key, n_kraus = noise
    events += (("channel", "depolarizing", {"kraus": n_kraus}),)
    twirl = _twirl(tuple(dims[w] for w in wires))
    form = ("fuse", liouville.matrix, twirl, key, structure.dim)
    return _Super(form, events, wires)


def _depolarizing_lambda(p: float, d_s: int) -> float:
    """``λ = p d_S² / (d_S² − 1)`` of a depolarising channel."""
    return p * d_s * d_s / (d_s * d_s - 1)


def _own_noise(ins: Instruction) -> _Noise | None:
    """A depolarising channel's own probability and Kraus count."""
    p, kraus = ins.depolarizing_p, ins.kraus
    return None if p is None or kraus is None else (p, len(kraus))


def _noise_after(
    ins: Instruction, follower: PlanStep | None, noise_of
) -> _Noise | None:
    """The depolarising channel right after a unitary on the same wires,
    if the next plan step is one."""
    channel = None if follower is None else follower.instruction
    if channel is None or channel.kind != "channel" or channel.kraus is None:
        return None
    noise = noise_of(channel)
    if noise is None or set(channel.qudits) != set(ins.qudits):
        return None
    return noise


def _fusable(
    structure: GateStructure, targets: tuple[int, ...], dims: tuple[int, ...]
) -> bool:
    """Whether a unitary fuses with the depolarising channel after it."""
    if structure.dim > _SUPEROP_MAX_DIM:
        return False
    dense = _unitary_liouville(structure, targets, dims).kind == DENSE
    return dense or structure.dim <= _MERGE_MAX_DIM


def _channel_op(
    ins: Instruction, dims: tuple[int, ...], noise: _Noise | None
) -> _Op | _Super | _Depolarizing:
    """A channel's op: closed form for depolarising noise, else its
    superoperator."""
    targets = ins.qudits
    d_s = math.prod(dims[t] for t in targets)
    kraus = ins.kraus or ()
    if noise is not None:
        key, n_kraus = noise
        events = (("channel", "depolarizing", {"kraus": n_kraus}),)
        wires = tuple(sorted(targets))
        shape, diagonal = _diagonal_indices(dims, wires)
        return _Depolarizing(key, d_s, shape, diagonal, events, wires)
    kind = _kind(ins.kraus_structures() or ())
    events = (("channel", kind, {"kraus": len(kraus)}),)
    return _family_op(kraus, dims, targets, events)


def _family_op(
    kraus: Sequence[np.ndarray],
    dims: tuple[int, ...],
    targets: tuple[int, ...],
    events: tuple,
) -> _Op | _Super:
    """A Kraus family as its superoperator, or operator by operator if wide."""
    gate_dims = tuple(dims[t] for t in targets)
    if math.prod(gate_dims) > _SUPEROP_MAX_DIM:
        return _kraus_op(kraus, dims, targets, events)
    matrix = _liouville(kraus, gate_dims, _ascending(targets))
    wires = tuple(sorted(targets))
    return _Super(("const", matrix, classify_gate(matrix)), events, wires)


def _reset_op(wire: int, dims: tuple[int, ...]) -> _Op | _Super:
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


#: A compiled plan before its probabilities are bound: each op with the
#: index of its first plan step, and the superoperators formed per bind
#: in the order they were made (so each one's parts come first).
_Compiled = tuple[list[tuple[int, _Node]], list[_Super]]


def _step_ops(
    plan: Sequence[PlanStep], dims: tuple[int, ...], noise_of=_own_noise
) -> _Compiled:
    """The plan's ops in order, each with the index of its first step.

    A unitary fuses with the depolarising channel after it, and ops that
    :func:`_merged` accepts become one.  A Trotter step repeats each
    gate-and-noise pair many times, so equal steps share one op.
    ``noise_of(channel)`` says which channels are depolarising and where
    their probabilities come from; nothing here depends on their values.
    """
    ops: list[tuple[int, _Node]] = []
    deferred: list[_Super] = []
    op: _Node
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
            noise = noise_of(ins)
            key = ("channel", id(ins.kraus), ins.qudits, noise)
            if key not in shared:
                shared[key] = _channel_op(ins, dims, noise)
            op = shared[key]
        else:
            structure = ins.structure()
            assert structure is not None  # every unitary has one
            follower = plan[i + 1] if i + 1 < len(plan) else None
            noise = _noise_after(ins, follower, noise_of)
            key = ("unitary", id(structure), ins.qudits, noise)
            if key not in shared:
                fuse = noise is not None and _fusable(structure, ins.qudits, dims)
                op = _unitary_op(structure, ins.qudits, dims, noise if fuse else None)
                shared[key] = (op, fuse)
                if fuse:
                    assert isinstance(op, _Super)  # _fusable: not too wide
                    deferred.append(op)
            op, skip = shared[key]
        # Move back past ops on other wires (they commute) and merge into
        # the first op that shares a wire, while _merged accepts the pair.
        place = len(ops)
        stop = max(0, place - _MERGE_WINDOW)
        for j in range(place - 1, stop - 1, -1):
            first, earlier = ops[j]
            if set(earlier.wires).isdisjoint(op.wires):
                continue
            pair = ("merged", earlier, op)  # keeps both alive while shared
            if pair not in shared:
                merged = shared[pair] = _merged(earlier, op, dims)
                if merged is not None and merged.form[0] == "merge":
                    deferred.append(merged)
            if shared[pair] is None:
                break
            ops[j] = (first, shared[pair])
            op = shared[pair]
            if place < len(ops):
                del ops[place]
            place = j
        if place == len(ops):
            ops.append((i, op))
    return ops, deferred


def _bind(
    compiled: _Compiled,
    dims: tuple[int, ...],
    strengths: dict[int, float] | None = None,
) -> list[tuple[int, _Op]]:
    """The runnable ops of a compiled plan at the given probabilities.

    Fused and merged matrices are formed in the order the compile made
    them, from the same operands, so they are the floats an eager compile
    of the same noisy plan gives.  An op at several places binds once.
    """
    ops, deferred = compiled
    formed: dict = {}
    for node in deferred:
        formed[node] = node.evaluate(strengths, dims, formed)
    bound: dict = {}
    out = []
    for first, op in ops:
        if op not in bound:
            bound[op] = op.bind(strengths, dims, formed)
        out.append((first, bound[op]))
    return out


def _compiled(plan: Sequence[PlanStep], dims: tuple[int, ...]) -> list[_Op]:
    """The ops that run ``plan`` on the doubled register, compiled once.

    Each op lands in the ``cache["density"]`` of the first plan step it
    runs; a step folded into an earlier op has no entry.
    """
    if plan and "density" not in plan[0].cache:
        for first, op in _bind(_step_ops(plan, dims), dims):
            plan[first].cache["density"] = op
    return [step.cache["density"] for step in plan if "density" in step.cache]


def _template_ops(circuit: NoisyCircuit, dims: tuple[int, ...]) -> list[_Op]:
    """A bound noise template's ops, kept on the circuit.

    The template's skeleton plan compiles once, with each slot's channel
    keyed ``("slot", k)``; each bound circuit only binds its strengths.
    """
    ops = circuit.cache.get("density")
    if ops is None:
        template = circuit.template
        compiled = template.cache.get("density")
        if compiled is None:

            def noise_of(ins: Instruction) -> _Noise | None:
                slot = template.slot(ins)
                if slot is None:
                    return _own_noise(ins)
                k, d_s = slot
                return ("slot", k), d_s * d_s

            plan = template.skeleton.plan()
            compiled = template.cache["density"] = _step_ops(plan, dims, noise_of)
        bound = _bind(compiled, dims, circuit.strengths)
        ops = circuit.cache["density"] = [op for _, op in bound]
    return ops


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
        op = _channel_op(ins, self.dims, _own_noise(ins)).bind(None, self.dims, {})
        state = _run(op, _interleave(self._matrix, self.dims))
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
        if isinstance(circuit, NoisyCircuit) and circuit.fills_template():
            ops = _template_ops(circuit, self.dims)
        else:
            ops = _compiled(circuit.plan(), self.dims)
        state = _interleave(self._matrix, self.dims)
        for op in ops:
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
