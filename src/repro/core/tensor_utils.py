"""Tensor-train core of the MPS and LPDO engines.

A tensor-train state stores one tensor per register site, of shape
``(chi_l, d, *extra, chi_r)``: a bond to each neighbour, the site's
physical leg ``d``, and extra legs that every operation here carries along
untouched.  :class:`~repro.core.mps.MPSState` has no extra leg (rank-3
sites); :class:`~repro.core.lpdo.LPDOState` has one Kraus (purification)
leg ``kappa`` (rank-4 sites).  An MPS is an LPDO whose Kraus legs all have
size 1 (Werner et al., "Positive tensor network approach for simulating
open quantum many-body systems", PRL 116, 237201 (2016)).

:class:`TensorTrainState` implements, once for both layouts:

* a canonical-form interval ``[lo, hi]`` — sites left of ``lo`` are
  left-orthogonal, sites right of ``hi`` right-orthogonal — kept by QR
  sweeps over the joint ``(physical, extra)`` leg, so truncations are
  locally optimal and norms contract only the non-orthogonal segment;
* truncated-SVD bond splits, each charged to ``truncation_error``, the
  active error budget (:mod:`repro.core.budget`), a tracing span and the
  bond-dimension gauges;
* unitary gates: single-site contraction, operator-Schmidt bond expansion
  for adjacent diagonal/permutation pairs (no state SVD), theta merge and
  truncated split for dense runs, and swap routing for distant pairs;
* local expectation values on a contiguous run or a distant pair;
* validation of wires, operator shapes and basis-state digits.

A subclass names its layout with two class attributes: ``backend``, the
label of its spans, metrics and error messages, and ``_kraus_label``, the
einsum label of its extra leg (empty when there is none).  It supplies the
non-unitary instructions itself (``_apply_channel`` and ``_reset_site``).

The free functions :func:`qr_step_right`, :func:`qr_step_left` and
:func:`truncated_svd` are the factorisation kernels under the class; they
accept any site-tensor rank >= 3.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from collections.abc import Callable, Sequence
from typing import Any, ClassVar, Self

import numpy as np

from . import budget as _budget
from .circuit import Instruction, QuditCircuit
from .dims import validate_dims, validate_wires
from .exceptions import DimensionError, SimulationError
from .rng import RngLike
from ..obs import metrics as _metrics
from ..obs import tracing as _tracing
from .structure import (
    DIAGONAL,
    PERMUTATION,
    GateStructure,
    classify_gate,
    intern_structure,
)

__all__ = [
    "TensorTrainState",
    "operator_schmidt_factors",
    "qr_step_right",
    "qr_step_left",
    "truncated_svd",
]

#: Refuse to densify a state into more than this many entries.
DENSE_CAP = 1 << 22

#: Kraus operators (or observables) as ``(matrix, structure)`` pairs.
Ops = list[tuple[np.ndarray, GateStructure]]


def qr_step_right(tensors: list[np.ndarray], i: int) -> None:
    """Left-orthogonalise site ``i``, absorbing the QR remainder rightward.

    Works for any site-tensor rank >= 3: the leading bond and all middle
    legs are flattened into the QR's row space, so the joint
    ``(physical, Kraus, ...)`` leg is orthogonalised as one unit.
    """
    t = tensors[i]
    l, r = t.shape[0], t.shape[-1]
    mid = t.shape[1:-1]
    q, rem = np.linalg.qr(t.reshape(l * int(np.prod(mid)), r))
    tensors[i] = q.reshape((l,) + mid + (-1,))
    tensors[i + 1] = np.tensordot(rem, tensors[i + 1], axes=(1, 0))


def qr_step_left(tensors: list[np.ndarray], i: int) -> None:
    """Right-orthogonalise site ``i``, absorbing the QR remainder leftward."""
    t = tensors[i]
    left = t.shape[0]
    mid = t.shape[1:-1]
    r = t.shape[-1]
    q, rem = np.linalg.qr(t.reshape(left, int(np.prod(mid)) * r).conj().T)
    tensors[i] = q.conj().T.reshape((-1,) + mid + (r,))
    prev = tensors[i - 1]
    tensors[i - 1] = np.tensordot(prev, rem.conj(), axes=(prev.ndim - 1, 1))


def truncated_svd(
    mat: np.ndarray,
    *,
    max_keep: int | None,
    rel_tol: float,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Truncated SVD split with norm-preserving rescaling.

    Keeps at most ``max_keep`` singular values above ``rel_tol * s_max``
    (always at least one), rescales the kept spectrum so the Frobenius
    norm — the state norm / trace for MPS / LPDO splits — is preserved,
    and reports the discarded weight fraction for the caller's truncation
    account.

    Args:
        mat: the flattened theta matrix to split.
        max_keep: cap on the kept rank (``None`` = no cap).
        rel_tol: relative singular-value cutoff.

    Returns:
        ``(left, right, discarded)`` with ``left`` the kept columns of
        ``U``, ``right`` the kept rows of ``S @ Vh`` (spectrum rescaled),
        and ``discarded`` the weight fraction lost (0.0 when the split is
        exact up to ``rel_tol``).
    """
    u, s, vh = np.linalg.svd(mat, full_matrices=False)
    if s[0] <= 0:
        raise SimulationError("cannot split a zero theta tensor")
    keep = s > rel_tol * s[0]
    if max_keep is not None:
        keep[max_keep:] = False
    keep[0] = True  # always keep at least one state
    total = float(np.sum(s**2))
    kept = float(np.sum(s[keep] ** 2))
    discarded = 1.0 - kept / total
    s = s[keep] * np.sqrt(total / kept)
    return u[:, keep], s[:, None] * vh[keep], discarded


def operator_schmidt_factors(
    matrix: np.ndarray, d_left: int, d_right: int, tol: float = 1e-14
) -> tuple[np.ndarray, np.ndarray]:
    """Operator-Schmidt decomposition ``U = sum_k S_k (x) T_k`` of a 2-site gate.

    The SVD here is gate-sized (``d^2 x d^2``), computed once per gate
    structure and cached — it never touches the state.

    Args:
        matrix: operator on the joint ``d_left * d_right`` space, tensor
            order ``(left, right)``.
        d_left: dimension of the left site.
        d_right: dimension of the right site.
        tol: singular values below ``tol * s_max`` are dropped (they are
            numerically zero for structured gates).

    Returns:
        ``(left, right)`` stacks of shape ``(r, d_left, d_left)`` and
        ``(r, d_right, d_right)`` with ``sum_k left[k] (x) right[k]``
        reproducing the operator; ``r`` is the operator Schmidt rank.
    """
    tensor = np.asarray(matrix, dtype=complex).reshape(d_left, d_right, d_left, d_right)
    mat = tensor.transpose(0, 2, 1, 3).reshape(d_left * d_left, d_right * d_right)
    u, s, vh = np.linalg.svd(mat, full_matrices=False)
    keep = s > tol * s[0]
    u, s, vh = u[:, keep], s[keep], vh[keep]
    root = np.sqrt(s)
    left = (u * root).T.reshape(-1, d_left, d_left)
    right = (root[:, None] * vh).reshape(-1, d_right, d_right)
    return left, right


def _schmidt_factors(
    structure: GateStructure, d_left: int, d_right: int
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`operator_schmidt_factors` of a pair operator, cached on it."""
    key = ("op_schmidt", d_left, d_right)
    factors = structure.plans.get(key)
    if factors is None:
        factors = operator_schmidt_factors(structure.matrix, d_left, d_right)
        structure.plans[key] = factors
    return factors


def _sorted_gate(
    matrix: np.ndarray,
    structure: GateStructure | None,
    targets: Sequence[int],
    dims: Sequence[int],
) -> tuple[GateStructure, tuple[int, ...]]:
    """Reorder a gate's tensor axes so its targets are ascending.

    Returns the (possibly re-classified) structure of the axis-permuted
    matrix and the sorted target tuple.  The permuted structure is cached
    on the original structure's plan dict, so Trotter circuits permute and
    re-classify each distinct gate once.
    """
    targets = tuple(int(t) for t in targets)
    if structure is None:
        structure = classify_gate(np.asarray(matrix, dtype=complex))
    order = tuple(sorted(range(len(targets)), key=targets.__getitem__))
    if order == tuple(range(len(targets))):
        return structure, targets
    gate_dims = [dims[t] for t in targets]
    # The dims belong in the key: one GateStructure can be shared across
    # registers (the structure table, reused instructions), and the same byte
    # pattern permutes differently on e.g. (2, 3) vs (3, 2) wires.
    key = ("axis_order", order, tuple(gate_dims))
    permuted = structure.plans.get(key)
    if permuted is None:
        k = len(targets)
        tensor = np.asarray(matrix, dtype=complex).reshape(gate_dims + gate_dims)
        axes = list(order) + [a + k for a in order]
        new_dim = structure.dim
        permuted = classify_gate(
            np.ascontiguousarray(np.transpose(tensor, axes)).reshape(new_dim, new_dim)
        )
        structure.plans[key] = permuted
    return permuted, tuple(sorted(targets))


def _is_run(targets: tuple[int, ...]) -> bool:
    """Whether ascending ``targets`` form one contiguous run of wires."""
    return targets == tuple(range(targets[0], targets[0] + len(targets)))


def _check_digits(dims: Sequence[int], digits: Sequence[int]) -> list[int]:
    """One in-range basis digit per site, as ints."""
    if len(digits) != len(dims):
        raise DimensionError(f"{len(digits)} digits for a {len(dims)}-site register")
    out = [int(k) for k in digits]
    for d, k in zip(dims, out):
        if not 0 <= k < d:
            raise DimensionError(f"digit {k} out of range for dim {d}")
    return out


def _apply_structured(t: np.ndarray, structure: GateStructure) -> np.ndarray:
    """Apply ``structure``'s operator to axis 1 of ``t`` (rank >= 3).

    A diagonal operator multiplies, a (scaled) permutation gathers, and
    anything else contracts; the structure's fields say which it is.
    """
    axis1 = (None, slice(None)) + (None,) * (t.ndim - 2)
    if structure.diag is not None:
        return t * structure.diag[axis1]
    if structure.source is not None:
        t = t.take(structure.source, axis=1)
        if structure.values is not None:
            t = t * structure.values[axis1]
        return t
    return np.einsum("ab,lb...->la...", structure.matrix, t)


class TensorTrainState(ABC):
    """A register state stored as a chain of ``(chi_l, d, *extra, chi_r)`` tensors.

    Args:
        tensors: per-site tensors with matching bonds; the first/last bonds
            must be 1.
        dims: per-site physical dimensions (validated against the tensors).
        max_bond: bond-dimension cap ``chi``; ``None`` evolves the bond
            exactly.
        svd_tol: relative singular-value cutoff; values below
            ``svd_tol * s_max`` are always discarded.
    """

    #: Label of this layout's spans, metrics and error messages.
    backend: ClassVar[str]
    #: Einsum label of the extra site leg (empty when sites have none).
    _kraus_label: ClassVar[str]

    def __init__(
        self,
        tensors: Sequence[np.ndarray],
        dims: Sequence[int],
        *,
        max_bond: int | None = None,
        svd_tol: float = 1e-12,
    ) -> None:
        dims = validate_dims(dims)
        if len(tensors) != len(dims):
            raise DimensionError(
                f"{len(tensors)} tensors for a {len(dims)}-site register"
            )
        arrays = [np.asarray(t, dtype=complex) for t in tensors]
        rank = 3 + len(self._kraus_label)
        bond = 1
        for i, (t, d) in enumerate(zip(arrays, dims)):
            if t.ndim != rank or t.shape[1] != d or t.shape[0] != bond:
                raise DimensionError(
                    f"site {i} tensor has shape {t.shape}; expected "
                    f"({bond}, {d}{', *' * (rank - 2)})"
                )
            bond = t.shape[-1]
        if bond != 1:
            raise DimensionError(f"final bond dimension {bond} != 1")
        if max_bond is not None and max_bond < 1:
            raise SimulationError("max_bond must be >= 1")
        self._tensors: list[np.ndarray] = arrays
        self._dims = list(dims)
        self.max_bond = max_bond
        self.svd_tol = float(svd_tol)
        #: Cumulative weight discarded by bond-truncating SVDs.
        self.truncation_error = 0.0
        # Canonical interval: sites < lo are left-orthogonal, > hi right-.
        product = all(t.shape[0] == 1 and t.shape[-1] == 1 for t in arrays)
        self._lo = 0
        self._hi = 0 if product else len(dims) - 1

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def zero(cls, dims: Sequence[int], **options: Any) -> Self:
        """The all-|0> product state; ``options`` go to the constructor."""
        return cls.basis(dims, [0] * len(validate_dims(dims)), **options)

    @classmethod
    def basis(cls, dims: Sequence[int], digits: Sequence[int], **options: Any) -> Self:
        """Computational basis state ``|digits>`` (every leg of size 1).

        ``options`` (``max_bond``, ``svd_tol``, ...) go to the constructor.
        """
        dims = validate_dims(dims)
        ones = (1,) * (1 + len(cls._kraus_label))
        tensors = []
        for d, k in zip(dims, _check_digits(dims, digits)):
            t = np.zeros((1, d) + ones, dtype=complex)
            t[(0, k) + (0,) * len(ones)] = 1.0
            tensors.append(t)
        return cls(tensors, dims, **options)

    @classmethod
    def from_statevector(cls, state: Any, **options: Any) -> Self:
        """Exact (or ``max_bond``-truncated) state of a dense vector.

        Args:
            state: a :class:`~repro.core.statevector.Statevector` (or any
                object with ``.vector`` and ``.dims``).
            options: constructor options (``max_bond``, ``svd_tol``, ...).
        """
        dims = validate_dims(state.dims)
        out = cls.zero(dims, **options)
        ones = (1,) * len(cls._kraus_label)
        legs = tuple(x for d in dims for x in (d,) + ones)
        theta = np.asarray(state.vector, dtype=complex).reshape((1,) + legs + (1,))
        if len(dims) == 1:
            out._tensors = [theta]
            out._lo = out._hi = 0
        else:
            out._lo, out._hi = 0, len(dims) - 1
            out._split_run(0, theta)
        return out

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    @property
    def dims(self) -> tuple[int, ...]:
        """Per-site physical dimensions."""
        return tuple(self._dims)

    @property
    def num_sites(self) -> int:
        """Number of register sites."""
        return len(self._dims)

    @property
    def dim(self) -> int:
        """Total Hilbert-space dimension (python int; may be astronomically large)."""
        return math.prod(self._dims)

    def bond_dimensions(self) -> tuple[int, ...]:
        """Current bond dimension at each of the ``n - 1`` internal bonds."""
        return tuple(t.shape[-1] for t in self._tensors[:-1])

    def site_tensor(self, i: int) -> np.ndarray:
        """The (read-only view of the) tensor at site ``i``."""
        return self._tensors[i]

    def copy(self) -> Self:
        """Cheap copy (tensors are replaced, never mutated, so sharing is safe)."""
        out = self.__class__.__new__(self.__class__)
        out.__dict__.update(self.__dict__)
        out._tensors = list(self._tensors)
        out._dims = list(self._dims)
        return out

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def _wires(self, targets: int | Sequence[int]) -> tuple[int, ...]:
        """Target wires as ints, in the caller's order, each on the register."""
        if isinstance(targets, (int, np.integer)):
            targets = (int(targets),)
        wires = tuple(int(t) for t in targets)
        if not wires:
            raise SimulationError("no target wires")
        for t in wires:
            if not 0 <= t < self.num_sites:
                raise SimulationError(f"wire {t} out of range")
        if len(set(wires)) != len(wires):
            raise SimulationError(f"duplicate target wires in {wires}")
        return wires

    def _operator_wires(
        self, matrix: np.ndarray, targets: int | Sequence[int]
    ) -> tuple[int, ...]:
        """:meth:`_wires`, plus a check that ``matrix`` spans exactly them."""
        return validate_wires(tuple(self._dims), self._wires(targets), [matrix])

    def _channel_ops(
        self, instruction: Instruction
    ) -> tuple[Ops, tuple[int, ...], bool]:
        """A channel's Kraus operators on ascending wires.

        Returns the ``(matrix, structure)`` pairs, the sorted targets, and
        whether the targets form a contiguous run (otherwise they are a
        distant pair).
        """
        wires = self._wires(instruction.qudits)
        kraus = zip(instruction.kraus or (), instruction.kraus_structures() or ())
        ops: Ops = []
        for op, st in kraus:
            st, _ = _sorted_gate(op, st, wires, self._dims)
            ops.append((st.matrix, st))
        targets = tuple(sorted(wires))
        contiguous = _is_run(targets)
        if not contiguous and len(targets) != 2:
            raise SimulationError(
                f"{self.backend.upper()} channels must target one wire, a "
                f"contiguous run, or two wires; got {targets}"
            )
        return ops, targets, contiguous

    # ------------------------------------------------------------------
    # canonical-form maintenance (joint (physical, extra) leg)
    # ------------------------------------------------------------------
    def _qr_step_right(self, i: int) -> None:
        """Left-orthogonalise site ``i``, absorbing the remainder rightward."""
        qr_step_right(self._tensors, i)
        self._lo = i + 1
        self._hi = max(self._hi, i + 1)

    def _qr_step_left(self, i: int) -> None:
        """Right-orthogonalise site ``i``, absorbing the remainder leftward."""
        qr_step_left(self._tensors, i)
        self._hi = i - 1
        self._lo = min(self._lo, i - 1)

    def _canonicalize(self, lo: int, hi: int) -> None:
        """Shrink the non-orthogonal interval into ``[lo, hi]``."""
        while self._lo < lo:
            self._qr_step_right(self._lo)
        while self._hi > hi:
            self._qr_step_left(self._hi)

    def _norm_sq(self) -> float:
        """Squared norm (the trace for an LPDO) from the non-orthogonal segment."""
        k = self._kraus_label
        lo, hi = self._lo, min(self._hi, self.num_sites - 1)
        t = self._tensors[lo]
        env = np.einsum(f"ld{k}r,ld{k}s->rs", t.conj(), t)
        for t in self._tensors[lo + 1 : hi + 1]:
            env = np.einsum(f"xy,xd{k}r,yd{k}s->rs", env, t.conj(), t, optimize=True)
        return float(np.real(np.trace(env)))

    # ------------------------------------------------------------------
    # SVD splitting
    # ------------------------------------------------------------------
    def _split_once(self, mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Truncated SVD split of one flattened matrix, charged to the accounts.

        Keeps at most ``max_bond`` singular values above the relative
        tolerance, adds the discarded weight fraction to
        :attr:`truncation_error` and the active error budget, and rescales
        the kept spectrum so the norm (trace) is preserved.
        """
        if _tracing.enabled:
            with _tracing.span("truncated_svd", backend=self.backend) as ev:
                left, right, discarded = truncated_svd(
                    mat, max_keep=self.max_bond, rel_tol=self.svd_tol
                )
                ev["args"]["chi"] = int(left.shape[1])
        else:
            left, right, discarded = truncated_svd(
                mat, max_keep=self.max_bond, rel_tol=self.svd_tol
            )
        if discarded > 1e-16:
            self.truncation_error += discarded
        _budget.record_truncation(float(discarded), int(left.shape[1]))
        if _metrics.enabled:
            _metrics.set_gauge("bond_dim", left.shape[1], backend=self.backend)
            _metrics.set_gauge(
                "truncation_error", self.truncation_error, backend=self.backend
            )
        return left, right

    def _split_run(self, start: int, theta: np.ndarray) -> None:
        """Split a merged ``(l, legs_1, .., legs_m, r)`` theta back into sites.

        Leaves the orthogonality centre on the last site of the run.
        """
        head = 2 + len(self._kraus_label)  # (l, d, *extra) of one site
        sites = (theta.ndim - 2) // (head - 1)
        for j in range(sites - 1):
            shape = theta.shape[:head]
            rest = theta.shape[head:]
            left, right = self._split_once(theta.reshape(math.prod(shape), -1))
            self._tensors[start + j] = left.reshape(shape + (-1,))
            theta = right.reshape((right.shape[0],) + rest)
        self._tensors[start + sites - 1] = theta
        self._lo = self._hi = start + sites - 1

    def _exact_cap(self, i: int) -> int:
        """Upper bound on the Schmidt rank across the bond right of site ``i``."""
        legs = [math.prod(t.shape[1:-1]) for t in self._tensors]
        return min(math.prod(legs[: i + 1]), math.prod(legs[i + 1 :]))

    def _pair_theta(self, i: int) -> np.ndarray:
        """Sites ``i`` and ``i + 1`` contracted over their shared bond."""
        # The second site's extra leg needs a label of its own.
        k, m = self._kraus_label, self._kraus_label.upper()
        return np.einsum(
            f"ld{k}r,re{m}s->ld{k}e{m}s", self._tensors[i], self._tensors[i + 1]
        )

    def _truncate_bond(self, i: int) -> None:
        """Re-compress the bond between sites ``i`` and ``i + 1``."""
        self._canonicalize(i, i + 1)
        self._split_run(i, self._pair_theta(i))

    # ------------------------------------------------------------------
    # gate application (physical legs; extra legs ride along)
    # ------------------------------------------------------------------
    def _apply_site(
        self, site: int, structure: GateStructure, unitary: bool = True
    ) -> None:
        """Contract a one-site operator into the site tensor (never any SVD)."""
        self._tensors[site] = _apply_structured(self._tensors[site], structure)
        if not unitary:
            self._lo = min(self._lo, site)
            self._hi = max(self._hi, site)

    def _merge_theta(self, start: int, k: int) -> np.ndarray:
        """Merge sites ``start .. start + k - 1`` into one theta tensor."""
        theta = self._tensors[start]
        for m in range(1, k):
            theta = np.tensordot(theta, self._tensors[start + m], axes=(-1, 0))
        return theta

    def _apply_theta(self, theta: np.ndarray, structure: GateStructure) -> np.ndarray:
        """Apply an operator to a merged theta's joint *physical* axis.

        The physical legs are gathered to the front (a no-op transpose
        when the sites carry no extra leg), transformed through the
        structure fast path, and scattered back.
        """
        n = 1 + len(self._kraus_label)
        physical = list(range(1, theta.ndim - 1, n))
        extra = [a for a in range(1, theta.ndim - 1) if a not in physical]
        perm = [0] + physical + extra + [theta.ndim - 1]
        moved = theta.transpose(perm)
        flat = moved.reshape(moved.shape[0], structure.dim, -1)
        out = _apply_structured(flat, structure).reshape(moved.shape)
        return out.transpose(sorted(range(len(perm)), key=perm.__getitem__))

    def _expand_pair(self, start: int, left: np.ndarray, right: np.ndarray) -> None:
        """Bond-expansion application of ``sum_q left[q] (x) right[q]``.

        No state SVD: the shared bond is multiplied by the operator
        Schmidt rank.  Both sites lose orthogonality, which widens the
        canonical interval.
        """
        a, b = self._tensors[start], self._tensors[start + 1]
        self._tensors[start] = np.einsum("qab,lb...->la...q", left, a).reshape(
            a.shape[:-1] + (-1,)
        )
        self._tensors[start + 1] = np.einsum("qcb,lb...->lqc...", right, b).reshape(
            (-1,) + b.shape[1:]
        )
        self._lo = min(self._lo, start)
        self._hi = max(self._hi, start + 1)

    def _apply_run(self, start: int, k: int, structure: GateStructure) -> None:
        """Apply an operator to ``k`` contiguous sites starting at ``start``."""
        if k == 1:
            self._apply_site(start, structure)
            return
        if k == 2 and structure.kind in (DIAGONAL, PERMUTATION):
            left, right = _schmidt_factors(
                structure, self._dims[start], self._dims[start + 1]
            )
            new_bond = self._tensors[start].shape[-1] * left.shape[0]
            if self.max_bond is None or new_bond <= self.max_bond:
                self._expand_pair(start, left, right)
                if new_bond > min(self.max_bond or new_bond, self._exact_cap(start)):
                    self._truncate_bond(start)
                return
        self._canonicalize(start, start + k - 1)
        theta = self._apply_theta(self._merge_theta(start, k), structure)
        self._split_run(start, theta)

    def _swap_adjacent(self, i: int) -> None:
        """Exchange sites ``i`` and ``i + 1`` (theta transpose + SVD split)."""
        self._canonicalize(i, i + 1)
        n = 1 + len(self._kraus_label)
        first, second = range(1, n + 1), range(n + 1, 2 * n + 1)
        theta = self._pair_theta(i).transpose((0, *second, *first, 2 * n + 1))
        self._dims[i], self._dims[i + 1] = self._dims[i + 1], self._dims[i]
        self._split_run(i, theta)

    def _route_and_apply(
        self, targets: tuple[int, ...], apply_fn: Callable[[int], None]
    ) -> None:
        """Swap distant pair targets adjacent, run ``apply_fn``, swap back.

        ``targets`` must be ascending; ``apply_fn(start)`` is invoked with
        the pair sitting at ``(start, start + 1)``.
        """
        u, v = targets
        for j in range(v - 1, u, -1):
            self._swap_adjacent(j)
        apply_fn(u)
        for j in range(u + 1, v):
            self._swap_adjacent(j)

    def apply_unitary(
        self,
        matrix: np.ndarray,
        targets: int | Sequence[int],
        structure: GateStructure | None = None,
    ) -> None:
        """Apply a unitary to the target wires (in place).

        Targets must be a single wire, a contiguous run of wires (any
        order), or two arbitrary wires (routed via swap insertion).

        Args:
            matrix: operator in the tensor order of ``targets``.
            structure: optional precomputed gate structure (the per-
                instruction cache); classified on the fly when omitted.
        """
        matrix = np.asarray(matrix, dtype=complex)
        wires = self._operator_wires(matrix, targets)
        structure, wires = _sorted_gate(matrix, structure, wires, self._dims)
        if _metrics.enabled or _tracing.enabled:
            _metrics.inc("gate_applies", backend=self.backend, kind=structure.kind)
            with _tracing.span("gate_apply", backend=self.backend, kind=structure.kind):
                self._dispatch_gate(wires, structure)
            return
        self._dispatch_gate(wires, structure)

    def _dispatch_gate(
        self, targets: tuple[int, ...], structure: GateStructure
    ) -> None:
        """Route a validated, sorted gate to the contiguous-run kernel."""
        if _is_run(targets):
            self._apply_run(targets[0], len(targets), structure)
            return
        if len(targets) != 2:
            raise SimulationError(
                f"{self.backend.upper()} gates must target one wire, a "
                f"contiguous run, or two wires; got {targets}"
            )
        self._route_and_apply(
            targets, lambda start: self._apply_run(start, 2, structure)
        )

    # ------------------------------------------------------------------
    # circuit evolution
    # ------------------------------------------------------------------
    @abstractmethod
    def _apply_channel(self, instruction: Instruction, rng: RngLike) -> None:
        """Apply one channel instruction in place."""

    @abstractmethod
    def _reset_site(self, site: int, rng: RngLike) -> None:
        """Re-prepare one wire in |0> in place."""

    def apply_instruction(self, instruction: Instruction, rng: RngLike = None) -> None:
        """Apply one circuit instruction in place.

        Args:
            instruction: unitary / channel / measure / reset instruction.
            rng: generator for stochastic instructions (backends that apply
                channels exactly ignore it).
        """
        kind = instruction.kind
        if kind == "unitary" and instruction.matrix is not None:
            self.apply_unitary(
                instruction.matrix,
                instruction.qudits,
                structure=instruction.structure(),
            )
        elif kind == "channel":
            self._apply_channel(instruction, rng)
        elif kind == "reset":
            self._reset_site(instruction.qudits[0], rng)
        elif kind == "measure":
            pass  # terminal measurement is implicit in sampling
        else:  # pragma: no cover - kinds validated at circuit build time
            raise SimulationError(f"unknown kind {kind}")

    def _run(self, circuit: QuditCircuit, rng: RngLike = None) -> Self:
        """Evolve a copy of this state through ``circuit`` and return it."""
        if circuit.dims != self.dims:
            raise DimensionError(
                f"circuit dims {circuit.dims} != state dims {self.dims}"
            )
        out = self.copy()
        for instruction in circuit:
            out.apply_instruction(instruction, rng=rng)
        return out

    # ------------------------------------------------------------------
    # observables
    # ------------------------------------------------------------------
    def expectation(
        self, operator: np.ndarray, targets: int | Sequence[int] | None = None
    ) -> complex:
        """Expectation of a local operator, normalised by the norm (trace).

        Supports one wire, a contiguous run of wires, and two arbitrary
        wires (contracted through the intervening transfer matrices via the
        operator-Schmidt decomposition — no swaps, no truncation).
        """
        if targets is None:
            targets = range(self.num_sites)
        operator = np.asarray(operator, dtype=complex)
        wires = self._operator_wires(operator, targets)
        structure, wires = _sorted_gate(
            operator, intern_structure(operator), wires, self._dims
        )
        if _is_run(wires):
            first, last = wires[0], wires[-1]
            self._canonicalize(first, last)
            theta = self._merge_theta(first, len(wires))
            transformed = self._apply_theta(theta, structure)
            value = complex(np.vdot(theta, transformed))
            denom = float(np.real(np.vdot(theta, theta)))
            return value / denom
        if len(wires) != 2:
            raise SimulationError(
                f"{self.backend.upper()} expectation targets must be one "
                f"wire, a contiguous run, or two wires; got {wires}"
            )
        u, v = wires
        left, right = _schmidt_factors(structure, self._dims[u], self._dims[v])
        self._canonicalize(u, v)
        k = self._kraus_label
        a_u = self._tensors[u]
        # One environment per operator-Schmidt term, carried through the
        # transfer matrices of the intervening sites.
        envs = np.einsum(f"xd{k}r,qdc,xc{k}s->qrs", a_u.conj(), left, a_u)
        norm_env = np.einsum(f"xd{k}r,xd{k}s->rs", a_u.conj(), a_u)
        for t in self._tensors[u + 1 : v]:
            envs = np.einsum(
                f"qxy,xd{k}r,yd{k}s->qrs", envs, t.conj(), t, optimize=True
            )
            norm_env = np.einsum(
                f"xy,xd{k}r,yd{k}s->rs", norm_env, t.conj(), t, optimize=True
            )
        a_v = self._tensors[v]
        value = complex(
            np.einsum(
                f"qxy,xd{k}r,qdc,yc{k}r->", envs, a_v.conj(), right, a_v, optimize=True
            )
        )
        denom = float(
            np.real(np.einsum(f"xy,xd{k}r,yd{k}r->", norm_env, a_v.conj(), a_v))
        )
        return value / denom
