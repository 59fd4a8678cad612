"""Gate-structure taxonomy for the fast-path simulation engine.

Most of the paper's native gate set is *structured*: Weyl ``Z``, SNAP,
self/cross-Kerr and controlled-phase are **diagonal** in the computational
basis; Weyl ``X``, CSUM and the NDAR level relabellings are (generalised)
**permutations** — at most one nonzero entry per row and column.  A dense
``tensordot`` contraction costs ``O(D * d_gate)`` for register dimension
``D``; a diagonal gate needs only an ``O(D)`` elementwise multiply and a
permutation only an ``O(D)`` gather, with no reshaping of the operator.

:func:`classify_gate` detects the structure of a matrix *exactly* (by its
zero pattern, no tolerance rounding), so the fast paths are guaranteed to
reproduce the dense reference bit-for-bit up to floating-point summation
of exact zeros.  Classification is ``O(d^2)`` — negligible next to even a
single contraction.  :func:`intern_structure` keeps one table of results
keyed by a matrix's shape, dtype and bytes, so every equal matrix —
across instructions, circuits and Trotter steps — shares one
:class:`GateStructure` and the application plans cached on it.

Taxonomy (``GateStructure.kind``):

* ``"diagonal"`` — ``matrix == diag(diag)``; applied as a broadcast multiply.
* ``"permutation"`` — one nonzero per row/column (monomial matrix, covering
  pure permutations and phase-decorated ones like ``X^a Z^b``); applied as
  a row gather plus, when needed, a scale by the nonzero values.
* ``"dense"`` — everything else; applied by matrix contraction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "GateStructure",
    "classify_gate",
    "intern_structure",
    "broadcast_over_targets",
    "DIAGONAL",
    "PERMUTATION",
    "DENSE",
]

DIAGONAL = "diagonal"
PERMUTATION = "permutation"
DENSE = "dense"


@dataclass(frozen=True, eq=False)
class GateStructure:
    """Structural classification of a gate matrix.

    Attributes:
        kind: one of ``"diagonal"``, ``"permutation"``, ``"dense"``.
        matrix: the classified matrix (dense fallback and reference).
        diag: for ``diagonal`` — the diagonal entries, shape ``(d,)``.
        source: for ``permutation`` — ``source[r]`` is the column holding
            row ``r``'s single nonzero, so ``out[r] = values[r] * in[source[r]]``.
        values: for ``permutation`` — the nonzero entry of each row, or
            ``None`` when every entry is exactly ``1`` (pure permutation,
            no multiply needed).
        plans: cache of precomputed application plans, keyed by what
            they depend on (register dims, targets): broadcast diagonals
            and flat gather maps from the statevector kernels, axis-sorted
            re-classifications and operator-Schmidt factors from the
            MPS/LPDO engines.  All are filled lazily, so repeated Trotter
            steps skip all re-reshaping.
    """

    kind: str
    matrix: np.ndarray
    diag: np.ndarray | None = None
    source: np.ndarray | None = None
    values: np.ndarray | None = None
    plans: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def dim(self) -> int:
        """Dimension of the classified operator."""
        return self.matrix.shape[0]


def classify_gate(matrix: np.ndarray) -> GateStructure:
    """Classify a square matrix into the fast-path taxonomy.

    Detection is purely structural (exact zero pattern), so a diagonal
    matrix with a tiny off-diagonal entry is honestly classified ``dense``
    and fast paths never perturb results.

    Args:
        matrix: square complex matrix.

    Returns:
        A :class:`GateStructure`; ``kind == "dense"`` for anything without
        exploitable structure (including non-square input).
    """
    matrix = np.asarray(matrix)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        return GateStructure(kind=DENSE, matrix=matrix)
    d = matrix.shape[0]
    nonzero = matrix != 0
    nnz_per_col = nonzero.sum(axis=0)
    nnz_per_row = nonzero.sum(axis=1)
    # Diagonal: nothing off the main diagonal (zero diagonal entries allowed:
    # projectors / non-unitary diagonal Kraus operators still qualify).
    off = matrix.copy()
    np.fill_diagonal(off, 0)
    if not off.any():
        return GateStructure(kind=DIAGONAL, matrix=matrix, diag=np.ascontiguousarray(np.diagonal(matrix)))
    # Generalised permutation: exactly one nonzero per row and per column.
    if np.all(nnz_per_col == 1) and np.all(nnz_per_row == 1):
        source = nonzero.argmax(axis=1).astype(np.intp)
        values = np.ascontiguousarray(matrix[np.arange(d), source])
        if np.all(values == 1):
            values = None
        return GateStructure(
            kind=PERMUTATION, matrix=matrix, source=source, values=values
        )
    return GateStructure(kind=DENSE, matrix=matrix)


#: The structure table: :func:`classify_gate` results keyed by
#: ``(shape, dtype, bytes)``.  Cleared whole when it reaches
#: ``_TABLE_SIZE`` entries, which bounds the plans it keeps alive.
_TABLE: dict = {}
_TABLE_SIZE = 256


def intern_structure(matrix: np.ndarray) -> GateStructure:
    """The shared :class:`GateStructure` of ``matrix``'s exact contents.

    Equal matrices (same shape, dtype and bytes) return the same object,
    classified once.  The structure holds a read-only copy of the matrix,
    so a caller that later writes into its array never changes what the
    table serves.
    """
    matrix = np.asarray(matrix)
    key = (matrix.shape, matrix.dtype.str, matrix.tobytes())
    cached = _TABLE.get(key)
    if cached is None:
        if len(_TABLE) >= _TABLE_SIZE:
            _TABLE.clear()
        frozen = matrix.copy()
        frozen.flags.writeable = False
        cached = _TABLE[key] = classify_gate(frozen)
    return cached


def broadcast_over_targets(
    flat_values: np.ndarray, dims: tuple[int, ...], targets: list[int]
) -> np.ndarray:
    """Reshape per-gate-level values to broadcast against a register tensor.

    ``flat_values`` is indexed by the joint target level in matrix tensor
    order; the result has the register's rank with size-1 axes everywhere
    except the target axes.
    """
    gate_dims = [dims[t] for t in targets]
    value_tensor = flat_values.reshape(gate_dims)
    if len(targets) > 1:
        # Reorder the value tensor's axes to ascending register order so a
        # plain reshape lines each one up with its target axis.
        order = sorted(range(len(targets)), key=targets.__getitem__)
        value_tensor = np.transpose(value_tensor, order)
    shape = [1] * len(dims)
    for t in targets:
        shape[t] = dims[t]
    return np.ascontiguousarray(value_tensor.reshape(shape))
