"""Mixed-radix index arithmetic for registers of mixed-dimension qudits.

A register of ``n`` qudits with dimensions ``dims = (d_0, ..., d_{n-1})``
spans a Hilbert space of dimension ``prod(dims)``.  Basis states are labelled
by digit tuples ``(k_0, ..., k_{n-1})`` with ``0 <= k_i < d_i``; the flat
index uses *big-endian* convention (qudit 0 is the most significant digit),
matching the tensor-product order ``|k_0> ⊗ |k_1> ⊗ ...``.

These helpers are the foundation of every simulator in :mod:`repro.core`:
they must be fast, allocation-light, and obviously correct.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence

import numpy as np

from .exceptions import DimensionError

__all__ = [
    "validate_dims",
    "validate_wires",
    "total_dim",
    "index_to_digits",
    "digits_to_index",
    "all_digit_tuples",
    "basis_labels",
    "strides",
    "digit_matrix",
]


def validate_dims(dims: Sequence[int]) -> tuple[int, ...]:
    """Validate and normalise a dimension sequence.

    Args:
        dims: per-qudit dimensions; each must be an integer >= 2.

    Returns:
        The dimensions as a tuple of python ints.

    Raises:
        DimensionError: if ``dims`` is empty or contains an entry < 2.
    """
    out = tuple(int(d) for d in dims)
    if not out:
        raise DimensionError("register must contain at least one qudit")
    for i, d in enumerate(out):
        if d < 2:
            raise DimensionError(f"qudit {i} has dimension {d}; must be >= 2")
    return out


def validate_wires(
    dims: tuple[int, ...],
    targets: int | Sequence[int],
    operators: Sequence[np.ndarray] = (),
) -> tuple[int, ...]:
    """Validated target wires of a register, each operator spanning them.

    Args:
        dims: the register's (already validated) dimensions.
        targets: a wire index or a sequence of them, in the caller's order.
        operators: matrices that must each act on exactly these wires.

    Returns:
        The targets as a tuple of python ints.

    Raises:
        DimensionError: on a wire off the register, a repeated wire, or an
            operator whose shape is not ``(D_S, D_S)`` for the joint
            dimension ``D_S`` of the targets.
    """
    if isinstance(targets, (int, np.integer)):
        targets = (int(targets),)
    wires = tuple(int(t) for t in targets)
    n = len(dims)
    for t in wires:
        if not 0 <= t < n:
            raise DimensionError(f"wire {t} out of range for {n}-qudit register")
    if len(set(wires)) != len(wires):
        raise DimensionError(f"duplicate target wires in {wires}")
    span = math.prod(dims[t] for t in wires)
    for op in operators:
        if op.shape != (span, span):
            raise DimensionError(
                f"operator shape {op.shape} does not span wires {wires} "
                f"(dimension {span})"
            )
    return wires


def total_dim(dims: Sequence[int]) -> int:
    """Hilbert-space dimension of a register, ``prod(dims)``."""
    out = 1
    for d in validate_dims(dims):
        out *= d
    return out


def strides(dims: Sequence[int]) -> tuple[int, ...]:
    """Big-endian place values: ``index = sum_i digit_i * stride_i``."""
    dims = validate_dims(dims)
    out = [1] * len(dims)
    for i in range(len(dims) - 2, -1, -1):
        out[i] = out[i + 1] * dims[i + 1]
    return tuple(out)


def index_to_digits(index: int, dims: Sequence[int]) -> tuple[int, ...]:
    """Convert a flat basis index to its per-qudit digit tuple.

    Args:
        index: flat index in ``[0, prod(dims))``.
        dims: per-qudit dimensions.

    Returns:
        Digit tuple ``(k_0, ..., k_{n-1})`` in big-endian order.
    """
    dims = validate_dims(dims)
    dim = total_dim(dims)
    if not 0 <= index < dim:
        raise DimensionError(f"index {index} out of range for dimension {dim}")
    digits = []
    for d in reversed(dims):
        digits.append(index % d)
        index //= d
    return tuple(reversed(digits))


def digits_to_index(digits: Sequence[int], dims: Sequence[int]) -> int:
    """Convert a per-qudit digit tuple to its flat basis index."""
    dims = validate_dims(dims)
    if len(digits) != len(dims):
        raise DimensionError(
            f"got {len(digits)} digits for a register of {len(dims)} qudits"
        )
    index = 0
    for k, d in zip(digits, dims):
        if not 0 <= k < d:
            raise DimensionError(f"digit {k} out of range for dimension {d}")
        index = index * d + k
    return index


def all_digit_tuples(dims: Sequence[int]) -> Iterable[tuple[int, ...]]:
    """Iterate over all basis digit tuples in flat-index order."""
    dims = validate_dims(dims)
    for index in range(total_dim(dims)):
        yield index_to_digits(index, dims)


def basis_labels(dims: Sequence[int]) -> list[str]:
    """Human-readable ket labels, e.g. ``['|00>', '|01>', ...]``.

    Digits of qudits with dimension > 10 are comma-separated to stay
    unambiguous (``|10,3>``).
    """
    dims = validate_dims(dims)
    sep = "," if any(d > 10 for d in dims) else ""
    return [
        "|" + sep.join(str(k) for k in digits) + ">"
        for digits in all_digit_tuples(dims)
    ]


def digit_matrix(dims: Sequence[int]) -> np.ndarray:
    """All basis digit tuples as an ``(prod(dims), n)`` integer array.

    Row ``i`` is ``index_to_digits(i, dims)``.  Vectorised equivalent of
    :func:`all_digit_tuples`, used by cost evaluators that need to score
    every basis state at once.
    """
    dims = validate_dims(dims)
    dim = total_dim(dims)
    out = np.empty((dim, len(dims)), dtype=np.int64)
    idx = np.arange(dim)
    for pos in range(len(dims) - 1, -1, -1):
        out[:, pos] = idx % dims[pos]
        idx //= dims[pos]
    return out
